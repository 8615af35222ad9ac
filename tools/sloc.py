#!/usr/bin/env python3
"""Count source lines of C++ per top-level directory.

A line counts when it is in a *.cpp or *.hpp file, is not blank, and its
first non-blank characters are not `//`. Run from the repository root:

    python3 tools/sloc.py            # every top-level directory with C++
    python3 tools/sloc.py src tests  # just these
"""
import argparse
import pathlib
import sys


def sloc(path: pathlib.Path) -> int:
    count = 0
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        text = line.strip()
        if text and not text.startswith("//"):
            count += 1
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", help="top-level directories (default: all)")
    args = parser.parse_args()
    root = pathlib.Path(".")
    if args.dirs:
        dirs = [pathlib.Path(d) for d in args.dirs]
    else:
        dirs = sorted(p for p in root.iterdir()
                      if p.is_dir() and not p.name.startswith(".")
                      and not p.name.startswith("build"))
    for d in dirs:
        if not d.is_dir():
            print(f"sloc.py: {d}: not a directory", file=sys.stderr)
            return 2
        files = [f for f in d.rglob("*") if f.suffix in (".cpp", ".hpp") and f.is_file()]
        if files or args.dirs:
            print(f"{d.as_posix()}/ {sum(sloc(f) for f in files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
