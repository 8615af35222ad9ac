#!/usr/bin/env python3
"""Alternated A/B pairs of the repository benchmark over two checkouts.

Runs `perfbench/run.py` in checkout A (the baseline) and checkout B (the
change) for N pairs, swapping which side runs first on every pair so a
drifting machine load penalizes both sides alike. Prints, per end-to-end
metric, each side's median [min, max], the parent's interquartile range
and how many pairs B won (the direction comes from A's BENCHMARK.json),
and flags every model output that is not bit-identical across all runs,
along with the simulated-output digests perfbench records.

    python3 tools/ab_pairs.py --a ../parent --b . --workload busy-churn \\
        --seed 1 --seconds 15 --pairs 8
    python3 tools/ab_pairs.py --self-test

Both checkouts build their own benchmark on the first run (perfbench
builds into each checkout's .bench_build/). Exit status: 0 = every exact
metric and digest agreed, 1 = at least one differed, 2 = bad arguments or
a failed run.
"""
import argparse
import json
import os
import subprocess
import sys

# Model outputs: the simulation computes them, so any difference between
# runs or sides is a behaviour change, not noise.
EXACT_METRICS = ("fleet_mean_w", "sla_violation_pct", "vms_kept_pct")
DIGEST_KEYS = ("prefix", "final", "final_energy")


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    if not s:
        raise ValueError("quantile of nothing")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def pair_order(i):
    """Which side runs first on pair i: A on even pairs, B on odd ones."""
    return ("a", "b") if i % 2 == 0 else ("b", "a")


def b_wins(a, b, better):
    """True when B's value beats A's in the metric's better direction."""
    return b > a if better == "higher" else b < a


def summarize(a_vals, b_vals, better):
    """Per-metric summary of paired runs (a_vals[i] pairs with b_vals[i])."""
    return {
        "a_median": median(a_vals), "a_min": min(a_vals), "a_max": max(a_vals),
        "a_iqr": quantile(a_vals, 0.75) - quantile(a_vals, 0.25),
        "b_median": median(b_vals), "b_min": min(b_vals), "b_max": max(b_vals),
        "b_won": sum(1 for a, b in zip(a_vals, b_vals) if b_wins(a, b, better)),
        "pairs": len(a_vals),
    }


def self_test():
    assert median([3.0]) == 3.0
    assert median([4.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.75) == 3.25
    assert quantile([7.0], 0.75) == 7.0
    assert [pair_order(i) for i in range(3)] == [("a", "b"), ("b", "a"), ("a", "b")]
    assert b_wins(10.0, 11.0, "higher") and not b_wins(10.0, 10.0, "higher")
    assert b_wins(10.0, 9.0, "lower") and not b_wins(10.0, 11.0, "lower")
    s = summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 5.0], "higher")
    assert s["b_won"] == 3 and s["pairs"] == 4
    assert s["a_median"] == 2.5 and s["b_median"] == 3.5 and s["a_iqr"] == 1.5
    try:
        median([])
    except ValueError:
        pass
    else:
        raise AssertionError("median([]) must raise")
    print("ab_pairs.py self-test ok")
    return 0


def directions(checkout):
    """Metric name -> "higher"/"lower" from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return {m["name"]: m["better"] for m in json.load(f).get("end_to_end", [])}


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: (verdict metrics, digest dict)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise RuntimeError(f"{checkout}: perfbench exited {out.returncode}")
    verdict = json.loads(lines[-1])
    if not verdict.get("correct") or verdict.get("failed"):
        raise RuntimeError(f"{checkout}: perfbench verdict not correct: {lines[-1]}")
    record = os.path.join(checkout, ".bench_build", "perfbench", "results",
                          f"{workload}-seed{seed}-trace0.json")
    digest = {}
    if os.path.exists(record):
        with open(record, encoding="utf-8") as f:
            digest = json.load(f).get("digest", {})
    return {k: v["value"] for k, v in verdict["metrics"].items()}, digest


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true",
                   help="check the median/ordering logic and exit")
    p.add_argument("--a", help="baseline checkout (repository root)")
    p.add_argument("--b", help="changed checkout (repository root)")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--pairs", type=int, default=8)
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not (args.a and args.b and args.workload) or args.pairs < 1 or args.seconds < 1:
        p.error("need --a, --b, --workload, --pairs >= 1 and --seconds >= 1")

    better = directions(args.a)
    runs = {"a": [], "b": []}
    checkout = {"a": args.a, "b": args.b}
    try:
        for i in range(args.pairs):
            for side in pair_order(i):
                metrics, digest = run_once(checkout[side], args.workload, args.seed,
                                           args.seconds)
                runs[side].append((metrics, digest))
                print(f"pair {i + 1} {side.upper()} sim_rate {metrics.get('sim_rate', 0):.1f}",
                      file=sys.stderr, flush=True)
    except RuntimeError as e:
        print(f"ab_pairs.py: {e}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed {args.seed}, {args.pairs} alternated pairs, "
          f"{args.seconds} s runs; A = {args.a}, B = {args.b}")
    rows = [("metric", "A median [min, max]", "A IQR", "B median [min, max]", "B vs A",
             "B won")]
    for name in runs["a"][0][0]:
        a_vals = [m[name] for m, _ in runs["a"]]
        b_vals = [m[name] for m, _ in runs["b"]]
        s = summarize(a_vals, b_vals, better.get(name, "higher"))
        delta = (s["b_median"] / s["a_median"] - 1.0) * 100.0 if s["a_median"] else 0.0
        rows.append((name, f"{s['a_median']:.6g} [{s['a_min']:.6g}, {s['a_max']:.6g}]",
                     f"{s['a_iqr']:.4g}",
                     f"{s['b_median']:.6g} [{s['b_min']:.6g}, {s['b_max']:.6g}]",
                     f"{delta:+.1f}%", f"{s['b_won']}/{s['pairs']}"))
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                        for c, (cell, w) in enumerate(zip(row, widths))))

    differing = []
    first_metrics, first_digest = runs["a"][0]
    for side in ("a", "b"):
        for metrics, digest in runs[side]:
            differing += [n for n in EXACT_METRICS if n in metrics and
                          metrics[n] != first_metrics.get(n)]
            differing += [f"digest.{k}" for k in DIGEST_KEYS
                          if digest.get(k) != first_digest.get(k)]
    digests = " ".join(f"{k}={first_digest.get(k, '?')}" for k in DIGEST_KEYS)
    if differing:
        print("NOT bit-identical: " + ", ".join(sorted(set(differing))))
        return 1
    print(f"bit-identical across all {2 * args.pairs} runs: "
          f"{', '.join(EXACT_METRICS)}; {digests}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
