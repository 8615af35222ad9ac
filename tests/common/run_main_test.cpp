// common::run_main, every binary's entry point: the body's exit code passes
// through; a malformed flag (UsageError) exits 2 and any other exception 1,
// each with one "<program>: <what>" line on stderr — never std::terminate.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flags.hpp"

namespace pas::common {
namespace {

/// run_main over `args` (argv[0] = "/path/to/prog"); stderr captured.
int run(std::vector<const char*> args, const std::function<int(const Flags&)>& body,
        std::string* err = nullptr) {
  args.insert(args.begin(), "/path/to/prog");
  ::testing::internal::CaptureStderr();
  const int code = run_main(static_cast<int>(args.size()), args.data(), body);
  const std::string text = ::testing::internal::GetCapturedStderr();
  if (err != nullptr) *err = text;
  return code;
}

TEST(RunMainTest, ReturnsTheBodysCode) {
  std::string err;
  EXPECT_EQ(run({"--n=3"}, [](const Flags& f) { return static_cast<int>(f.get_int("n", 0)); },
                &err),
            3);
  EXPECT_EQ(err, "");
}

TEST(RunMainTest, MalformedFlagExitsTwo) {
  const auto count = [](const char* key) {
    return [key](const Flags& f) { return static_cast<int>(f.get_count(key, 1)); };
  };
  std::string err;
  EXPECT_EQ(run({"--hosts=4x"}, count("hosts"), &err), 2);
  EXPECT_EQ(err, "prog: --hosts=4x: trailing junk after integer: 'x'\n");
  EXPECT_EQ(run({"--seed=-1"}, count("seed")), 2);
  EXPECT_EQ(run({"--rate=abc"}, [](const Flags& f) { return f.get_double("rate", 0) > 0 ? 0 : 3; }),
            2);
}

TEST(RunMainTest, UsageErrorIsARuntimeError) {
  // Callers that catch std::runtime_error (the REPL's per-command guard)
  // still see a malformed flag.
  EXPECT_THROW(throw UsageError("x"), std::runtime_error);
  std::string err;
  EXPECT_EQ(run({}, [](const Flags&) -> int { throw UsageError("cannot open in.json"); }, &err),
            2);
  EXPECT_EQ(err, "prog: cannot open in.json\n");
}

TEST(RunMainTest, AnyOtherExceptionExitsOne) {
  std::string err;
  EXPECT_EQ(run({}, [](const Flags&) -> int { throw std::logic_error("broken"); }, &err), 1);
  EXPECT_EQ(err, "prog: broken\n");
  EXPECT_EQ(run({}, [](const Flags&) -> int { throw 42; }, &err), 1);
  EXPECT_EQ(err, "prog: unknown exception\n");
}

}  // namespace
}  // namespace pas::common
