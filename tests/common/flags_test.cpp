#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pas::common {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return Flags{static_cast<int>(v.size()), v.data()};
}

TEST(FlagsTest, KeyValue) {
  const Flags f = make({"--csv=out.csv", "--n=5"});
  EXPECT_EQ(f.get_or("csv", ""), "out.csv");
  EXPECT_EQ(f.get_int("n", 0), 5);
}

TEST(FlagsTest, BareSwitch) {
  const Flags f = make({"--verbose"});
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_FALSE(f.has("quiet"));
  EXPECT_EQ(f.get("verbose").value(), "");
}

TEST(FlagsTest, Positionals) {
  const Flags f = make({"alpha", "--x=1", "beta"});
  ASSERT_EQ(f.positionals().size(), 2u);
  EXPECT_EQ(f.positionals()[0], "alpha");
  EXPECT_EQ(f.positionals()[1], "beta");
}

TEST(FlagsTest, Defaults) {
  const Flags f = make({});
  EXPECT_EQ(f.get_or("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(f.get_int("missing", -3), -3);
  EXPECT_FALSE(f.get("missing").has_value());
}

TEST(FlagsTest, DoubleParsing) {
  const Flags f = make({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(f.get_double("ratio", 0.0), 0.75);
}

TEST(FlagsTest, ValueWithEquals) {
  const Flags f = make({"--expr=a=b"});
  EXPECT_EQ(f.get_or("expr", ""), "a=b");
}

// Strict numeric parsing: a present flag must be a fully-formed number.
// `--threads=4x` used to silently parse as 4 (strtod/strtol with a null
// endptr); now it throws with the offending flag spelled back.

TEST(FlagsTest, RejectsTrailingJunkInt) {
  const Flags f = make({"--threads=4x"});
  try {
    (void)f.get_int("threads", 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads=4x"), std::string::npos);
  }
}

TEST(FlagsTest, RejectsTrailingJunkDouble) {
  const Flags f = make({"--rate=2.5GB"});
  EXPECT_THROW((void)f.get_double("rate", 0.0), std::runtime_error);
}

TEST(FlagsTest, RejectsEmptyNumericValue) {
  // `--scale-hosts=` and a bare `--scale-hosts` both carry an empty value:
  // fine for has(), an error for a numeric getter (the old code silently
  // returned the default, letting a typo disable a CI gate).
  const Flags eq = make({"--scale-hosts="});
  EXPECT_THROW((void)eq.get_int("scale-hosts", 0), std::runtime_error);
  const Flags bare = make({"--scale-hosts"});
  EXPECT_TRUE(bare.has("scale-hosts"));
  EXPECT_THROW((void)bare.get_int("scale-hosts", 0), std::runtime_error);
  EXPECT_THROW((void)bare.get_double("scale-hosts", 0.0), std::runtime_error);
}

TEST(FlagsTest, RejectsNonNumber) {
  const Flags f = make({"--n=abc"});
  EXPECT_THROW((void)f.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)f.get_double("n", 0.0), std::runtime_error);
}

TEST(FlagsTest, AcceptsWellFormedNumbers) {
  const Flags f = make({"--a=-12", "--b=1e3", "--c=0.5", "--d=+7"});
  EXPECT_EQ(f.get_int("a", 0), -12);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(f.get_double("c", 0.0), 0.5);
  EXPECT_EQ(f.get_int("d", 0), 7);
  // Missing flags still fall back to the default without throwing.
  EXPECT_EQ(f.get_int("absent", 9), 9);
}

// Count and seed flags: a negative value is rejected with the flag spelled
// back, instead of wrapping to ~2^64 through a size_t cast.

TEST(FlagsTest, CountAcceptsNonNegative) {
  const Flags f = make({"--threads=4", "--seed=0", "--hosts=+8"});
  EXPECT_EQ(f.get_count("threads", 1), 4u);
  EXPECT_EQ(f.get_count("seed", 17), 0u);
  EXPECT_EQ(f.get_count("hosts", 1), 8u);
  EXPECT_EQ(f.get_count("absent", 64), 64u);
}

TEST(FlagsTest, CountRejectsNegative) {
  const Flags f = make({"--threads=-1"});
  try {
    (void)f.get_count("threads", 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("--threads=-1"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("non-negative"), std::string::npos) << e.what();
  }
}

TEST(FlagsTest, CountStaysStrict) {
  const Flags f = make({"--threads=4x", "--hosts=", "--vms=99999999999999999999"});
  EXPECT_THROW((void)f.get_count("threads", 1), std::runtime_error);
  EXPECT_THROW((void)f.get_count("hosts", 8), std::runtime_error);
  EXPECT_THROW((void)f.get_count("vms", 64), std::runtime_error);
}

}  // namespace
}  // namespace pas::common
