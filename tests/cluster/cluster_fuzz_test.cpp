// Randomized differential test: the cluster layer must keep PR 1's
// fast-path equivalence guarantee as scenarios grow hosts, migrations and
// an online manager. Each seeded scenario is built twice — once with the
// event-driven fast path, once with the reference slow-stepped loop — and
// every observable must match byte for byte: per-host traces (every row,
// every column), integer accounting (busy/work/wanting per slot, idle
// time, frequency transitions), migration records (timelines, rounds,
// credit carried), residencies and cluster SLA counters. Scenario shapes
// cover random VM counts and workload mixes, random migration cadences
// (manager-driven and scripted), off-grid monitor/trace/manager periods,
// and all three schedulers.
//
// The scenario generator and comparison live in cluster_fuzz_common.hpp,
// shared with cluster_parallel_test.cpp (parallel ≡ serial over the same
// seeds).
#include <gtest/gtest.h>

#include "cluster_fuzz_common.hpp"

namespace pas::cluster {
namespace {

using fuzz::draw_scenario;
using fuzz::expect_engines_identical;

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  std::size_t total_migrations = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const auto runs = expect_engines_identical(draw_scenario(seed), seed, {false, 1}, {{true, 1}});
    if (runs.empty()) return;
    total_migrations += runs.front()->migrations().size();
  }
  // Guard against a vacuous shard: the random scenarios must actually
  // exercise the machinery under test.
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
}

// 100 scenarios, sharded so a failure names a narrow seed range and ctest
// can parallelize the work.
TEST(ClusterFuzzTest, FastPathIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds25to49) { run_seed_range(25, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds50to74) { run_seed_range(50, 25); }
TEST(ClusterFuzzTest, FastPathIdenticalSeeds75to99) { run_seed_range(75, 25); }

}  // namespace
}  // namespace pas::cluster
