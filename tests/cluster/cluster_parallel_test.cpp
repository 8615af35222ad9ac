// The parallel ≡ serial determinism harness: the pooled cluster driver
// (ExecutionPolicy::threads > 1) must be byte-identical to the serial
// engine — traces, migration records, SLA counters, energy totals — at
// ANY thread count, because worker threads only change *where* a host
// segment executes, never *what* it computes (the no-shared-state
// contract hv::Host enforces).
//
// Sweep: the same 100 seeded fuzz scenarios as cluster_fuzz_test.cpp, each
// run on the serial driver (threads = 1, the reference) and re-run with
// threads in {2, 4, hardware}, deduplicated. Together with the fuzz test
// (slow ≡ fast at threads = 1) this closes the square: every (fast-path,
// thread-count) combination produces the one canonical result.
#include <gtest/gtest.h>

#include <vector>

#include "cluster_fuzz_common.hpp"

namespace pas::cluster {
namespace {

using fuzz::draw_scenario;
using fuzz::expect_engines_identical;
using fuzz::parallel_engines;

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  std::size_t total_migrations = 0;
  std::uint64_t total_collapsed = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const auto runs =
        expect_engines_identical(draw_scenario(seed), seed, {true, 1}, parallel_engines());
    if (runs.empty()) return;
    // The over-cap refill collapse is host-local work, so how much of it
    // happens cannot depend on which thread stepped the host.
    for (const auto& parallel : runs)
      EXPECT_EQ(runs.front()->engine_stats().refills_collapsed,
                parallel->engine_stats().refills_collapsed)
          << "seed " << seed << ", " << parallel->execution_threads() << " threads";
    total_migrations += runs.front()->migrations().size();
    total_collapsed += runs.front()->engine_stats().refills_collapsed;
  }
  // Same vacuity guard as the fuzz test: the sweep must see real
  // migrations, manager ticks and SLA traffic, not idle fleets.
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
  EXPECT_GT(total_collapsed, 0u) << "no over-cap host ever collapsed a refill";
}

TEST(ClusterParallelTest, ParallelIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds25to49) { run_seed_range(25, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds50to74) { run_seed_range(50, 25); }
TEST(ClusterParallelTest, ParallelIdenticalSeeds75to99) { run_seed_range(75, 25); }

// The parallel driver also reproduces the reference slow-stepped loop:
// fast path off + 4 threads vs the fuzz test's canonical slow serial run.
// A narrower sweep (first 10 seeds) — the full slow runs are the pricey
// side, and the fast-path equivalence is already pinned above.
TEST(ClusterParallelTest, SlowLoopParallelIdenticalSeeds0to9) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto runs = expect_engines_identical(draw_scenario(seed), seed, {false, 1}, {{false, 4}});
    if (runs.empty()) return;
    // The reference loop steps every refill; it never collapses one.
    for (const auto& run : runs)
      EXPECT_EQ(run->engine_stats().refills_collapsed, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pas::cluster
