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

#include <algorithm>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "common/thread_pool.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

/// {2, 4, hardware} with duplicates and the serial case removed (on a
/// 2-core box hardware == 2; threads == 1 IS the reference run).
std::vector<std::size_t> sweep_thread_counts() {
  std::vector<std::size_t> counts{2, 4, common::ThreadPool::hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  counts.erase(std::remove(counts.begin(), counts.end(), std::size_t{1}), counts.end());
  return counts;
}

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  const std::vector<std::size_t> thread_counts = sweep_thread_counts();
  std::size_t total_migrations = 0;
  std::uint64_t total_collapsed = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed);
    auto serial = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
    run_spec(*serial, spec);
    for (const std::size_t threads : thread_counts) {
      auto parallel = build_cluster(spec, /*fast_path=*/true, threads);
      run_spec(*parallel, spec);
      expect_identical(*serial, *parallel, seed,
                       "serial vs " + std::to_string(threads) + " threads");
      if (::testing::Test::HasFatalFailure()) return;
      // The over-cap refill collapse is host-local work, so how much of it
      // happens cannot depend on which thread stepped the host.
      EXPECT_EQ(serial->engine_stats().refills_collapsed,
                parallel->engine_stats().refills_collapsed)
          << "seed " << seed << ", " << threads << " threads";
    }
    total_migrations += serial->migrations().size();
    total_collapsed += serial->engine_stats().refills_collapsed;
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
    const ScenarioSpec spec = draw_scenario(seed);
    auto serial = build_cluster(spec, /*fast_path=*/false, /*threads=*/1);
    auto parallel = build_cluster(spec, /*fast_path=*/false, /*threads=*/4);
    run_spec(*serial, spec);
    run_spec(*parallel, spec);
    expect_identical(*serial, *parallel, seed, "slow serial vs slow 4-thread");
    if (::testing::Test::HasFatalFailure()) return;
    // The reference loop steps every refill; it never collapses one.
    EXPECT_EQ(serial->engine_stats().refills_collapsed, 0u) << "seed " << seed;
    EXPECT_EQ(parallel->engine_stats().refills_collapsed, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pas::cluster
