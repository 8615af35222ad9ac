// Chaos fuzz tier: the standing byte-identity guarantee must survive
// injected faults. Every scenario seed of the shared corpus gets a fault
// schedule drawn from the same seed (host crashes, migration aborts, link
// degradation, planner brownouts — fault::draw_fault_plan) and is then run
// on the reference slow-stepped loop, the event-driven fast path, and the
// parallel engine at 2, 4 and hardware threads. All must agree on every
// observable check::first_divergence compares — the fault-path ones
// included (migration outcomes, VM lifecycle states, crash flags,
// recovery events).
//
// On top of identity, every migration record is held to the conservation
// contract per outcome (fuzz::check_conservation); for kLostSourceCrash
// the record is the explicit acknowledgment that the crash (not the
// engine) destroyed the balance.
//
// The scenarios run with the migration link slowed to 25 MB/s (a knob the
// chaos suite alone overrides — scenario draws are byte-unchanged): guest
// memories of 128..1024 MB then spend seconds to minutes in flight, so
// abort instants actually catch pre-copies, crash instants actually catch
// stop-and-copy pauses (exercising kLostSourceCrash), and degraded-link
// windows actually re-plan live rounds. Per-shard vacuity guards assert
// the corpus really exercised each fault path.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "cluster_fuzz_common.hpp"
#include "fault/fault.hpp"

namespace pas::cluster {
namespace {

using fuzz::draw_scenario;
using fuzz::expect_engines_identical;
using fuzz::ScenarioSpec;

fault::FaultConfig chaos_config() {
  fault::FaultConfig cfg;
  cfg.max_crashes = 2;  // capped at hosts − 1 by draw_fault_plan
  cfg.max_migration_aborts = 2;
  cfg.max_link_degrades = 2;
  cfg.max_brownouts = 1;
  cfg.restart_probability = 0.75;
  return cfg;
}

/// What a shard saw across its seeds — for the vacuity guards.
struct ChaosActivity {
  std::size_t crashes = 0;
  fuzz::OutcomeCounts outcomes{};
  std::size_t degrades = 0;
  std::size_t brownout_ticks = 0;
  std::size_t recoveries = 0;
};

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  const fault::FaultConfig chaos = chaos_config();
  ChaosActivity activity;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    ScenarioSpec spec = draw_scenario(seed);
    // Slow link (see the file header): faults must catch migrations in
    // flight, not in the gaps between them.
    spec.migration.link_mb_per_s = 25.0;
    const fault::FaultPlan plan =
        fault::draw_fault_plan(chaos, seed, spec.hosts, spec.horizon);

    std::vector<fuzz::Engine> engines = fuzz::parallel_engines();
    engines.insert(engines.begin(), {true, 1});
    const auto runs = expect_engines_identical(spec, seed, {false, 1}, engines, [&](Cluster& c) {
      c.install_faults(std::make_unique<fault::FaultInjector>(plan));
    });
    if (runs.empty()) return;
    const Cluster* slow = runs.front().get();

    const fuzz::OutcomeCounts outcomes = fuzz::check_conservation(*slow, seed);
    for (std::size_t k = 0; k < outcomes.size(); ++k) activity.outcomes[k] += outcomes[k];
    activity.crashes += slow->crashed_count();
    activity.recoveries += slow->recoveries().size();
    if (slow->faults() != nullptr)
      activity.degrades += slow->faults()->link_degrades_fired();
    if (slow->manager() != nullptr)
      activity.brownout_ticks += slow->manager()->ticks_skipped();
  }

  // Vacuity guards: a chaos tier that never crashes a host, never catches
  // a migration mid-flight and never recovers a VM is testing nothing.
  // Thresholds are per-shard floors well under the deterministic actuals.
  EXPECT_GT(activity.crashes, 0u) << "shard " << first << ": no host ever crashed";
  using enum MigrationOutcome;
  const auto seen = [&](MigrationOutcome o) { return activity.outcomes[static_cast<int>(o)]; };
  EXPECT_GT(seen(kAbortedPrecopy) + seen(kAbortedStopCopy) + seen(kLostSourceCrash), 0u)
      << "shard " << first << ": no migration was ever interrupted";
  EXPECT_GT(activity.degrades, 0u) << "shard " << first << ": no link ever degraded";
  EXPECT_GT(activity.recoveries, 0u) << "shard " << first << ": no VM ever recovered";
  EXPECT_GT(seen(kCompleted), 0u)
      << "shard " << first << ": no migration ever completed under chaos";
}

// The same 100-seed corpus as the other differential suites, sharded for
// ctest parallelism and narrow failure ranges.
TEST(ClusterChaosTest, FaultsIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterChaosTest, FaultsIdenticalSeeds25to49) { run_seed_range(25, 25); }
TEST(ClusterChaosTest, FaultsIdenticalSeeds50to74) { run_seed_range(50, 25); }
TEST(ClusterChaosTest, FaultsIdenticalSeeds75to99) { run_seed_range(75, 25); }

}  // namespace
}  // namespace pas::cluster
