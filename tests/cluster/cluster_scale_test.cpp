// Scale differential tests: the determinism guarantees the small-fleet
// fuzz suites pin (fast path ≡ reference loop, parallel ≡ serial at any
// thread count) must survive a fleet two orders of magnitude larger —
// 512 hosts — where the lazy-slot topology and the memoized planner
// actually carry the load. One seeded scenario, sized up through the
// draw_scenario size knob, run once per configuration and compared byte
// for byte.
//
// Registered with the "slow" ctest label (ctest -L slow) — these runs
// dominate the suite's wall time by design.
#include <gtest/gtest.h>

#include <string>

#include "cluster_fuzz_common.hpp"

namespace pas::cluster {
namespace {

using common::seconds;
using fuzz::draw_scenario;
using fuzz::expect_engines_identical;
using fuzz::ScenarioSize;
using fuzz::ScenarioSpec;

/// The shared 512-host scenario: a hetero fleet (the catalog mixes memory
/// sizes and power models, so efficient-first packing has real work to do)
/// with ~3 VMs per host and a short horizon — the scale is the point, not
/// the duration.
ScenarioSpec scale_spec(std::uint64_t seed) {
  ScenarioSize size;
  size.hosts = 512;
  size.vms = 1536;
  ScenarioSpec s = draw_scenario(seed, /*hetero=*/true, /*trace_mix=*/false, size);
  s.horizon = seconds(20);
  s.trace_stride = seconds(5);
  s.use_manager = true;
  s.mgr = ClusterManagerConfig{};
  s.mgr.period = seconds(5);
  s.mgr.max_migrations_per_tick = 8;
  return s;
}

TEST(ClusterScaleTest, SizeKnobPreservesHistoricalPrefix) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool hetero : {false, true}) {
      const ScenarioSpec base = draw_scenario(seed, hetero, /*trace_mix=*/true);
      ScenarioSize size;
      size.hosts = 64;
      size.vms = 100;
      const ScenarioSpec big = draw_scenario(seed, hetero, /*trace_mix=*/true, size);
      const std::string ctx =
          "seed " + std::to_string(seed) + (hetero ? " hetero" : "");

      ASSERT_EQ(big.hosts, base.hosts + size.hosts) << ctx;
      ASSERT_EQ(big.vms.size(), base.vms.size() + size.vms) << ctx;
      ASSERT_EQ(big.sched, base.sched) << ctx;
      ASSERT_EQ(big.horizon, base.horizon) << ctx;
      ASSERT_EQ(big.use_manager, base.use_manager) << ctx;
      ASSERT_EQ(big.mgr.period, base.mgr.period) << ctx;
      ASSERT_EQ(big.script.size(), base.script.size()) << ctx;
      for (std::size_t i = 0; i < base.script.size(); ++i) {
        ASSERT_EQ(big.script[i].at, base.script[i].at) << ctx << " move " << i;
        ASSERT_EQ(big.script[i].vm, base.script[i].vm) << ctx << " move " << i;
        ASSERT_EQ(big.script[i].to, base.script[i].to) << ctx << " move " << i;
      }
      ASSERT_EQ(big.classes.size(), hetero ? big.hosts : 0u) << ctx;
      for (std::size_t h = 0; h < base.classes.size(); ++h)
        ASSERT_EQ(big.classes[h].name, base.classes[h].name) << ctx << " host " << h;
      for (std::size_t i = 0; i < base.vms.size(); ++i) {
        ASSERT_EQ(big.vms[i].kind, base.vms[i].kind) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].credit, base.vms[i].credit) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].memory_mb, base.vms[i].memory_mb) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].home, base.vms[i].home) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].seed, base.vms[i].seed) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].from, base.vms[i].from) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].until, base.vms[i].until) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].rate, base.vms[i].rate) << ctx << " vm " << i;
        ASSERT_EQ(big.vms[i].trace_points.size(), base.vms[i].trace_points.size())
            << ctx << " vm " << i;
      }
      // Extension VMs may home anywhere in the enlarged fleet.
      for (std::size_t i = base.vms.size(); i < big.vms.size(); ++i)
        ASSERT_LT(big.vms[i].home, big.hosts) << ctx << " vm " << i;
    }
  }
}

TEST(ClusterScaleTest, FastPathMatchesReferenceAt512Hosts) {
  const auto runs = expect_engines_identical(scale_spec(3), 3, {true, 1}, {{false, 1}});
  ASSERT_EQ(runs.size(), 2u);
  const Cluster* fast = runs[0].get();
  const Cluster* reference = runs[1].get();

  // Vacuity guard: the manager must have actually consolidated the fleet.
  ASSERT_NE(fast->manager(), nullptr);
  EXPECT_GT(fast->manager()->migrations_issued(), 0u);
  // The memo ran both ways — plans recomputed on live-set changes and
  // reused otherwise — and its ledger is engine-independent.
  const PlanStats& fs = fast->manager()->book_stats();
  const PlanStats& rs = reference->manager()->book_stats();
  EXPECT_GT(fs.full_rebuilds, 0u);
  EXPECT_GT(fs.cached_plans, 0u);
  EXPECT_EQ(fs.full_rebuilds, rs.full_rebuilds);
  EXPECT_EQ(fs.cached_plans, rs.cached_plans);
  EXPECT_EQ(fs.vms_scanned, rs.vms_scanned);
}

TEST(ClusterScaleTest, ParallelDriversMatchSerialAt512Hosts) {
  (void)expect_engines_identical(scale_spec(3), 3, {true, 1}, {{true, 2}, {true, 4}});
}

}  // namespace
}  // namespace pas::cluster
