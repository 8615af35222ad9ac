// Heterogeneous-fleet determinism: mixed platform classes (different
// ladders, power models, memory sizes, NUMA layouts per host) must not
// cost a single byte of reproducibility. Same harness as the uniform
// suites, with draw_scenario(seed, /*hetero=*/true) assigning each host a
// class from the platform catalog:
//
//   * parallel ≡ serial at threads in {1, 2, 4, hardware} (contract 3),
//   * fast path ≡ reference slow-stepped loop (contract 1),
//
// both swept over seeded random mixed fleets with managers (efficient-
// first FFD against per-class HostSpecs), live migrations between hosts of
// DIFFERENT classes, VOVO and per-host PAS on per-class ladders — the xeon
// class's cf < 1 states included.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_engines_identical;
using fuzz::parallel_engines;
using fuzz::ScenarioSpec;

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  std::size_t total_migrations = 0;
  std::size_t mixed_scenarios = 0;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, /*hetero=*/true);
    ASSERT_EQ(spec.classes.size(), spec.hosts) << "seed " << seed;
    std::set<std::string> class_names;
    for (const auto& c : spec.classes) class_names.insert(c.name);
    if (class_names.size() > 1) ++mixed_scenarios;

    const auto runs = expect_engines_identical(spec, seed, {true, 1}, parallel_engines());
    if (runs.empty()) return;
    total_migrations += runs.front()->migrations().size();
  }
  // Vacuity guards: the sweep must exercise genuinely mixed fleets with
  // real migrations, not uniform or idle ones.
  EXPECT_GT(mixed_scenarios, count / 2) << "catalog draws barely mixed the fleets";
  EXPECT_GT(total_migrations, count / 2) << "too few migrations across seeds";
}

TEST(ClusterHeteroTest, ParallelIdenticalSeeds0to24) { run_seed_range(0, 25); }
TEST(ClusterHeteroTest, ParallelIdenticalSeeds25to49) { run_seed_range(25, 25); }

// Contract 1 on mixed fleets: the event-driven fast path reproduces the
// reference slow-stepped loop byte for byte when every host is a
// different machine.
TEST(ClusterHeteroTest, FastPathIdenticalSeeds0to14) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed, /*hetero=*/true);
    if (expect_engines_identical(spec, seed, {false, 1}, {{true, 1}}).empty()) return;
  }
}

// The class list is the fleet: an empty one is refused.
TEST(ClusterHeteroTest, RejectsContradictoryUniformScalars) {
  ClusterConfig cc;
  EXPECT_THROW((void)Cluster{std::move(cc)}, std::invalid_argument);
}

// The per-host classes really land on the hosts: ladders and memory match
// the drawn class, and the manager's planner sees the per-class memory
// (cluster.host_memory_mb) rather than one template scalar.
TEST(ClusterHeteroTest, HostsBuiltFromTheirClasses) {
  const ScenarioSpec spec = draw_scenario(7, /*hetero=*/true);
  auto cluster = build_cluster(spec, /*fast_path=*/true, /*threads=*/1);
  for (HostId h = 0; h < cluster->host_count(); ++h) {
    const platform::HostClass& cls = cluster->host_class(h);
    EXPECT_EQ(cls.name, spec.classes[h].name) << "host " << h;
    ASSERT_EQ(cluster->host(h).cpu().ladder().size(), cls.ladder.size()) << "host " << h;
    for (std::size_t i = 0; i < cls.ladder.size(); ++i) {
      EXPECT_EQ(cluster->host(h).cpu().ladder().at(i).freq, cls.ladder.at(i).freq)
          << "host " << h << " state " << i;
      EXPECT_EQ(cluster->host(h).cpu().ladder().at(i).cf, cls.ladder.at(i).cf)
          << "host " << h << " state " << i;
    }
    EXPECT_EQ(cluster->host_memory_mb(h), cls.memory_mb) << "host " << h;
  }
}

// Orphan recovery on a mixed fleet: a crashed host's VM restarts on the
// first live host with room in the manager's candidate order — ascending
// packing_cost under efficient_first (ties by id), plain ascending id
// without it. Fleet: the cheap elite hosts are 0 (crashes, holding the
// orphan), 3 (full) and 4; 1 is an optiplex and 2 a xeon, both with room.
HostId restart_target(bool efficient_first) {
  ClusterConfig cc;
  cc.host_classes = {platform::elite_8300(), platform::optiplex_755(),
                     platform::xeon_e5_2620(), platform::elite_8300(),
                     platform::elite_8300()};
  ClusterVmConfig orphan;
  orphan.vm.name = "orphan";
  orphan.vm.credit = 10.0;
  orphan.memory_mb = 1000.0;
  ClusterVmConfig filler = orphan;
  filler.vm.name = "filler";
  filler.memory_mb = 7500.0;  // leaves 692 MB on an 8 GB elite
  Cluster cluster(std::move(cc));
  const GlobalVmId vm = cluster.add_vm(orphan, std::make_unique<wl::IdleGuest>(), 0);
  (void)cluster.add_vm(filler, std::make_unique<wl::IdleGuest>(), 3);
  ClusterManagerConfig mc;
  mc.period = common::seconds(5);
  mc.consolidate = false;  // recovery alone decides the placement
  mc.efficient_first = efficient_first;
  cluster.install_manager(std::make_unique<ClusterManager>(mc));

  cluster.run_until(common::seconds(2));
  EXPECT_TRUE(cluster.apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  cluster.run_until(common::seconds(5));
  EXPECT_EQ(cluster.recoveries().size(), 1u);
  EXPECT_EQ(cluster.vm_state(vm), VmState::kRunning);
  return cluster.residence(vm);
}

TEST(ClusterHeteroTest, OrphanRestartsOnCheapestLiveHostWithRoom) {
  const auto cost = [](const platform::HostClass& c) {
    return consolidation::packing_cost(platform::to_host_spec(c));
  };
  // The fleet above is only discriminating if elite is the cheapest class.
  ASSERT_LT(cost(platform::elite_8300()), cost(platform::xeon_e5_2620()));
  ASSERT_LT(cost(platform::xeon_e5_2620()), cost(platform::optiplex_755()));

  EXPECT_EQ(restart_target(/*efficient_first=*/true), 4u)
      << "cheapest live host with room (0 crashed, 3 full)";
  EXPECT_EQ(restart_target(/*efficient_first=*/false), 1u)
      << "lowest live id with room";
}

}  // namespace
}  // namespace pas::cluster
