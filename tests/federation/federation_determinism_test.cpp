// Federation determinism suite: the cluster's byte-identity contract,
// lifted to the sharded tier. A federated run must be byte-identical
// across the fast/slow host paths and every executor thread count (the
// coordinator serializes all cross-shard state; threads are wall-clock
// only), and a single-shard federation must degrade to EXACTLY the bare
// hosting cluster — same trace rows, same energy bits — because it
// schedules no federation events at all.
#include <gtest/gtest.h>

#include <memory>

#include "check/divergence.hpp"
#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "federation/federation.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"

namespace pas::fed {
namespace {

using common::seconds;

scenario::FederationScenarioConfig fed_config(std::size_t shards, bool fast_path,
                                              std::size_t threads) {
  scenario::FederationScenarioConfig cfg;
  // 24 VMs: the quarter-skew (6 tenants) opens a ~0.2 reserved-memory
  // utilization gap — comfortably above the planner's 0.10 threshold, so
  // the multi-shard suites exercise real cross-shard flights. (16 VMs
  // would leave the gap at ~0.094: a federation that never migrates.)
  cfg.base.hosts = 4;
  cfg.base.vms = 24;
  cfg.base.horizon = seconds(600);
  cfg.base.seed = 17;
  cfg.base.fast_path = fast_path;
  cfg.base.threads = threads;
  cfg.shards = shards;
  return cfg;
}

TEST(FederationDeterminismTest, SingleShardDegradesToBareCluster) {
  // K = 1: the federation schedules nothing, so the run IS the bare
  // cluster's run — byte for byte, energy bits included.
  const scenario::FederationScenarioConfig cfg = fed_config(1, true, 1);
  std::unique_ptr<cluster::Cluster> bare = scenario::build_hosting_cluster(cfg.base);
  std::unique_ptr<Federation> fed = scenario::build_federation(cfg);
  bare->run_until(cfg.base.horizon);
  fed->run_until(cfg.base.horizon);
  EXPECT_EQ(fed->planner_ticks(), 0u);
  EXPECT_TRUE(fed->cross_shard_records().empty());
  EXPECT_EQ(check::first_divergence(*bare, fed->shard(0)), "") << "K=1 vs bare";
}

TEST(FederationDeterminismTest, ByteIdenticalAcrossPathsAndThreads) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<Federation> ref =
        scenario::build_federation(fed_config(shards, true, 1));
    ref->run_until(seconds(600));
    struct Variant {
      bool fast_path;
      std::size_t threads;
      const char* name;
    };
    for (const Variant v : {Variant{false, 1, "slow-path"}, Variant{true, 2, "2-thread"},
                            Variant{true, 4, "4-thread"}}) {
      std::unique_ptr<Federation> run =
          scenario::build_federation(fed_config(shards, v.fast_path, v.threads));
      run->run_until(seconds(600));
      ASSERT_EQ(check::first_divergence(*ref, *run), "")
          << "K=" << shards << " " << v.name;
    }
  }
}

TEST(FederationDeterminismTest, SkewedFederationActuallyCrossesLinks) {
  // The scenario exists to exercise the global tier: a federation bench or
  // suite whose census is zero pins nothing. Guard the skew keeps working.
  std::unique_ptr<Federation> fed = scenario::build_federation(fed_config(2, true, 1));
  fed->run_until(seconds(600));
  EXPECT_GE(fed->planner_ticks(), 4u);  // 120 s period over a 600 s horizon
  ASSERT_GE(fed->cross_shard_records().size(), 1u);
  EXPECT_GE(fed->moves_issued(), fed->cross_shard_records().size());
  for (const FedMigrationRecord& rec : fed->cross_shard_records()) {
    EXPECT_EQ(rec.record.outcome, cluster::MigrationOutcome::kCompleted);
    EXPECT_GT(rec.record.downtime, common::SimTime{});
    // Source-side ghost and destination-side guest agree with the ledger
    // (the destination id may itself have departed on a later hop).
    EXPECT_EQ(fed->shard(rec.from_shard).vm_state(rec.src_vm),
              cluster::VmState::kDeparted);
    const cluster::VmState dst_state = fed->shard(rec.to_shard).vm_state(rec.dst_vm);
    EXPECT_TRUE(dst_state == cluster::VmState::kRunning ||
                dst_state == cluster::VmState::kDeparted);
  }
  // The planner moved load from the skewed shard toward the empty one.
  const Federation::ShardLoad l0 = fed->shard_load(0);
  const Federation::ShardLoad l1 = fed->shard_load(1);
  EXPECT_LT(l0.utilization() - l1.utilization(), 0.30)
      << "gap should have narrowed from the skewed start";
}

}  // namespace
}  // namespace pas::fed
