// Cross-shard migration pricing: every federation flight runs wan_link()'s
// pre-copy schedule, and the class-aware surcharges apply only to
// cross-class flights.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/migration.hpp"
#include "common/units.hpp"
#include "federation/federation.hpp"
#include "federation/link_model.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::fed {
namespace {

using common::seconds;
using common::SimTime;

TEST(LinkModelTest, ClassSurchargesApplyOnlyAcrossClasses) {
  platform::HostClass xeon;
  xeon.name = "xeon";
  platform::HostClass optiplex;
  optiplex.name = "optiplex";
  const LinkModel wan = wan_link();
  EXPECT_DOUBLE_EQ(wan.dirty_factor(xeon, xeon), 1.0);
  EXPECT_EQ(wan.switch_penalty(xeon, xeon), SimTime{});
  EXPECT_DOUBLE_EQ(wan.dirty_factor(xeon, optiplex), wan.cross_class_dirty_factor);
  EXPECT_EQ(wan.switch_penalty(xeon, optiplex), wan.cross_class_switch_latency);
  // Direction-blind: the surcharge models crossing classes, not which way.
  EXPECT_DOUBLE_EQ(wan.dirty_factor(optiplex, xeon), wan.cross_class_dirty_factor);
}

// --- federation-level flight pricing -----------------------------------

/// A minimal shard: two hosts of one class, one idle 512 MB guest homed on
/// host 0, no manager — every flight below is scripted, so the recorded
/// schedule is exactly the pure cost model's.
std::unique_ptr<cluster::Cluster> mini_shard(const char* class_name) {
  cluster::ClusterConfig cc;
  platform::HostClass hc;
  hc.name = class_name;
  hc.memory_mb = 8192.0;
  cc.host_classes = {hc, hc};
  cc.host.trace_stride = SimTime{};  // pure accounting
  auto shard = std::make_unique<cluster::Cluster>(std::move(cc));
  cluster::ClusterVmConfig vc;
  vc.vm.name = "guest";
  vc.vm.credit = 10.0;
  vc.memory_mb = 512.0;
  vc.dirty_mb_per_s = 30.0;
  shard->add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 0);
  return shard;
}

Federation two_shard_fed(const char* class_a, const char* class_b) {
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(mini_shard(class_a));
  shards.push_back(mini_shard(class_b));
  return Federation{FederationConfig{}, std::move(shards)};
}

TEST(FederationLinkTest, SameClassWanFlightMatchesPurePlan) {
  Federation fed = two_shard_fed("host", "host");
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1).ok());
  EXPECT_TRUE(fed.in_cross_shard_flight(0));
  fed.run_until(seconds(60));

  const cluster::MigrationPlan plan =
      cluster::plan_migration(512.0, 30.0, wan_link().migration);
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  const FedMigrationRecord& rec = fed.cross_shard_records().front();
  EXPECT_EQ(rec.from_shard, 0u);
  EXPECT_EQ(rec.to_shard, 1u);
  EXPECT_EQ(rec.record.start, seconds(5));
  EXPECT_EQ(rec.record.stop, seconds(5) + plan.precopy_duration);
  // Same platform class on both ends: the pure plan, no surcharge.
  EXPECT_EQ(rec.record.downtime, plan.downtime);
  EXPECT_EQ(rec.record.end, rec.record.stop + plan.downtime);
  EXPECT_EQ(rec.record.outcome, cluster::MigrationOutcome::kCompleted);
  // Global host ids on the record: shard 1's host 1 is federation host 3.
  EXPECT_EQ(rec.record.from, fed.global_host_id(0, 0));
  EXPECT_EQ(rec.record.to, fed.global_host_id(1, 1));

  // The guest actually moved: departed at the source, running at the
  // destination, the registry pointing at its new shard, and the pause
  // charged to the destination's SLA.
  EXPECT_EQ(fed.shard(0).vm_state(0), cluster::VmState::kDeparted);
  const FedVmRef loc = fed.locate(0);
  EXPECT_EQ(loc.shard, 1u);
  EXPECT_EQ(fed.shard(1).vm_state(loc.vm), cluster::VmState::kRunning);
  EXPECT_EQ(fed.shard(1).residence(loc.vm), 1u);
  EXPECT_EQ(fed.shard(1).sla().violation_time(loc.vm), plan.downtime);
  EXPECT_FALSE(fed.in_cross_shard_flight(0));
}

TEST(FederationLinkTest, CrossClassFlightPaysDirtyAndSwitchSurcharge) {
  Federation fed = two_shard_fed("xeon", "optiplex");
  const LinkModel wan = wan_link();
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1).ok());
  fed.run_until(seconds(60));

  // The engine saw the stretched dirty rate AND the extra switch pause.
  const cluster::MigrationPlan plan = cluster::plan_migration(
      512.0, 30.0 * wan.cross_class_dirty_factor, wan.migration);
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  const cluster::MigrationRecord& rec = fed.cross_shard_records().front().record;
  EXPECT_EQ(rec.stop, seconds(5) + plan.precopy_duration);
  EXPECT_EQ(rec.downtime, plan.downtime + wan.cross_class_switch_latency);
  EXPECT_EQ(rec.end, rec.stop + rec.downtime);

  // Strictly dearer than the same move between same-class shards: more
  // bytes on the wire and a later hand-over. (Downtime alone is NOT
  // monotone in the dirty rate — an extra pre-copy round can shrink the
  // residue — so the cost claim is total transfer and completion time.)
  Federation same = two_shard_fed("xeon", "xeon");
  same.run_until(seconds(5));
  ASSERT_TRUE(same.migrate(0, 0, 1, 1).ok());
  same.run_until(seconds(60));
  ASSERT_EQ(same.cross_shard_records().size(), 1u);
  const cluster::MigrationRecord& cheap = same.cross_shard_records().front().record;
  EXPECT_GT(rec.transferred_mb, cheap.transferred_mb);
  EXPECT_GT(rec.end, cheap.end);
}

TEST(FederationLinkTest, FlightGuardsRefuseConflictingMoves) {
  Federation fed = two_shard_fed("host", "host");
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1).ok());
  // In flight: neither tier may touch the VM until the link is done.
  EXPECT_FALSE(fed.migrate(0, 0, 1, 0).ok()) << "double cross-shard move";
  EXPECT_FALSE(fed.shard(0).apply(cluster::Command::migrate(0, 1)).ok())
      << "shard-local move of a fed-locked VM";
  EXPECT_TRUE(fed.shard(0).federation_locked(0));
  fed.run_until(seconds(60));
  // Completed: the source-side id is departed — also not migratable.
  EXPECT_FALSE(fed.migrate(0, 0, 1, 0).ok());
}

}  // namespace
}  // namespace pas::fed
