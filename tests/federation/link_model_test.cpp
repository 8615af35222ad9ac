// Per-link migration pricing: the federation's LinkModel tiers must order
// costs the way the hardware does (intra-rack < cross-rack < WAN), apply
// the class-aware surcharges only to cross-class flights, and keep a
// runtime bandwidth change scoped to ONE link — each link owns its own
// MigrationEngine, so a degraded WAN circuit must never re-plan a flight
// on a different pair's link.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
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

TEST(LinkModelTest, ToStringNamesEveryKind) {
  EXPECT_STREQ(to_string(LinkKind::kIntraRack), "intra_rack");
  EXPECT_STREQ(to_string(LinkKind::kCrossRack), "cross_rack");
  EXPECT_STREQ(to_string(LinkKind::kWan), "wan");
}

TEST(LinkModelTest, PresetsPriceTiersInOrder) {
  // The same guest costs strictly more on each slower tier — both phases.
  const cluster::MigrationPlan intra =
      cluster::plan_migration(1024.0, 40.0, intra_rack_link().migration);
  const cluster::MigrationPlan cross =
      cluster::plan_migration(1024.0, 40.0, cross_rack_link().migration);
  const cluster::MigrationPlan wan =
      cluster::plan_migration(1024.0, 40.0, wan_link().migration);
  EXPECT_LT(intra.precopy_duration, cross.precopy_duration);
  EXPECT_LT(cross.precopy_duration, wan.precopy_duration);
  EXPECT_LT(intra.downtime, cross.downtime);
  EXPECT_LT(cross.downtime, wan.downtime);
}

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
  EXPECT_EQ(fed.link(0, 1).kind, LinkKind::kWan) << "empty racks = all-WAN";
  fed.run_until(seconds(5));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1).ok());
  EXPECT_TRUE(fed.in_cross_shard_flight(0));
  fed.run_until(seconds(60));

  const cluster::MigrationPlan plan =
      cluster::plan_migration(512.0, 30.0, wan_link().migration);
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);
  const FedMigrationRecord& rec = fed.cross_shard_records().front();
  EXPECT_EQ(rec.link, LinkKind::kWan);
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
  const LinkModel& wan = fed.link(0, 1);
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

TEST(FederationLinkTest, RacksSelectCrossRackVersusWan) {
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(mini_shard("host"));
  shards.push_back(mini_shard("host"));
  shards.push_back(mini_shard("host"));
  FederationConfig cfg;
  cfg.racks = {0, 0, 1};  // shards 0 and 1 share a rack; shard 2 is remote
  Federation fed{cfg, std::move(shards)};
  EXPECT_EQ(fed.link(0, 1).kind, LinkKind::kCrossRack);
  EXPECT_EQ(fed.link(0, 2).kind, LinkKind::kWan);
  EXPECT_EQ(fed.link(2, 1).kind, LinkKind::kWan) << "order must not matter";
  EXPECT_THROW((void)fed.link(1, 1), std::invalid_argument);
}

TEST(FederationLinkTest, BandwidthChangeIsScopedToOneLink) {
  // Two concurrent WAN flights out of shard 0, one per link. Degrading
  // link (0,1) mid-flight must lengthen ITS flight and leave the (0,2)
  // flight byte-identical to an undisturbed control federation.
  const auto build = [] {
    std::vector<std::unique_ptr<cluster::Cluster>> shards;
    shards.push_back(mini_shard("host"));
    shards.push_back(mini_shard("host"));
    shards.push_back(mini_shard("host"));
    // A second guest on shard 0 so both flights share a source shard.
    cluster::ClusterVmConfig vc;
    vc.vm.name = "guest2";
    vc.vm.credit = 10.0;
    vc.memory_mb = 512.0;
    vc.dirty_mb_per_s = 30.0;
    shards[0]->add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 1);
    return Federation{FederationConfig{}, std::move(shards)};
  };

  Federation degraded = build();
  Federation control = build();
  for (Federation* fed : {&degraded, &control}) {
    fed->run_until(seconds(5));
    ASSERT_TRUE(fed->migrate(0, 0, 1, 0).ok());  // guest 0 over link (0,1)
    ASSERT_TRUE(fed->migrate(0, 1, 2, 0).ok());  // guest 1 over link (0,2)
    fed->run_until(seconds(6));
  }
  // Mid pre-copy (512 MB at 100 MB/s spans [5, 10.12]): halve ONE link.
  degraded.set_link_bandwidth(0, 1, 50.0);
  degraded.run_until(seconds(120));
  control.run_until(seconds(120));

  ASSERT_EQ(degraded.cross_shard_records().size(), 2u);
  ASSERT_EQ(control.cross_shard_records().size(), 2u);
  const auto find = [](const Federation& fed, ShardId to) {
    for (const FedMigrationRecord& r : fed.cross_shard_records())
      if (r.to_shard == to) return r;
    throw std::logic_error("record not found");
  };
  // The degraded link's flight stretched…
  EXPECT_GT(find(degraded, 1).record.end, find(control, 1).record.end);
  // …and the other link's flight did not move by a single microsecond.
  const cluster::MigrationRecord& a = find(degraded, 2).record;
  const cluster::MigrationRecord& b = find(control, 2).record;
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_DOUBLE_EQ(a.transferred_mb, b.transferred_mb);
}

TEST(FederationLinkTest, SelfLinkBandwidthReachesTheShardEngine) {
  Federation fed = two_shard_fed("host", "host");
  fed.set_link_bandwidth(0, 0, 123.0);
  EXPECT_DOUBLE_EQ(fed.shard(0).link_bandwidth(), 123.0);
  EXPECT_DOUBLE_EQ(fed.shard(1).link_bandwidth(),
                   cluster::MigrationConfig{}.link_mb_per_s)
      << "the other shard's internal link is untouched";
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
