// Operator commands aimed at VMs a cross-shard flight owns. While the
// federation holds a VM — locked on the source shard during pre-copy,
// kDeparted there after the hand-off, kInbound on the destination until
// the attach — the shard's control plane must refuse every command on it
// with a reason that names the federation, and must refuse it BEFORE the
// manager's admission: a refused command draws nothing from the per-tick
// migration budget that planner and operator share. And a shard host crash
// at either end of such a flight must reach it: the flight aborts, both
// shards settle their books, and no guest lands on a dead host.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "common/units.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "federation/federation.hpp"
#include "federation/link_model.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::fed {
namespace {

using common::seconds;

ctl::Task task(std::uint64_t id, long at_s, ctl::TaskKind kind, std::uint32_t vm,
               std::uint32_t host = 0) {
  ctl::Task t;
  t.id = id;
  t.at = seconds(at_s);
  t.kind = kind;
  t.vm = vm;
  t.host = host;
  return t;
}

/// A two-host shard holding `vms` idle 512 MB guests on host 0, managed
/// with a budget of one migration per 60 s period, under `tasks`.
std::unique_ptr<cluster::Cluster> shard(std::size_t vms, std::vector<ctl::Task> tasks) {
  cluster::ClusterConfig cc;
  platform::HostClass cls{"host"};
  cls.memory_mb = 8192.0;
  cc.host_classes = platform::uniform_fleet_classes(2, cls);
  cc.host.trace_stride = common::SimTime{};
  auto c = std::make_unique<cluster::Cluster>(std::move(cc));
  for (std::size_t i = 0; i < vms; ++i) {
    cluster::ClusterVmConfig vc;
    vc.vm.name = "guest";
    vc.vm.credit = 10.0;
    vc.memory_mb = 512.0;
    c->add_vm(std::move(vc), std::make_unique<wl::IdleGuest>(), 0);
  }
  cluster::ClusterManagerConfig mc;
  mc.max_migrations_per_tick = 1;
  c->install_manager(std::make_unique<cluster::ClusterManager>(mc));
  c->install_control(std::make_unique<ctl::ControlPlane>(std::move(tasks)));
  return c;
}

/// "<status>[: <reason>]".
std::string verdict(cluster::Status status, const std::string& reason) {
  std::string line = ctl::to_string(status);
  if (!reason.empty()) line.append(": ").append(reason);
  return line;
}

/// "<id> <status>[: <reason>]" per fired task.
std::vector<std::string> verdicts(const cluster::Cluster& c) {
  std::vector<std::string> out;
  for (const ctl::TaskResult& r : c.control()->results())
    out.push_back(std::to_string(r.id).append(" ").append(verdict(r.status, r.reason)));
  return out;
}

TEST(FederationControlTest, FederationOwnedVmsAreRefusedBeforeAdmission) {
  using ctl::TaskKind;
  // Shard 0 (source): vm 0 leaves for shard 1 at t=105 (WAN pre-copy of
  // 512 MB at 100 MB/s: still in flight until ~115 s); vm 1 stays home.
  std::vector<ctl::Task> source = {
      task(1, 110, TaskKind::kMigrate, 0, 1),  // locked by the flight
      task(2, 111, TaskKind::kMigrate, 1, 1),  // the period's one budget slot
      task(3, 112, TaskKind::kStopVm, 0),
      task(4, 200, TaskKind::kMigrate, 0, 1),  // handed off: departed
      task(5, 201, TaskKind::kStopVm, 0),
      task(6, 202, TaskKind::kStartVm, 0, 0),
  };
  // Shard 1 (destination): the arriving guest registers as vm 1, kInbound
  // until the link's attach.
  std::vector<ctl::Task> destination = {
      task(1, 110, TaskKind::kStopVm, 1),
      task(2, 111, TaskKind::kMigrate, 1, 0),
  };
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(shard(2, std::move(source)));
  shards.push_back(shard(1, std::move(destination)));
  FederationConfig fc;
  fc.planner.period = seconds(100000);  // no global moves but the test's own
  Federation fed(fc, std::move(shards));

  fed.run_until(seconds(105));
  ASSERT_TRUE(fed.migrate(0, 0, 1, 1).ok());
  const cluster::Outcome again = fed.migrate(0, 0, 1, 1);
  EXPECT_EQ(verdict(again.status, again.reason), "rejected: vm 0 locked by a federation flight");
  fed.run_until(seconds(300));
  ASSERT_EQ(fed.cross_shard_records().size(), 1u);

  // The destination shard words a crashed host's refusal.
  ASSERT_TRUE(fed.shard(1).apply(cluster::Command::crash_host(1, true)).ok());
  const cluster::Outcome crashed = fed.migrate(0, 1, 1, 1);
  EXPECT_EQ(verdict(crashed.status, crashed.reason), "superseded: host 1 crashed");

  const std::vector<std::string> expected_source = {
      "1 rejected: vm 0 locked by a federation flight",
      "2 ok",  // the refused task 1 spent none of the budget
      "3 rejected: vm 0 locked by a federation flight",
      "4 superseded: vm 0 departed to another shard",
      "5 superseded: vm 0 departed to another shard",
      "6 superseded: vm 0 departed to another shard",
  };
  EXPECT_EQ(verdicts(fed.shard(0)), expected_source);
  const std::vector<std::string> expected_destination = {
      "1 rejected: vm 1 inbound from another shard",
      "2 rejected: vm 1 inbound from another shard",
  };
  EXPECT_EQ(verdicts(fed.shard(1)), expected_destination);
}

/// Two idle shards (two guests on shard 0, one on shard 1); vm 0 of shard 0
/// pre-copies to shard 1 host 1 from t=105 (512 MB over the WAN: in flight
/// until ~115 s), and the run stops at `stop_at`: 110 s is mid-pre-copy.
std::unique_ptr<Federation> federation_mid_flight(common::SimTime stop_at = seconds(110)) {
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(shard(2, {}));
  shards.push_back(shard(1, {}));
  FederationConfig fc;
  fc.planner.period = seconds(100000);  // no global moves but the test's own
  auto fed = std::make_unique<Federation>(fc, std::move(shards));
  fed->run_until(seconds(105));
  EXPECT_TRUE(fed->migrate(0, 0, 1, 1).ok());
  fed->run_until(stop_at);
  EXPECT_TRUE(fed->in_cross_shard_flight(0));
  return fed;
}

/// The same flight stopped 1 µs into its stop-and-copy pause: the source
/// slot is drained and the guest exists only on the wire.
std::unique_ptr<Federation> federation_in_pause() {
  const cluster::MigrationPlan plan =
      cluster::plan_migration(512.0, cluster::ClusterVmConfig{}.dirty_mb_per_s,
                              wan_link().migration);
  auto fed = federation_mid_flight(seconds(105) + plan.precopy_duration + common::usec(1));
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kDeparted);
  return fed;
}

TEST(FederationControlTest, SourceCrashAbortsTheCrossShardFlight) {
  auto fed = federation_mid_flight();
  ASSERT_TRUE(fed->shard(0).apply(cluster::Command::crash_host(0, true)).ok());
  EXPECT_FALSE(fed->in_cross_shard_flight(0));
  ASSERT_NO_THROW(fed->run_until(seconds(300)));

  // The flight ended as a pre-copy abort; the guest never left shard 0,
  // where the crash orphaned it, unlocked, for the shard's own recovery.
  ASSERT_EQ(fed->cross_shard_records().size(), 1u);
  EXPECT_EQ(fed->cross_shard_records().front().record.outcome,
            cluster::MigrationOutcome::kAbortedPrecopy);
  EXPECT_EQ(fed->locate(0).shard, 0u);
  EXPECT_FALSE(fed->shard(0).federation_locked(0));
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kRunning);  // restarted
  EXPECT_EQ(fed->shard(0).residence(0), 1u);
  // The destination's reservation is released.
  EXPECT_EQ(fed->shard(1).vm_state(1), cluster::VmState::kDeparted);
}

TEST(FederationControlTest, DestinationCrashKeepsTheGuestOnItsSource) {
  auto fed = federation_mid_flight();
  ASSERT_TRUE(fed->shard(1).apply(cluster::Command::crash_host(1, true)).ok());
  fed->run_until(seconds(300));

  ASSERT_EQ(fed->cross_shard_records().size(), 1u);
  EXPECT_EQ(fed->cross_shard_records().front().record.outcome,
            cluster::MigrationOutcome::kAbortedPrecopy);
  // Nothing lands on the dead host: the guest runs on, unlocked, at home.
  EXPECT_EQ(fed->shard(1).vm_state(1), cluster::VmState::kDeparted);
  EXPECT_FALSE(fed->shard(1).powered_on(1));
  EXPECT_EQ(fed->locate(0).shard, 0u);
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kRunning);
  EXPECT_EQ(fed->shard(0).residence(0), 0u);
  EXPECT_FALSE(fed->shard(0).federation_locked(0));
  // Free again: the federation may move it to the surviving host.
  EXPECT_TRUE(fed->migrate(0, 0, 1, 0).ok());
}

TEST(FederationControlTest, SourceCrashInThePauseLosesTheGuest) {
  auto fed = federation_in_pause();
  ASSERT_TRUE(fed->shard(0).apply(cluster::Command::crash_host(0, true)).ok());
  ASSERT_NO_THROW(fed->run_until(seconds(300)));

  ASSERT_EQ(fed->cross_shard_records().size(), 1u);
  EXPECT_EQ(fed->cross_shard_records().front().record.outcome,
            cluster::MigrationOutcome::kLostSourceCrash);
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kLost);
  EXPECT_EQ(fed->shard(1).vm_state(1), cluster::VmState::kDeparted);
  EXPECT_EQ(fed->shard(0).lost_vm_count() + fed->shard(1).lost_vm_count(), 1u);
}

TEST(FederationControlTest, DestinationCrashInThePauseRollsTheGuestBack) {
  auto fed = federation_in_pause();
  ASSERT_TRUE(fed->shard(1).apply(cluster::Command::crash_host(1, true)).ok());
  fed->run_until(seconds(300));

  ASSERT_EQ(fed->cross_shard_records().size(), 1u);
  const cluster::MigrationRecord& rec = fed->cross_shard_records().front().record;
  EXPECT_EQ(rec.outcome, cluster::MigrationOutcome::kAbortedStopCopy);
  EXPECT_EQ(rec.downtime, common::usec(1));
  // Back on its source slot, running, with the truncated pause charged.
  EXPECT_EQ(fed->shard(0).vm_state(0), cluster::VmState::kRunning);
  EXPECT_EQ(fed->shard(0).residence(0), 0u);
  EXPECT_FALSE(fed->shard(0).federation_locked(0));
  EXPECT_EQ(fed->shard(0).vm_stats(0).downtime, common::usec(1));
  EXPECT_EQ(fed->shard(1).vm_state(1), cluster::VmState::kDeparted);
  EXPECT_FALSE(fed->shard(1).powered_on(1));
}

}  // namespace
}  // namespace pas::fed
