// Operator commands aimed at VMs a cross-shard flight owns. While the
// federation holds a VM — locked on the source shard during pre-copy,
// kDeparted there after the hand-off, kInbound on the destination until
// the attach — the shard's control plane must refuse every command on it
// with a reason that names the federation, and must refuse it BEFORE the
// manager's admission: a refused command draws nothing from the per-tick
// migration budget that planner and operator share.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/units.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "federation/federation.hpp"
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

}  // namespace
}  // namespace pas::fed
