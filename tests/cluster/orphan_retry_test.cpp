// The manager's restart budget belongs to one orphaning, not to one VM:
// a VM that an operator restarts and a later crash orphans again must get
// the full max_restart_attempts anew, exactly like a VM orphaned for the
// first time by that same crash.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/units.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using common::seconds;

ClusterVmConfig guest(double memory_mb) {
  ClusterVmConfig vc;
  vc.vm.name = "guest";
  vc.vm.credit = 10.0;
  vc.memory_mb = memory_mb;
  return vc;
}

TEST(OrphanRetryTest, ReorphanedVmStartsAFreshRetryBudget) {
  // Three 4096 MB hosts: VM A (1024 MB) on host 0, full-host VMs on hosts
  // 1 and 2, so no orphan ever fits anywhere and every restart fails.
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(3, platform::HostClass{"host"});
  cc.host.trace_stride = common::SimTime{};
  Cluster c{std::move(cc)};
  const GlobalVmId a = c.add_vm(guest(1024.0), std::make_unique<wl::IdleGuest>(), 0);
  const GlobalVmId b = c.add_vm(guest(4096.0), std::make_unique<wl::IdleGuest>(), 1);
  (void)c.add_vm(guest(4096.0), std::make_unique<wl::IdleGuest>(), 2);

  ClusterManagerConfig mc;
  mc.period = seconds(10);
  mc.consolidate = false;
  mc.vovo = false;
  mc.max_restart_attempts = 3;
  mc.restart_backoff = seconds(5);
  c.install_manager(std::make_unique<ClusterManager>(mc));

  // A is orphaned at 5 s and its first restart fails at the 10 s tick.
  c.run_until(seconds(5));
  ASSERT_TRUE(c.apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  c.run_until(seconds(12));
  ASSERT_EQ(c.manager()->restarts_abandoned(), 0u);

  // An operator restarts A on host 1; a crash of host 1 orphans A again,
  // together with B.
  ASSERT_TRUE(c.apply(Command::restart_vm(a, 1)).ok());
  c.run_until(seconds(13));
  ASSERT_TRUE(c.apply(Command::crash_host(1, /*restart_orphans=*/true)).ok());
  EXPECT_EQ(c.orphaned_at(a), seconds(13));
  EXPECT_EQ(c.orphaned_at(b), seconds(13));

  // Attempts at 20 s and 30 s (backoff 5 s, then 10 s) fail for both.
  c.run_until(seconds(35));
  EXPECT_EQ(c.vm_state(a), VmState::kOrphaned) << "A kept its pre-restart attempt count";
  EXPECT_EQ(c.vm_state(b), VmState::kOrphaned);
  EXPECT_EQ(c.manager()->restarts_abandoned(), 0u);

  // The third attempt, at 40 s, abandons both together.
  c.run_until(seconds(45));
  EXPECT_EQ(c.vm_state(a), VmState::kLost);
  EXPECT_EQ(c.vm_state(b), VmState::kLost);
  EXPECT_EQ(c.manager()->restarts_abandoned(), 2u);
}

}  // namespace
}  // namespace pas::cluster
