// Federation::shard_load staleness: the global planner balances each
// shard's aggregate as of that shard manager's last planning tick — the
// view a real cross-cluster control plane would have. Before a shard's
// first planning tick it reads the live fleet; between ticks a crash or a
// departure does not show; the next planning tick brings it in.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "federation/federation.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::fed {
namespace {

using common::seconds;

cluster::ClusterVmConfig vm_of(double memory_mb) {
  cluster::ClusterVmConfig vc;
  vc.vm.name = "vm";
  vc.vm.credit = 10.0;
  vc.memory_mb = memory_mb;
  return vc;
}

TEST(ShardLoadTest, ReadsTheLastPlannedLiveSet) {
  // Shard 0: three 4 GB hosts holding A (400 MB, host 0), B (1000 MB,
  // host 1) and C (1000 MB, host 2); its manager plans every 10 s and
  // issues no migrations, so residency stays put. Shard 1: one empty host,
  // the destination of A's cross-shard flight.
  const platform::HostClass host = platform::optiplex_755();
  cluster::ClusterConfig c0;
  c0.host_classes = {host, host, host};
  auto shard0 = std::make_unique<cluster::Cluster>(std::move(c0));
  const cluster::GlobalVmId a = shard0->add_vm(vm_of(400.0), std::make_unique<wl::IdleGuest>(), 0);
  (void)shard0->add_vm(vm_of(1000.0), std::make_unique<wl::IdleGuest>(), 1);
  (void)shard0->add_vm(vm_of(1000.0), std::make_unique<wl::IdleGuest>(), 2);
  cluster::ClusterManagerConfig mc;
  mc.period = seconds(10);
  mc.max_migrations_per_tick = 0;
  shard0->install_manager(std::make_unique<cluster::ClusterManager>(mc));
  cluster::ClusterConfig c1;
  c1.host_classes = {host};
  auto shard1 = std::make_unique<cluster::Cluster>(std::move(c1));

  FederationConfig fc;
  fc.planner.period = seconds(100000);  // no global moves but the test's own
  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.push_back(std::move(shard0));
  shards.push_back(std::move(shard1));
  Federation fed(fc, std::move(shards));
  cluster::Cluster& s0 = fed.shard(0);
  const double mem = host.memory_mb;
  const auto expect_load = [&](double capacity_mb, double reserved_mb, const char* when) {
    const Federation::ShardLoad load = fed.shard_load(0);
    EXPECT_EQ(load.capacity_mb, capacity_mb) << when;
    EXPECT_EQ(load.reserved_mb, reserved_mb) << when;
  };

  expect_load(3 * mem, 2400.0, "fresh fleet");
  fed.run_until(seconds(3));
  ASSERT_TRUE(s0.apply(cluster::Command::crash_host(2, /*restart_orphans=*/false)).ok());
  ASSERT_FALSE(s0.manager()->has_plan());
  expect_load(2 * mem, 1400.0, "before the first plan: the live fleet, crash included");

  fed.run_until(seconds(10));
  ASSERT_TRUE(s0.manager()->has_plan());
  expect_load(2 * mem, 1400.0, "first planning tick");

  fed.run_until(seconds(11));
  ASSERT_TRUE(s0.apply(cluster::Command::crash_host(1, /*restart_orphans=*/false)).ok());
  expect_load(2 * mem, 1400.0, "crash between ticks does not show");
  ASSERT_TRUE(fed.migrate(0, a, 1, 0).ok());
  fed.run_until(seconds(19));
  ASSERT_EQ(s0.vm_state(a), cluster::VmState::kDeparted);
  expect_load(2 * mem, 1400.0, "departure between ticks does not show");

  fed.run_until(seconds(20));
  expect_load(mem, 0.0, "the next planning tick shows both");
}

}  // namespace
}  // namespace pas::fed
