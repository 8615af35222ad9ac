// The command surface's refusal table: for every command kind, every rung
// of Cluster::check's ladder — in ladder order — yields its exact status
// and reason; check() itself never mutates; and a refused apply() leaves
// the cluster equal, observable for observable, to an untouched twin run
// alongside it (check::first_divergence).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/divergence.hpp"
#include "cluster/cluster.hpp"
#include "cluster/command.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using common::seconds;

ClusterVmConfig guest(double memory_mb = 512.0) {
  ClusterVmConfig vc;
  vc.vm.name = "guest";
  vc.vm.credit = 20.0;
  vc.memory_mb = memory_mb;
  vc.dirty_mb_per_s = 5.0;
  return vc;
}

/// Four hosts at t=20 s, one VM in every state the ladder distinguishes:
///   vm 0 running on host 0        vm 4 lost (abandoned orphan)
///   vm 1 migrating host 0 → 1     vm 5 running, federation-locked
///   vm 2 stopped                  vm 6 departed to another shard
///   vm 3 orphaned (host 3 crashed) vm 7 inbound on host 1
/// vm 6 and vm 7 take only the hand-off bookkeeping (mark_departed,
/// admit_inbound), without a federation link: their states are what the
/// ladder reads.
std::unique_ptr<Cluster> build_fleet() {
  ClusterConfig cc;
  platform::HostClass cls{"host"};
  cls.memory_mb = 8192.0;
  cc.host_classes = platform::uniform_fleet_classes(4, cls);
  cc.migration.link_mb_per_s = 10.0;  // vm 1's flight outlasts the test
  auto c = std::make_unique<Cluster>(std::move(cc));
  const HostId homes[] = {0, 0, 0, 3, 3, 0, 0};
  for (const HostId home : homes) c->add_vm(guest(), std::make_unique<wl::BusyLoop>(), home);
  c->run_until(seconds(10));
  EXPECT_TRUE(c->apply(Command::migrate(1, 1)).ok());
  EXPECT_TRUE(c->apply(Command::stop_vm(2)).ok());
  EXPECT_TRUE(c->apply(Command::crash_host(3, /*restart_orphans=*/true)).ok());
  EXPECT_TRUE(c->apply(Command::mark_lost(4)).ok());
  EXPECT_TRUE(c->apply(Command::federation_lock(5)).ok());
  c->mark_departed(6);
  EXPECT_EQ(c->admit_inbound(guest(), 1), 7u);
  c->run_until(seconds(20));
  return c;
}

/// Two hosts, host 1 crashed, nothing in flight.
std::unique_ptr<Cluster> build_last_host() {
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(2, platform::HostClass{"host"});
  auto c = std::make_unique<Cluster>(std::move(cc));
  c->add_vm(guest(), std::make_unique<wl::BusyLoop>(), 0);
  c->run_until(seconds(5));
  EXPECT_TRUE(c->apply(Command::crash_host(1, /*restart_orphans=*/true)).ok());
  return c;
}

struct Rung {
  Command cmd;
  Status status;
  const char* reason;
};

constexpr Status kRej = Status::kRejected;
constexpr Status kSup = Status::kSuperseded;

// Every kind's ladder on build_fleet(), rung by rung in check() order.
const std::vector<Rung>& fleet_rungs() {
  static const std::vector<Rung> rungs = {
      // migrate
      {Command::migrate(4, 2), kSup, "vm 4 lost"},
      {Command::migrate(3, 2), kSup, "vm 3 orphaned by a crash"},
      {Command::migrate(6, 2), kSup, "vm 6 departed to another shard"},
      {Command::migrate(7, 2), kRej, "vm 7 inbound from another shard"},
      {Command::migrate(2, 2), kRej, "vm 2 is stopped"},
      {Command::migrate(0, 3), kSup, "host 3 crashed"},
      {Command::migrate(0, 0), kRej, "vm 0 already resident on host 0"},
      {Command::migrate(1, 2), kRej, "vm 1 already in flight"},
      {Command::migrate(5, 2), kRej, "vm 5 locked by a federation flight"},
      // stop_vm
      {Command::stop_vm(4), kSup, "vm 4 lost"},
      {Command::stop_vm(3), kSup, "vm 3 orphaned by a crash"},
      {Command::stop_vm(6), kSup, "vm 6 departed to another shard"},
      {Command::stop_vm(7), kRej, "vm 7 inbound from another shard"},
      {Command::stop_vm(2), kRej, "vm 2 already stopped"},
      {Command::stop_vm(1), kRej, "vm 1 in flight"},
      {Command::stop_vm(5), kRej, "vm 5 locked by a federation flight"},
      // federation_lock
      {Command::federation_lock(4), kSup, "vm 4 lost"},
      {Command::federation_lock(3), kSup, "vm 3 orphaned by a crash"},
      {Command::federation_lock(6), kSup, "vm 6 departed to another shard"},
      {Command::federation_lock(7), kRej, "vm 7 inbound from another shard"},
      {Command::federation_lock(2), kRej, "vm 2 is stopped"},
      {Command::federation_lock(1), kRej, "vm 1 in flight"},
      {Command::federation_lock(5), kRej, "vm 5 locked by a federation flight"},
      // start_vm
      {Command::start_vm(4, 2), kSup, "vm 4 lost"},
      {Command::start_vm(3, 2), kSup, "vm 3 orphaned by a crash"},
      {Command::start_vm(6, 2), kSup, "vm 6 departed to another shard"},
      {Command::start_vm(7, 2), kRej, "vm 7 inbound from another shard"},
      {Command::start_vm(0, 2), kRej, "vm 0 already running"},
      {Command::start_vm(2, 3), kSup, "host 3 crashed"},
      // crash_host (the last-live-host rung needs its own fleet, below)
      {Command::crash_host(3, true), kSup, "host 3 already crashed"},
      // restart_vm
      {Command::restart_vm(4, 2), kSup, "vm 4 lost"},
      {Command::restart_vm(0, 2), kRej, "vm 0 not orphaned"},
      {Command::restart_vm(6, 2), kRej, "vm 6 not orphaned"},
      {Command::restart_vm(3, 3), kSup, "host 3 crashed"},
      // mark_lost
      {Command::mark_lost(0), kRej, "vm 0 not orphaned"},
      {Command::mark_lost(4), kRej, "vm 4 not orphaned"},
      // abort_migration
      {Command::abort_migration(0), kRej, "vm 0 not in flight"},
      // power
      {Command::power(3, true), kSup, "host 3 crashed"},
      {Command::power(0, false), kRej, "host 0 in use"},
      {Command::power(1, false), kRej, "host 1 in use"},  // vm 1's and vm 7's destination
  };
  return rungs;
}

const std::vector<Rung>& last_host_rungs() {
  static const std::vector<Rung> rungs = {
      {Command::crash_host(0, true), kRej, "host 0 is the last live host"},
      {Command::abort_oldest_migration(), kRej, "no migration in flight"},
  };
  return rungs;
}

std::string describe(const Rung& r) {
  std::string s = "kind ";
  s.append(std::to_string(static_cast<int>(r.cmd.kind)))
      .append(" vm ")
      .append(std::to_string(r.cmd.vm))
      .append(" host ")
      .append(std::to_string(r.cmd.host));
  return s;
}

/// Every rung: check() and apply() agree on the exact verdict, and the
/// refused cluster then runs on in lockstep with an untouched twin.
template <class Build>
void expect_refusals(Build build, const std::vector<Rung>& rungs) {
  for (const Rung& r : rungs) {
    SCOPED_TRACE(describe(r));
    auto refused = build();
    auto twin = build();
    const common::SimTime now = refused->now();
    const Outcome checked = refused->check(r.cmd);
    EXPECT_EQ(checked.status, r.status);
    EXPECT_EQ(checked.reason, r.reason);
    const Outcome applied = refused->apply(r.cmd);
    EXPECT_EQ(applied.status, r.status);
    EXPECT_EQ(applied.reason, r.reason);
    refused->run_until(now + seconds(40));
    twin->run_until(now + seconds(40));
    EXPECT_EQ(check::first_divergence(*refused, *twin), "");
  }
}

TEST(ClusterCommandTest, EveryRungOfEveryLadderNamesItsReason) {
  expect_refusals(build_fleet, fleet_rungs());
  expect_refusals(build_last_host, last_host_rungs());
}

TEST(ClusterCommandTest, CheckNeverMutates) {
  // Every verdict, passing ones included, asked of one cluster: it must
  // still equal its twin afterwards.
  auto asked = build_fleet();
  auto twin = build_fleet();
  std::vector<Command> all;
  for (const Rung& r : fleet_rungs()) all.push_back(r.cmd);
  all.push_back(Command::migrate(0, 2));
  all.push_back(Command::stop_vm(0));
  all.push_back(Command::start_vm(2, 0));
  all.push_back(Command::restart_vm(3, 2));
  all.push_back(Command::mark_lost(3));
  all.push_back(Command::crash_host(2, false));
  all.push_back(Command::abort_migration(1));
  all.push_back(Command::abort_oldest_migration());
  all.push_back(Command::set_link_bandwidth(50.0));
  all.push_back(Command::power(2, false));
  all.push_back(Command::power(2, true));
  for (const Command& cmd : all) (void)asked->check(cmd);
  asked->run_until(seconds(60));
  twin->run_until(seconds(60));
  EXPECT_EQ(check::first_divergence(*asked, *twin), "");
}

TEST(ClusterCommandTest, PassingCommandsAreOkAndAct) {
  // The rung after the last refusal: each kind passes and takes effect.
  const auto ok = [](Cluster& c, const Command& cmd) {
    EXPECT_TRUE(c.check(cmd).ok());
    const Outcome out = c.apply(cmd);
    EXPECT_EQ(out.status, Status::kOk);
    EXPECT_EQ(out.reason, "");
  };
  auto c = build_fleet();
  ok(*c, Command::migrate(0, 2));
  EXPECT_TRUE(c->migrating(0));
  ok(*c, Command::abort_migration(0));
  EXPECT_FALSE(c->migrating(0));
  ok(*c, Command::stop_vm(0));
  EXPECT_EQ(c->vm_state(0), VmState::kStopped);
  ok(*c, Command::start_vm(0, 2));
  EXPECT_EQ(c->residence(0), 2u);
  ok(*c, Command::restart_vm(3, 2));
  EXPECT_EQ(c->vm_state(3), VmState::kRunning);
  ok(*c, Command::federation_lock(3));
  EXPECT_TRUE(c->federation_locked(3));
  ok(*c, Command::set_link_bandwidth(50.0));
  EXPECT_EQ(c->link_bandwidth(), 50.0);
  ok(*c, Command::abort_oldest_migration());
  EXPECT_FALSE(c->migrating(1));
  ok(*c, Command::crash_host(2, /*restart_orphans=*/false));
  EXPECT_EQ(c->vm_state(0), VmState::kLost);
  EXPECT_FALSE(c->powered_on(2));
}

TEST(ClusterCommandTest, OutOfRangeIdsThrow) {
  auto c = build_last_host();
  EXPECT_THROW((void)c->check(Command::migrate(9, 0)), std::invalid_argument);
  EXPECT_THROW((void)c->check(Command::migrate(0, 9)), std::invalid_argument);
  EXPECT_THROW((void)c->apply(Command::power(9, true)), std::invalid_argument);
  EXPECT_THROW((void)c->apply(Command::mark_lost(9)), std::invalid_argument);
}

}  // namespace
}  // namespace pas::cluster
