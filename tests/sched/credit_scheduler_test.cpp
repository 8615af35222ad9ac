#include "sched/credit_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "hypervisor/host.hpp"
#include "workload/synthetic.hpp"

namespace pas::sched {
namespace {

using common::kInvalidVm;
using common::msec;
using common::seconds;
using common::SimTime;
using common::VmId;

hv::VmConfig vm_cfg(double credit, int priority = 0) {
  hv::VmConfig c;
  c.credit = credit;
  c.priority = priority;
  return c;
}

TEST(CreditSchedulerTest, InitialBalanceIsOneRefill) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  EXPECT_EQ(s.balance(0), msec(6));  // 20 % of 30 ms
  EXPECT_DOUBLE_EQ(s.cap(0), 20.0);
  EXPECT_FALSE(s.work_conserving());
}

TEST(CreditSchedulerTest, PicksUnderVm) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, ExhaustedVmNotPicked) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(6));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), kInvalidVm);  // fixed credit: CPU idles
}

TEST(CreditSchedulerTest, AccountRefills) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(6));
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(6));
  const VmId ids[] = {0};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, BalanceClampedToBurstLimit) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  for (int i = 0; i < 10; ++i) s.account(msec(30 * i));
  EXPECT_EQ(s.balance(0), msec(9));  // burst_periods = 1.5
}

TEST(CreditSchedulerTest, FractionalLeftoverSurvivesRefill) {
  // A 70 % VM leaves ~1 ms unburned per period when quanta are 10 ms; the
  // clamp must not confiscate it or the VM converges below its cap.
  CreditScheduler s;
  s.add_vm(0, vm_cfg(70.0));
  s.charge(0, msec(20));  // burned 20 of 21
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(22));  // 1 leftover + 21 refill, under 31.5 burst
}

TEST(CreditSchedulerTest, OverdraftCarriesOver) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.charge(0, msec(10));  // overdraw by 4 ms
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(2));
}

TEST(CreditSchedulerTest, PriorityPreempts) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0, 0));
  s.add_vm(1, vm_cfg(10.0, 1));  // Dom0-style
  const VmId ids[] = {0, 1};
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);
  s.charge(1, msec(3));  // exhaust Dom0
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
}

TEST(CreditSchedulerTest, RoundRobinAmongEqualPriority) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(50.0));
  s.add_vm(1, vm_cfg(50.0));
  const VmId ids[] = {0, 1};
  const VmId first = s.pick(SimTime{}, ids);
  s.charge(first, msec(1));
  const VmId second = s.pick(SimTime{}, ids);
  EXPECT_NE(first, second);
  s.charge(second, msec(1));
  EXPECT_EQ(s.pick(SimTime{}, ids), first);
}

TEST(CreditSchedulerTest, NullCreditRunsOnlyWhenOthersExhausted) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.add_vm(1, vm_cfg(0.0));  // null credit
  const VmId ids[] = {0, 1};
  EXPECT_EQ(s.pick(SimTime{}, ids), 0u);
  s.charge(0, msec(6));
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);  // soaks slack
  s.charge(1, msec(100));                 // no limit
  EXPECT_EQ(s.pick(SimTime{}, ids), 1u);
}

TEST(CreditSchedulerTest, SetCapChangesRefill) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(20.0));
  s.set_cap(0, 40.0);
  EXPECT_DOUBLE_EQ(s.cap(0), 40.0);
  s.charge(0, msec(6));
  s.account(msec(30));
  EXPECT_EQ(s.balance(0), msec(12));
}

TEST(CreditSchedulerTest, CapReductionClampsHoard) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(40.0));
  EXPECT_EQ(s.balance(0), msec(12));
  s.set_cap(0, 10.0);
  EXPECT_EQ(s.balance(0), common::usec(4500));  // 1.5 periods at 10 %
}

TEST(CreditSchedulerTest, PasStyleCompensatedCapAboveHundred) {
  // §4.2: at low frequency the sum of caps may exceed 100 %.
  CreditScheduler s;
  s.add_vm(0, vm_cfg(70.0));
  s.charge(0, msec(21));  // burn the initial refill
  s.set_cap(0, 116.7);
  s.account(msec(30));
  // One refill at the compensated cap: 116.7 % of 30 ms.
  EXPECT_NEAR(static_cast<double>(s.balance(0).us()), 35'010.0, 30.0);
}

TEST(CreditSchedulerTest, RejectsBadInput) {
  CreditScheduler s;
  EXPECT_THROW(s.add_vm(3, vm_cfg(10.0)), std::invalid_argument);
  s.add_vm(0, vm_cfg(10.0));
  EXPECT_THROW(s.set_cap(0, -1.0), std::invalid_argument);
  EXPECT_THROW(s.add_vm(1, vm_cfg(-5.0)), std::invalid_argument);
  CreditSchedulerConfig bad;
  bad.accounting_period = SimTime{};
  EXPECT_THROW(CreditScheduler{bad}, std::invalid_argument);
}

TEST(CreditSchedulerTest, LongRunShareMatchesCap) {
  // End-to-end via the host: two thrashing VMs split 20/70 proportionally.
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<CreditScheduler>()};
  host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
  host.add_vm(vm_cfg(70.0), std::make_unique<wl::BusyLoop>());
  host.run_until(seconds(100));
  EXPECT_NEAR(host.vm(0).total_busy.sec(), 20.0, 1.0);
  EXPECT_NEAR(host.vm(1).total_busy.sec(), 70.0, 1.0);
  EXPECT_NEAR(host.idle_time().sec(), 10.0, 1.0);
}

// --- account_while_rejected: closed form vs one account() at a time ---

/// The reference account_while_rejected: apply account() one call at a
/// time, stopping before the first that would let pick(rejected) succeed.
/// The probe is a copy, so a successful pick never touches `s`.
std::int64_t oracle_account_while_rejected(CreditScheduler& s,
                                           std::span<const VmId> rejected,
                                           std::int64_t max_refills) {
  std::int64_t n = 0;
  while (n < max_refills) {
    CreditScheduler probe = s;
    probe.account(SimTime{});
    if (probe.pick(SimTime{}, rejected) != kInvalidVm) break;
    s = probe;
    ++n;
  }
  return n;
}

void expect_same_state(CreditScheduler& a, CreditScheduler& b, std::span<const VmId> all,
                       std::span<const VmId> rejected, const char* where) {
  for (const VmId v : all) EXPECT_EQ(a.balance(v), b.balance(v)) << where << " vm " << v;
  const auto ua = a.under_counts();
  const auto ub = b.under_counts();
  ASSERT_EQ(ua.size(), ub.size()) << where;
  for (std::size_t t = 0; t < ua.size(); ++t) EXPECT_EQ(ua[t], ub[t]) << where << " tier " << t;
  // The next picks (which also advance the round-robin cursor) agree.
  EXPECT_EQ(a.pick(SimTime{}, rejected), b.pick(SimTime{}, rejected)) << where;
  EXPECT_EQ(a.pick(SimTime{}, all), b.pick(SimTime{}, all)) << where;
  EXPECT_EQ(a.pick(SimTime{}, all), b.pick(SimTime{}, all)) << where;
}

/// One random scheduler state: capped VMs from the deep-debt 2-5 % range
/// up to compensated caps above 100 %, a cap whose refill rounds to zero,
/// null-credit bystanders, mixed priority tiers, overdrafts from charges,
/// hoards imported above the burst limit and a rotated round-robin cursor.
CreditScheduler random_scheduler(common::Rng& rng, std::vector<VmId>& all) {
  CreditScheduler s;
  const auto vms = static_cast<VmId>(1 + rng.next_below(8));
  all.clear();
  for (VmId v = 0; v < vms; ++v) {
    double cap = 0.0;
    switch (rng.next_below(5)) {
      case 0: cap = 0.0; break;     // null credit
      case 1: cap = 0.0015; break;  // refill rounds to 0 µs, burst to 1 µs
      case 2: cap = rng.uniform(2.0, 5.0); break;
      default: cap = rng.uniform(5.0, 120.0); break;
    }
    s.add_vm(v, vm_cfg(cap, static_cast<int>(rng.next_below(3))));
    all.push_back(v);
  }
  for (const VmId v : all) {
    switch (rng.next_below(4)) {
      case 0: s.charge(v, common::usec(static_cast<std::int64_t>(rng.next_below(60'000)))); break;
      case 1: s.charge(v, common::usec(static_cast<std::int64_t>(rng.next_below(2'000)))); break;
      case 2:  // a migrated-in hoard, possibly far above burst
        s.import_credit(v, common::usec(static_cast<std::int64_t>(rng.next_below(100'000))));
        break;
      default: break;
    }
  }
  for (std::uint64_t k = rng.next_below(4); k > 0; --k) (void)s.pick(SimTime{}, all);
  return s;
}

TEST(CreditSchedulerTest, AccountWhileRejectedMatchesOneByOneOracle) {
  common::Rng rng{2013};
  std::vector<VmId> all;
  int collapsed_cases = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    SCOPED_TRACE(iter);
    CreditScheduler fast = random_scheduler(rng, all);
    // The rejected set: VMs pick() would refuse — capped, out of credit —
    // and now and then a pickable intruder, which must block any collapse.
    std::vector<VmId> rejected;
    for (const VmId v : all)
      if (fast.cap(v) > 0.0 && fast.balance(v) <= SimTime{} && rng.chance(0.8))
        rejected.push_back(v);
    if (rng.chance(0.1)) rejected.push_back(all[rng.next_below(all.size())]);
    if (rejected.empty()) continue;
    const auto max_refills = static_cast<std::int64_t>(rng.next_below(40));  // 0 included
    CreditScheduler slow = fast;
    const std::int64_t got = fast.account_while_rejected(rejected, max_refills);
    const std::int64_t want = oracle_account_while_rejected(slow, rejected, max_refills);
    ASSERT_EQ(got, want);
    if (got > 0) ++collapsed_cases;
    expect_same_state(fast, slow, all, rejected, "after collapse");
    if (HasFailure()) return;  // one diagnosed case beats thousands
  }
  EXPECT_GT(collapsed_cases, 500);  // the property is not vacuous
}

TEST(CreditSchedulerTest, AccountWhileRejectedEdgeCases) {
  CreditScheduler s;
  s.add_vm(0, vm_cfg(3.0));     // refill 900 µs, burst 1350 µs
  s.add_vm(1, vm_cfg(0.0));     // null-credit bystander
  s.add_vm(2, vm_cfg(50.0, 1));  // higher-tier bystander with a hoard
  s.charge(0, msec(10));        // 900 - 10000 = -9100 µs: ten refills of debt
  s.charge(1, msec(7));
  s.import_credit(2, msec(100));  // above its 22.5 ms burst
  const VmId hog[] = {0};
  EXPECT_EQ(s.account_while_rejected(hog, 0), 0);  // max 0: a no-op
  EXPECT_EQ(s.balance(0), common::usec(-9100));
  EXPECT_EQ(s.account_while_rejected(hog, 100), 10);  // floor(9100 / 900)
  EXPECT_EQ(s.balance(0), common::usec(-100));
  EXPECT_EQ(s.balance(1), SimTime{});         // null credit zeroed
  EXPECT_EQ(s.balance(2), common::usec(22'500));  // hoard clamped to burst
  EXPECT_EQ(s.pick(SimTime{}, hog), kInvalidVm);
  EXPECT_EQ(s.account_while_rejected(hog, 100), 0);  // the next refill revives
  s.account(SimTime{});
  EXPECT_EQ(s.pick(SimTime{}, hog), 0u);
  // A pickable VM in the set admits no refill.
  const VmId with_null[] = {0, 1};
  s.charge(0, msec(10));
  EXPECT_EQ(s.account_while_rejected(with_null, 5), 0);
}

TEST(CreditSchedulerTest, AccountWhileRejectedUnboundedSaturatesWithoutOverflow) {
  // Only zero-refill VMs rejected: nothing bounds the collapse, so it
  // takes the whole budget — n·refill for the bystanders must clamp to
  // burst instead of overflowing (UBSan guards this case).
  CreditScheduler fast;
  fast.add_vm(0, vm_cfg(0.0015));  // refill 0 µs
  fast.add_vm(1, vm_cfg(80.0));
  fast.add_vm(2, vm_cfg(0.0));
  fast.charge(0, msec(5));
  fast.charge(1, msec(40));
  const VmId rejected[] = {0};
  const std::vector<VmId> all = {0, 1, 2};
  CreditScheduler slow = fast;
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() / 2;
  EXPECT_EQ(fast.account_while_rejected(rejected, kHuge), kHuge);
  // Past the refill fixed point every further account() is a no-op, so a
  // bounded oracle reaches the same state.
  EXPECT_EQ(oracle_account_while_rejected(slow, rejected, 1000), 1000);
  EXPECT_TRUE(slow.refill_settled());
  expect_same_state(fast, slow, all, rejected, "unbounded");
}

}  // namespace
}  // namespace pas::sched
