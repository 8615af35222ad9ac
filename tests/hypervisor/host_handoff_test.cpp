// The guest hand-off verbs every slot move goes through: detach_guest
// lifts a guest and its credit balance off a slot, attach_guest puts them
// into another at the eq.-4 cap for the host's current P-state.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/compensation.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::hv {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;

HostConfig quiet() {
  HostConfig hc;
  hc.trace_stride = SimTime{};
  return hc;
}

VmConfig guest(common::Percent credit) {
  VmConfig cfg;
  cfg.name = "guest";
  cfg.credit = credit;
  return cfg;
}

sched::CreditScheduler& credit(Host& host) {
  return dynamic_cast<sched::CreditScheduler&>(host.scheduler());
}

TEST(HostHandoffTest, DetachThenAttachConservesTheBalance) {
  Host host{quiet(), std::make_unique<sched::CreditScheduler>()};
  const common::VmId from = host.add_vm(guest(30.0), std::make_unique<wl::BusyLoop>());
  const common::VmId to = host.add_vm(guest(30.0), std::make_unique<wl::IdleGuest>());
  host.run_until(msec(1015));  // mid accounting period: a partly spent balance
  const SimTime before = credit(host).balance(from);
  const wl::Workload* moved = host.vm(from).workload.get();

  Host::DetachedGuest lifted = host.detach_guest(from);
  EXPECT_EQ(lifted.workload.get(), moved);
  EXPECT_EQ(lifted.balance, before) << "detach exports the balance the slot held";
  EXPECT_EQ(credit(host).balance(from), SimTime{});
  EXPECT_EQ(host.scheduler().cap(from), 0.0);
  EXPECT_FALSE(host.vm(from).workload->runnable()) << "an IdleGuest parks in the slot";

  host.attach_guest(to, std::move(lifted.workload), lifted.balance);
  EXPECT_EQ(host.vm(to).workload.get(), moved);
  EXPECT_EQ(credit(host).balance(to), before) << "import == export";
  EXPECT_DOUBLE_EQ(host.scheduler().cap(to), 30.0) << "at max frequency eq. 4 is the purchase";

  // A hoard above the burst limit crosses unclamped: a moving VM loses no
  // credit in flight.
  credit(host).import_credit(to, seconds(5));
  lifted = host.detach_guest(to);
  host.attach_guest(from, std::move(lifted.workload), lifted.balance);
  EXPECT_EQ(credit(host).balance(from), seconds(5));
  const SimTime busy = host.vm(from).total_busy;
  host.run_until(seconds(3));
  EXPECT_GT(host.vm(from).total_busy, busy) << "the guest runs in its new slot";
}

TEST(HostHandoffTest, AttachCapsByEq4AtTheCurrentPState) {
  Host host{quiet(), std::make_unique<sched::CreditScheduler>()};
  const common::VmId slot = host.add_vm(guest(20.0), std::make_unique<wl::IdleGuest>());
  const cpu::FrequencyLadder& ladder = host.cpu().ladder();
  host.run_until(seconds(1));

  host.cpufreq().request(0);
  host.attach_guest(slot, std::make_unique<wl::BusyLoop>(), SimTime{});
  EXPECT_EQ(host.scheduler().cap(slot), core::compensated_credit(20.0, ladder, 0));
  EXPECT_GT(host.scheduler().cap(slot), 20.0);

  // recap follows the P-state the same way; at max it is the purchase.
  host.cpufreq().request(ladder.max_index());
  host.recap(slot);
  EXPECT_DOUBLE_EQ(host.scheduler().cap(slot), 20.0);
}

/// A guest that tries the hand-off verbs on its own host from inside a
/// quantum — the cross-host mutation the no-shared-state contract forbids.
class Meddler final : public wl::Workload {
 public:
  explicit Meddler(Host& host) : host_(host) {}
  void advance_to(SimTime /*now*/) override {}
  [[nodiscard]] bool runnable() const override { return true; }
  common::Work consume(SimTime /*now*/, common::Work budget) override {
    try {
      (void)host_.detach_guest(1);
    } catch (const std::logic_error&) {
      ++detach_throws;
    }
    try {
      host_.attach_guest(1, std::make_unique<wl::IdleGuest>(), SimTime{});
    } catch (const std::logic_error&) {
      ++attach_throws;
    }
    return budget;
  }
  int detach_throws = 0;
  int attach_throws = 0;

 private:
  Host& host_;
};

TEST(HostHandoffTest, BothVerbsThrowWhileTheHostAdvances) {
  Host host{quiet(), std::make_unique<sched::CreditScheduler>()};
  auto meddler = std::make_unique<Meddler>(host);
  const Meddler& m = *meddler;
  host.add_vm(guest(50.0), std::move(meddler));
  host.add_vm(guest(50.0), std::make_unique<wl::BusyLoop>());
  const wl::Workload* victim = host.vm(1).workload.get();
  host.run_until(seconds(1));
  EXPECT_GT(m.detach_throws, 0);
  EXPECT_EQ(m.attach_throws, m.detach_throws);
  EXPECT_EQ(host.vm(1).workload.get(), victim) << "a refused verb changes nothing";
  EXPECT_DOUBLE_EQ(host.scheduler().cap(1), 50.0);
}

}  // namespace
}  // namespace pas::hv
