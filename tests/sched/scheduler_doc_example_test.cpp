// Compiles and executes the scheduler-extension example from
// docs/ARCHITECTURE.md ("A new scheduler") — the ROADMAP "doc-checked
// examples" item. The code inside the DOC SNIPPET markers mirrors the
// fenced block in the doc; if you edit one, edit both. The assertions
// prove the example upholds the extension contract it demonstrates: pick
// idempotence, and byte-identical fast-path vs slow-stepped host runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "check/divergence.hpp"
#include "common/units.hpp"
#include "hypervisor/host.hpp"
#include "hypervisor/scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas {
namespace {

// --- DOC SNIPPET (docs/ARCHITECTURE.md, "A new scheduler") ---
/// Least-attained-service scheduler: always runs the runnable VM with the
/// least cumulative busy time (ties: lowest id). The contract points:
/// pick() derives its choice purely from scheduler state and `now` —
/// repeating it without an intervening charge/account/set_cap returns the
/// same VM (idempotence) — and it never returns kInvalidVm, so the
/// default rejection_is_stable() is trivially honest.
class FairShareScheduler final : public hv::Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "fair-share"; }
  void add_vm(common::VmId id, const hv::VmConfig& config) override {
    if (busy_.size() <= id) busy_.resize(id + 1);
    if (cap_.size() <= id) cap_.resize(id + 1);
    cap_[id] = config.credit;  // caps start at the configured credit
  }
  [[nodiscard]] common::VmId pick(common::SimTime /*now*/,
                                  std::span<const common::VmId> runnable) override {
    common::VmId best = runnable.front();
    for (const common::VmId v : runnable)
      if (busy_[v] < busy_[best]) best = v;  // runnable ascends: ties keep lowest id
    return best;
  }
  void charge(common::VmId vm, common::SimTime busy) override { busy_[vm] += busy; }
  void account(common::SimTime /*now*/) override {}  // nothing refills
  [[nodiscard]] common::SimTime accounting_period() const override {
    return common::seconds(1);
  }
  void set_cap(common::VmId vm, common::Percent cap_pct) override { cap_[vm] = cap_pct; }
  [[nodiscard]] common::Percent cap(common::VmId vm) const override { return cap_[vm]; }
  [[nodiscard]] bool work_conserving() const override { return true; }

 private:
  std::vector<common::SimTime> busy_;
  std::vector<common::Percent> cap_;
};
// --- END DOC SNIPPET ---

TEST(SchedulerDocExampleTest, PickIsIdempotent) {
  FairShareScheduler s;
  for (common::VmId id = 0; id < 3; ++id) s.add_vm(id, hv::VmConfig{});
  s.charge(0, common::seconds(5));
  s.charge(2, common::seconds(1));
  const std::vector<common::VmId> runnable{0, 1, 2};
  const common::VmId first = s.pick(common::seconds(10), runnable);
  EXPECT_EQ(first, 1u);  // least attained service
  // Re-asking later with no charge in between: same answer, same state.
  EXPECT_EQ(s.pick(common::seconds(11), runnable), first);
  EXPECT_EQ(s.pick(common::seconds(12), runnable), first);
  s.charge(1, common::seconds(2));
  EXPECT_EQ(s.pick(common::seconds(13), runnable), 2u);
}

std::unique_ptr<hv::Host> build_host(bool fast_path) {
  hv::HostConfig hc;
  hc.event_driven_fast_path = fast_path;
  hc.trace_stride = common::seconds(1);
  auto host = std::make_unique<hv::Host>(hc, std::make_unique<FairShareScheduler>());
  for (int i = 0; i < 3; ++i) {
    hv::VmConfig vc;
    vc.name = "hog" + std::to_string(i);
    vc.credit = 10.0 * (i + 1);  // fairness here ignores credit by design
    host->add_vm(vc, std::make_unique<wl::BusyLoop>());
  }
  return host;
}

TEST(SchedulerDocExampleTest, HostRunsIdenticalFastAndSlowAndSharesEvenly) {
  auto slow = build_host(false);
  auto fast = build_host(true);
  slow->run_until(common::seconds(60));
  fast->run_until(common::seconds(60));

  ASSERT_EQ(check::first_divergence(*slow, *fast), "");

  // Least-attained-service over identical hogs = equal thirds.
  const double total = common::seconds(60).sec();
  for (common::VmId v = 0; v < 3; ++v)
    EXPECT_NEAR(slow->vm(v).total_busy.sec(), total / 3.0, 0.05) << v;
}

}  // namespace
}  // namespace pas
