// Compiles and executes the workload-extension example from
// docs/ARCHITECTURE.md ("A new workload") — the ROADMAP "doc-checked
// examples" item. The code inside the DOC SNIPPET markers mirrors the
// fenced block in the doc; if you edit one, edit both (this test is what
// keeps the doc honest). The assertions then prove the example really
// upholds the contract the doc claims it demonstrates: byte-identical
// fast-path and slow-stepped runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "check/divergence.hpp"
#include "common/units.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/workload.hpp"

namespace pas {
namespace {

// --- DOC SNIPPET (docs/ARCHITECTURE.md, "A new workload") ---
/// A guest that wakes every `period`, performs `burst` CPU work, and
/// sleeps again. The two contract points every workload must get right:
/// advance_to is a pure function of the crossed instants (coarsened call
/// patterns deliver identically), and next_transition_time is an honest
/// lower bound (here: exact) on the next self-transition.
class Heartbeat final : public wl::Workload {
 public:
  Heartbeat(common::SimTime period, common::Work burst)
      : period_(period), burst_(burst), next_beat_(period) {}

  void advance_to(common::SimTime now) override {
    while (next_beat_ <= now) {  // deliver every beat crossed, timestamps exact
      pending_ += burst_;
      next_beat_ += period_;
    }
  }
  [[nodiscard]] bool runnable() const override { return pending_ > common::Work{}; }
  common::Work consume(common::SimTime /*now*/, common::Work budget) override {
    const common::Work done = std::min(budget, pending_);
    pending_ -= done;  // draining to zero blocks the VM; the host sees it
    return done;
  }
  [[nodiscard]] common::SimTime next_transition_time(common::SimTime /*now*/) override {
    return next_beat_;  // the host may skip idle time up to the next beat
  }

 private:
  common::SimTime period_;
  common::Work burst_;
  common::SimTime next_beat_;
  common::Work pending_{};
};
// --- END DOC SNIPPET ---

std::unique_ptr<hv::Host> build_host(bool fast_path) {
  hv::HostConfig hc;
  hc.event_driven_fast_path = fast_path;
  hc.trace_stride = common::seconds(1);
  auto host = std::make_unique<hv::Host>(hc, std::make_unique<sched::CreditScheduler>());
  hv::VmConfig vc;
  vc.name = "beat";
  vc.credit = 50.0;
  host->add_vm(vc, std::make_unique<Heartbeat>(common::seconds(5),
                                               common::mf_seconds(0.25)));
  return host;
}

TEST(WorkloadDocExampleTest, RunsIdenticalFastAndSlow) {
  auto slow = build_host(false);
  auto fast = build_host(true);
  slow->run_until(common::seconds(100));
  fast->run_until(common::seconds(100));

  ASSERT_EQ(check::first_divergence(*slow, *fast), "");

  // 19 beats crossed in 100 s (t = 5..95), 0.25 mf-s each, all served.
  EXPECT_DOUBLE_EQ(slow->vm(0).total_work.mf_seconds(), 19 * 0.25);
  // The hint worked: the host really skipped the sleep intervals.
  EXPECT_GT(fast->idle_time().sec(), 90.0);
}

TEST(WorkloadDocExampleTest, CoarsenedAdvanceDeliversIdentically) {
  Heartbeat quantum_by_quantum{common::seconds(3), common::mf_seconds(1.0)};
  Heartbeat coarsened{common::seconds(3), common::mf_seconds(1.0)};
  for (int s = 1; s <= 20; ++s) quantum_by_quantum.advance_to(common::seconds(s));
  coarsened.advance_to(common::seconds(20));
  EXPECT_EQ(quantum_by_quantum.runnable(), coarsened.runnable());
  EXPECT_EQ(quantum_by_quantum.next_transition_time(common::seconds(20)),
            coarsened.next_transition_time(common::seconds(20)));
  EXPECT_DOUBLE_EQ(quantum_by_quantum.consume(common::seconds(20), common::mf_seconds(99)).mfus(),
                   coarsened.consume(common::seconds(20), common::mf_seconds(99)).mfus());
}

}  // namespace
}  // namespace pas
