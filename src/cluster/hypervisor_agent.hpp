// Hypervisor service agent: the Dom0-side workload that absorbs management
// CPU costs the guests never see — today, the per-round page-push/receive
// work of live migration (§2.3's "consolidation is not free" made
// chargeable). The cluster layer injects work into the agent at migration
// round boundaries; the agent then contends for the CPU under the agent's
// credit like any other VM, so migration overhead shows up in busy time,
// energy, and (under contention) in what the guests get.
//
// Contract with the host's fast path: runnable() changes only through
// consume() or an external inject(). Injections happen at cluster sync
// points and are always followed by Host::notify_workload_changed, which
// forces the re-poll the hint below promises away.
#pragma once

#include "common/ids.hpp"
#include "common/units.hpp"
#include "workload/workload.hpp"

namespace pas::cluster {

/// Every cluster host's slot 0: the agent is the first VM a host gets.
inline constexpr common::VmId kAgentSlot = 0;

class HypervisorAgent final : public wl::Workload {
 public:
  void advance_to(common::SimTime now) override { now_ = now; }
  [[nodiscard]] bool runnable() const override { return pending_ > common::Work{}; }

  common::Work consume(common::SimTime /*now*/, common::Work budget) override {
    const common::Work done = budget < pending_ ? budget : pending_;
    pending_ -= done;
    total_ += done;
    return done;
  }

  [[nodiscard]] common::SimTime next_transition_time(common::SimTime /*now*/) override {
    // Self-transitions never happen; inject() callers notify the host.
    return wl::kNoTransition;
  }

  /// Queues `work` of hypervisor CPU (page copying, dirty tracking). The
  /// caller must follow up with Host::notify_workload_changed.
  void inject(common::Work work) { pending_ += work; }

  [[nodiscard]] common::Work pending() const { return pending_; }
  [[nodiscard]] common::Work total_performed() const { return total_; }

 private:
  common::SimTime now_{};
  common::Work pending_{};
  common::Work total_{};
};

}  // namespace pas::cluster
