// Fixed-credit scheduler: the Xen Credit scheduler with caps (§3.1).
//
// Each VM holds a credit balance in microseconds of CPU time. The balance
// refills every accounting period at cap% of the period and is clamped so an
// idle VM cannot hoard bursts. A VM with a positive balance is UNDER and
// eligible; a VM with a non-positive balance is OVER and — this is the
// *fixed* credit semantics — not scheduled at all, even if the CPU would
// otherwise idle. The single exception is the Xen "null credit" case: a VM
// configured with credit 0 has no guarantee and no limit, and may consume
// any slack left by capped VMs.
//
// Priorities: higher priority strictly preempts (the paper runs Dom0 at the
// highest priority with 10 % credit). Equal-priority UNDER VMs are served
// round-robin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypervisor/scheduler.hpp"

namespace pas::sched {

struct CreditSchedulerConfig {
  /// Xen's credit accounting runs every 30 ms.
  common::SimTime accounting_period = common::msec(30);
  /// Maximum hoardable balance, in accounting periods' worth of refill.
  /// The half-period of slack above one refill matters: scheduling quanta
  /// do not divide a VM's per-period slice evenly, so an unclamped
  /// fractional leftover must survive the refill or the VM permanently
  /// loses it (a 70 % VM would converge to 66.7 % with a tight clamp).
  double burst_periods = 1.5;
};

class CreditScheduler final : public hv::Scheduler {
 public:
  explicit CreditScheduler(CreditSchedulerConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "credit"; }
  void add_vm(common::VmId id, const hv::VmConfig& config) override;
  [[nodiscard]] common::VmId pick(common::SimTime now,
                                  std::span<const common::VmId> runnable) override;
  void charge(common::VmId vm, common::SimTime busy) override;
  void account(common::SimTime now) override;
  [[nodiscard]] common::SimTime accounting_period() const override {
    return cfg_.accounting_period;
  }
  void set_cap(common::VmId vm, common::Percent cap_pct) override;
  [[nodiscard]] common::Percent cap(common::VmId vm) const override;
  [[nodiscard]] bool work_conserving() const override { return false; }
  [[nodiscard]] bool refill_settled() const override;
  [[nodiscard]] std::int64_t account_while_rejected(std::span<const common::VmId> rejected,
                                                    std::int64_t max_refills) override;
  [[nodiscard]] common::SimTime export_credit(common::VmId vm) const override;
  void import_credit(common::VmId vm, common::SimTime balance) override;

  /// Current balance (diagnostic / tests).
  [[nodiscard]] common::SimTime balance(common::VmId vm) const;
  /// VMs holding credit per priority tier, highest priority first
  /// (diagnostic / tests: the counts pick() trusts to skip tiers).
  [[nodiscard]] std::span<const std::uint32_t> under_counts() const {
    return under_per_tier_;
  }

 private:
  struct Entry {
    common::Percent cap_pct = 0.0;  // 0 = uncapped (null credit)
    int priority = 0;
    std::int64_t balance_us = 0;
    // Cached refill/burst amounts, recomputed when the cap changes, so the
    // per-tick accounting loop stays integer-only.
    std::int64_t refill_us = 0;
    std::int64_t burst_us = 0;
    std::size_t tier = 0;        // index into tier_prios_ (highest prio = 0)
    bool counted_under = false;  // mirrored into under_per_tier_
  };

  [[nodiscard]] static bool is_under(const Entry& e) {
    return e.cap_pct > 0.0 && e.balance_us > 0;
  }

  /// Recomputes the cached refill/burst amounts from the current cap.
  void recompute_refill(Entry& e) const;

  /// Recomputes the priority-tier table and under-credit counts (add_vm).
  void rebuild_tiers();
  /// Re-syncs `e`'s under-credit membership after a balance/cap change.
  void update_under(Entry& e);

  /// The one rank scan shared by the UNDER and OVER passes: the eligible VM
  /// with the highest priority, ties broken by round-robin distance from
  /// `cursor` (already reduced modulo vm count).
  template <typename Eligible>
  [[nodiscard]] common::VmId scan_best(std::span<const common::VmId> runnable,
                                       std::size_t cursor, Eligible&& eligible) const {
    const std::size_t n = vms_.size();
    common::VmId best = common::kInvalidVm;
    int best_prio = 0;
    std::size_t best_rank = 0;
    for (const common::VmId id : runnable) {
      const Entry& e = vms_[id];
      if (!eligible(e)) continue;
      const std::size_t rank = id >= cursor ? id - cursor : id + n - cursor;
      if (best == common::kInvalidVm || e.priority > best_prio ||
          (e.priority == best_prio && rank < best_rank)) {
        best = id;
        best_prio = e.priority;
        best_rank = rank;
      }
    }
    return best;
  }

  CreditSchedulerConfig cfg_;
  std::vector<Entry> vms_;
  std::vector<int> tier_prios_;                 // distinct priorities, descending
  std::vector<std::uint32_t> under_per_tier_;   // VMs holding credit, per tier
  std::size_t rr_cursor_ = 0;  // rotates to break ties fairly
};

}  // namespace pas::sched
