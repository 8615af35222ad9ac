#include "sched/credit_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace pas::sched {

CreditScheduler::CreditScheduler(CreditSchedulerConfig config) : cfg_(config) {
  if (cfg_.accounting_period.us() <= 0)
    throw std::invalid_argument("CreditScheduler: accounting period must be positive");
  if (cfg_.burst_periods <= 0.0)
    throw std::invalid_argument("CreditScheduler: burst_periods must be positive");
}

void CreditScheduler::recompute_refill(Entry& e) const {
  e.refill_us = static_cast<std::int64_t>(
      std::llround(e.cap_pct / 100.0 * static_cast<double>(cfg_.accounting_period.us())));
  e.burst_us = static_cast<std::int64_t>(std::llround(
      cfg_.burst_periods * e.cap_pct / 100.0 *
      static_cast<double>(cfg_.accounting_period.us())));
}

void CreditScheduler::rebuild_tiers() {
  tier_prios_.clear();
  for (const Entry& e : vms_) tier_prios_.push_back(e.priority);
  std::sort(tier_prios_.begin(), tier_prios_.end(), std::greater<>());
  tier_prios_.erase(std::unique(tier_prios_.begin(), tier_prios_.end()),
                    tier_prios_.end());
  under_per_tier_.assign(tier_prios_.size(), 0);
  for (Entry& e : vms_) {
    e.tier = static_cast<std::size_t>(
        std::lower_bound(tier_prios_.begin(), tier_prios_.end(), e.priority,
                         std::greater<>()) -
        tier_prios_.begin());
    e.counted_under = is_under(e);
    if (e.counted_under) ++under_per_tier_[e.tier];
  }
}

void CreditScheduler::update_under(Entry& e) {
  const bool under = is_under(e);
  if (under == e.counted_under) return;
  if (under)
    ++under_per_tier_[e.tier];
  else
    --under_per_tier_[e.tier];
  e.counted_under = under;
}

void CreditScheduler::add_vm(common::VmId id, const hv::VmConfig& config) {
  if (id != vms_.size())
    throw std::invalid_argument("CreditScheduler: VM ids must be dense");
  if (config.credit < 0.0)
    throw std::invalid_argument("CreditScheduler: negative credit");
  Entry e;
  e.cap_pct = config.credit;
  e.priority = config.priority;
  recompute_refill(e);
  // Start with one refill so a VM can run before the first accounting tick.
  e.balance_us = e.refill_us;
  vms_.push_back(e);
  rebuild_tiers();
}

common::VmId CreditScheduler::pick(common::SimTime /*now*/,
                                   std::span<const common::VmId> runnable) {
  assert(!runnable.empty());
  const std::size_t cursor = rr_cursor_ % vms_.size();  // one modulo per pick
  // Pass 1 (UNDER): highest-priority VM holding positive balance,
  // round-robin within a tier. The incrementally maintained per-tier
  // under-credit counts let the pass skip exhausted tiers without touching
  // the runnable list, so cost is O(tiers holding credit) scans instead of
  // a full pass with modulo arithmetic per candidate.
  common::VmId best = common::kInvalidVm;
  for (std::size_t tier = 0; tier < tier_prios_.size(); ++tier) {
    if (under_per_tier_[tier] == 0) continue;
    best = scan_best(runnable, cursor,
                     [tier](const Entry& e) { return e.tier == tier && is_under(e); });
    if (best != common::kInvalidVm) break;  // higher tiers strictly preempt
  }
  // Pass 2 (OVER): only null-credit VMs may soak up slack.
  if (best == common::kInvalidVm) {
    best = scan_best(runnable, cursor,
                     [](const Entry& e) { return e.cap_pct <= 0.0; });
  }
  if (best != common::kInvalidVm) rr_cursor_ = best + 1;
  return best;
}

void CreditScheduler::charge(common::VmId vm, common::SimTime busy) {
  Entry& e = vms_.at(vm);
  e.balance_us -= busy.us();
  update_under(e);
}

void CreditScheduler::account(common::SimTime /*now*/) {
  for (auto& e : vms_) {
    if (e.cap_pct <= 0.0) {
      e.balance_us = 0;  // null credit: runs only in the OVER pass
    } else {
      e.balance_us = std::min(e.balance_us + e.refill_us, e.burst_us);
    }
    update_under(e);
  }
}

bool CreditScheduler::refill_settled() const {
  // account()'s exact per-entry assignment, phrased as a fixed-point test.
  // NOT `balance == burst`: import_credit is unclamped, so a migrated-in
  // hoard can sit above the burst limit — the next account() would pull it
  // down, which is an observable change.
  for (const Entry& e : vms_) {
    if (e.cap_pct <= 0.0) {
      if (e.balance_us != 0) return false;
    } else {
      if (std::min(e.balance_us + e.refill_us, e.burst_us) != e.balance_us) return false;
    }
  }
  return true;
}

std::int64_t CreditScheduler::account_while_rejected(std::span<const common::VmId> rejected,
                                                     std::int64_t max_refills) {
  // A rejected VM is capped and out of credit. After k refills its balance
  // is min(b + k·refill, burst) — successive clamps collapse into one
  // because refill >= 0 — which stays non-positive exactly while
  // k <= floor(-b / refill). A VM that is pickable now (null credit, or
  // still holding credit) admits no refill at all.
  std::int64_t n = max_refills;
  for (const common::VmId id : rejected) {
    const Entry& e = vms_.at(id);
    if (e.cap_pct <= 0.0 || e.balance_us > 0) return 0;
    if (e.refill_us > 0) n = std::min(n, -e.balance_us / e.refill_us);
  }
  if (n <= 0) return 0;
  // n successive account() calls, per entry in closed form. The balance
  // reaches the burst limit once n·refill covers the headroom; testing
  // that by division keeps n·refill from overflowing when no rejected VM
  // bounds n. An imported hoard above burst (negative headroom) clamps on
  // the first refill, as account() would.
  for (Entry& e : vms_) {
    if (e.cap_pct <= 0.0) {
      e.balance_us = 0;
    } else {
      const std::int64_t headroom = e.burst_us - e.balance_us;
      if (headroom <= 0 || (e.refill_us > 0 && n > headroom / e.refill_us))
        e.balance_us = e.burst_us;
      else
        e.balance_us += n * e.refill_us;
    }
    update_under(e);
  }
  return n;
}

void CreditScheduler::set_cap(common::VmId vm, common::Percent cap_pct) {
  if (cap_pct < 0.0) throw std::invalid_argument("CreditScheduler: negative cap");
  Entry& e = vms_.at(vm);
  e.cap_pct = cap_pct;
  recompute_refill(e);
  // Clamp an existing hoard to the new burst limit so a cap *reduction*
  // (frequency went up) takes effect within one accounting period.
  e.balance_us = std::min(e.balance_us, e.burst_us);
  update_under(e);
}

common::Percent CreditScheduler::cap(common::VmId vm) const { return vms_.at(vm).cap_pct; }

common::SimTime CreditScheduler::export_credit(common::VmId vm) const {
  return common::usec(vms_.at(vm).balance_us);
}

void CreditScheduler::import_credit(common::VmId vm, common::SimTime balance) {
  Entry& e = vms_.at(vm);
  // The imported balance replaces whatever the (previously idle) slot
  // accrued; it is NOT clamped to the burst limit — a migrating VM must not
  // lose credit in flight.
  e.balance_us = balance.us();
  update_under(e);
}

common::SimTime CreditScheduler::balance(common::VmId vm) const {
  return common::usec(vms_.at(vm).balance_us);
}

}  // namespace pas::sched
