// Hypervisor VM-scheduler interface.
//
// The host drives any scheduler through four calls:
//   pick    — choose the VM to run now among the runnable set;
//   charge  — account the time the chosen VM actually ran;
//   account — periodic credit refill (the scheduler's accounting tick);
//   set_cap — dynamically adjust a VM's credit (what the PAS controller
//             does when the frequency changes).
//
// Implementations: sched::CreditScheduler (fixed credit, Xen Credit with a
// cap), sched::SedfScheduler (variable credit, Xen SEDF). The PAS
// contribution is NOT a separate scheduler class: per the paper it is the
// credit scheduler plus a credit/DVFS controller (core::PasController).
//
// ── Extension contract ──────────────────────────────────────────────────
// A new scheduler is correct when it upholds five promises; every one is
// load-bearing for an optimization or a cluster feature, so the
// differential suites (host fast-path tests, cluster fuzz + parallel
// sweeps) will catch a violation as a byte-level divergence:
//
//  1. pick() is time-idempotent (doc on pick below). License for the
//     host's fast path to re-ask "still nothing to run?" without
//     perturbing you.
//  2. rejection_is_stable() tells the truth (doc below). `true` lets the
//     host collapse a whole over-cap idle span into one skip; claiming it
//     falsely makes the fast path skip over the instant your scheduler
//     would have revived a VM — a silent divergence. When unsure, return
//     false: it costs wall-clock, never correctness.
//  3. export_credit()/import_credit() conserve (doc below). The cluster's
//     migration engine moves the returned balance verbatim from source to
//     destination; tests/cluster/migration_conservation_test.cpp asserts
//     the fleet-wide sum is unchanged across every hand-off.
//  4. No hidden clocks, no shared state. All state lives in the instance
//     (one per host — the cluster's parallel driver steps hosts on worker
//     threads), and all time arrives through the `now` parameters. A
//     static counter or wall-clock read breaks run-to-run determinism.
//  5. account_while_rejected() is honest (doc below). It lets an over-cap
//     host cross a run of accounting refills in one step; every refill it
//     claims to have applied must leave the rejected set rejected. 0 is
//     always a safe answer and is the default — SEDF and Credit2 keep it;
//     the fixed-credit CreditScheduler overrides it in closed form.
//
// Registration: add the class to sched/scheduler_factory.{hpp,cpp} and to
// the cluster fuzz generator's scheduler switch so the differential tests
// cover it. See docs/ARCHITECTURE.md ("A new scheduler").
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hypervisor/vm.hpp"

namespace pas::hv {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Registers a VM. Ids arrive densely from 0 in creation order.
  virtual void add_vm(common::VmId id, const VmConfig& config) = 0;

  /// Chooses the VM to run at `now` from `runnable` (never empty), or
  /// common::kInvalidVm to leave the CPU idle (a fixed-credit scheduler
  /// idles when every runnable VM has exhausted its credit).
  ///
  /// Idempotence contract (the host's fast path relies on it): repeating
  /// pick with the same runnable set at later instants, with no
  /// charge()/account()/set_cap() in between, must return the same choice
  /// and leave observable scheduler state as if every repeat had been
  /// made. All lazily time-refreshed bookkeeping (SEDF period rollover)
  /// must therefore be a pure function of `now`, not of the call count.
  [[nodiscard]] virtual common::VmId pick(common::SimTime now,
                                          std::span<const common::VmId> runnable) = 0;

  /// Charges `busy` wall time of CPU use to `vm` (credits are a *time*
  /// share; see common/units.hpp).
  virtual void charge(common::VmId vm, common::SimTime busy) = 0;

  /// Accounting boundary: refill credits/periods.
  virtual void account(common::SimTime now) = 0;

  /// How often account() must run.
  [[nodiscard]] virtual common::SimTime accounting_period() const = 0;

  /// Sets the VM's current credit cap (percent of processor time). The PAS
  /// controller raises caps above the configured credit when the frequency
  /// drops — the sum across VMs may then exceed 100 % (paper §4.2).
  virtual void set_cap(common::VmId vm, common::Percent cap_pct) = 0;

  /// The VM's current cap (initially its configured credit).
  [[nodiscard]] virtual common::Percent cap(common::VmId vm) const = 0;

  /// True if unused slices are redistributed to other VMs (variable-credit
  /// / work-conserving semantics).
  [[nodiscard]] virtual bool work_conserving() const = 0;

  /// True if a runnable set this scheduler just rejected (pick returned
  /// kInvalidVm) stays rejected until the next charge()/account()/
  /// set_cap() call — i.e. eligibility never revives with bare time. Lets
  /// the host skip the whole idle span in one step: on a `true` answer an
  /// over-cap tail fast-forwards to the next queue event (the earliest
  /// call that could change eligibility) with the rejected set revalidated
  /// at the boundary.
  ///
  /// What SEDF opts out of, and why: SEDF refills each VM's slice lazily,
  /// as a pure function of `now` (the period rollover happens inside
  /// pick()), so a VM the scheduler rejected at time t can become eligible
  /// at t + δ with no charge/account/set_cap in between — bare time IS a
  /// reviving input. SedfScheduler therefore returns false and the host
  /// idles its over-cap spans quantum by quantum, exactly like the
  /// reference loop. Fixed-credit schedulers (Credit, Credit2) refill only
  /// inside account(), so their rejections are stable and they keep the
  /// default. Defaulting a new scheduler to `false` is always safe;
  /// claiming `true` wrongly makes the fast path diverge from the
  /// reference loop (the fuzz suites catch this as a byte-level diff).
  [[nodiscard]] virtual bool rejection_is_stable() const { return true; }

  /// True if the next account() call would be a no-op on all observable
  /// scheduler state — credits already at their refill fixed point, no
  /// under/over tier moves pending, no cursor advance. The host's bulk
  /// idle skip (Host::skip_idle_to) uses this to prove that replaying the
  /// remaining accounting ticks of an idle span one by one would change
  /// nothing, so the span can be crossed in one step.
  ///
  /// Honesty contract, same shape as rejection_is_stable(): `false` is
  /// always safe (the host just keeps stepping tick by tick); `true` when
  /// account() would actually mutate state silently diverges the sparse
  /// cluster driver from the reference engine, and the fuzz suites catch
  /// it as a byte-level diff. The default is the safe answer; fixed-credit
  /// schedulers override it with their refill fixed-point test.
  [[nodiscard]] virtual bool refill_settled() const { return false; }

  /// Applies up to `max_refills` successive account() calls, each of which
  /// must leave pick(rejected) returning common::kInvalidVm, and returns
  /// how many it applied. The caller guarantees `rejected` was just
  /// rejected and that nothing else (charge, set_cap, a change of the
  /// runnable set) happens across those refills. The host's over-cap skip
  /// uses this to cross every accounting tick that revives no VM in one
  /// step instead of waking at each one to re-ask pick().
  ///
  /// Honesty contract, same shape as refill_settled(): the state after a
  /// return of n must equal the state after n account() calls, and none
  /// of those n may have revived a rejected VM. Under-claiming is always
  /// safe — 0 just makes the host step refill by refill, as the reference
  /// loop does — so that is the default. Applying a refill that revives a
  /// VM (or applying it inexactly) silently diverges the fast path from
  /// the reference loop; the host fast-path suites catch it as a
  /// byte-level diff. CreditScheduler overrides it in closed form.
  [[nodiscard]] virtual std::int64_t account_while_rejected(
      std::span<const common::VmId> rejected, std::int64_t max_refills) {
    (void)rejected;
    (void)max_refills;
    return 0;
  }

  /// Fraction of the *upcoming* run (for the VM just returned by pick())
  /// that converts into useful guest work, in (0,1]. 1.0 for guaranteed
  /// time; variable-credit schedulers may return less for extra-time grants
  /// (hypervisor overhead on borrowed slices: the CPU stays busy — which is
  /// what blocks DVFS down-scaling — but the guest gets less out of it).
  [[nodiscard]] virtual double work_efficiency(common::VmId vm) const {
    (void)vm;
    return 1.0;
  }

  /// Live-migration support: the VM's scheduling state that must travel
  /// with it (today: the credit balance, a *time* share — see
  /// common/units.hpp).
  ///
  /// Call sequence during a migration (cluster::MigrationEngine, through
  /// Host::detach_guest/attach_guest): at the stop-and-copy pause the
  /// SOURCE host reads export_credit(vm) (a pure read — it must not
  /// mutate), which the engine records in the MigrationRecord
  /// (credit_exported), then drains the slot via set_cap(vm, 0) +
  /// import_credit(vm, 0) so credit exists in exactly one place and
  /// refills stop minting into the empty slot. At attach time the
  /// DESTINATION host re-caps the slot and calls import_credit(vm,
  /// exported) (credit_imported). The conservation contract: export
  /// on A == import on B, credit neither minted nor burned in flight.
  /// import_credit therefore REPLACES the slot's balance (no merge, no
  /// clamp to burst limits — a migrating VM must not lose credit in
  /// flight); the engine relies on "import zero == drain".
  ///
  /// Schedulers without a transferable balance keep the defaults: export
  /// zero, ignore imports. SEDF is the in-tree example — its scheduling
  /// state is (deadline, remaining slice) against the HOST-LOCAL period
  /// grid; a deadline from host A is meaningless on host B's clock, and
  /// slices refill within one period anyway, so the honest hand-off is
  /// "carry nothing". The conservation test treats a default-returning
  /// scheduler as conserving trivially.
  [[nodiscard]] virtual common::SimTime export_credit(common::VmId vm) const {
    (void)vm;
    return common::SimTime{};
  }
  virtual void import_credit(common::VmId vm, common::SimTime balance) {
    (void)vm;
    (void)balance;
  }
};

}  // namespace pas::hv
