// The virtualized host: CPU + hypervisor scheduler + VMs + measurement.
//
// This is the substrate that stands in for "Xen 4.1.2 on a DELL Optiplex
// 755". Simulated time advances in scheduling quanta (default 10 ms, Xen's
// tick). Within each quantum the scheduler picks a VM, the VM performs work
// at the current frequency, and the time is charged against its credit.
// Periodic machinery — credit accounting, monitor windows, governor
// sampling, controller ticks, trace sampling — runs off a discrete-event
// queue interleaved with the quantum loop.
//
// Fast path: when a quantum ends with the CPU idle and no VM picked (no
// runnable VM, or every runnable VM over its cap), the host jumps simulated
// time in one step to the next instant anything can change — the earliest
// queue event, `until`, or the first quantum boundary at or after a
// workload's self-transition hint (see Workload::next_transition_time) —
// instead of idling quantum by quantum. An over-cap tail first crosses, in
// closed form, every accounting refill the scheduler proves revives none
// of the rejected VMs (Scheduler::account_while_rejected), so a VM deep in
// credit debt costs one step, not one wake-up per refill. The runnable set
// is maintained incrementally from those hints rather than re-polled per
// quantum. These optimizations reproduce the slow-stepped loop exactly
// (same event order, same traces); HostConfig::event_driven_fast_path
// turns them off for A/B reference runs.
//
// Determinism: given the same configuration and workload seeds, a run is
// bit-for-bit reproducible.
//
// No-shared-state contract (what lets the cluster's parallel driver step
// hosts on worker threads): a Host owns every piece of state it touches
// while advancing — scheduler, CPU/power models, workloads, event queue,
// meters — and run_until reads and writes nothing outside the object.
// Conversely, NOTHING outside may mutate the host between the entry and
// exit of run_until: swap_workload, the guest hand-off (detach_guest,
// attach_guest), notify_workload_changed and agent work injection are
// segment-boundary operations, legal only while no run_until is in
// flight. The contract is enforced, not just documented —
// those mutators throw std::logic_error when called mid-advance (see
// docs/ARCHITECTURE.md, "parallel ≡ serial").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "cpu/cpu_model.hpp"
#include "cpu/cpufreq.hpp"
#include "cpu/power_model.hpp"
#include "governor/governor.hpp"
#include "hypervisor/controller.hpp"
#include "hypervisor/scheduler.hpp"
#include "hypervisor/vm.hpp"
#include "metrics/energy_meter.hpp"
#include "metrics/load_monitor.hpp"
#include "metrics/trace_recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::hv {

struct HostConfig {
  cpu::FrequencyLadder ladder = cpu::FrequencyLadder::paper_default();
  /// Scheduling quantum (Xen credit runs 10 ms ticks).
  common::SimTime quantum = common::msec(10);
  /// Load-monitor window and smoothing depth (paper footnote 5: average of
  /// three successive utilizations).
  common::SimTime monitor_window = common::seconds(1);
  std::size_t monitor_depth = 3;
  /// Stride between trace samples; 0 disables tracing.
  common::SimTime trace_stride = common::seconds(10);
  cpu::PowerModel power = cpu::PowerModel::desktop_2008();
  common::SimTime cpufreq_transition_latency = common::usec(50);
  /// Optional true-speed override installed into the CPU model (see
  /// cpu::CpuModel::set_speed_override; used by calibration's turbo
  /// machines).
  cpu::CpuModel::SpeedFn speed_override;
  /// Event-driven fast path (see file header). Produces identical
  /// simulation results; disable only for reference slow-stepped runs
  /// (regression tests, perf baselines).
  bool event_driven_fast_path = true;
};

class Host {
 public:
  Host(HostConfig config, std::unique_ptr<Scheduler> scheduler);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Adds a VM and returns its dense id. Callable before the first
  /// run_until AND between segments of a running host (a cluster creating
  /// a migration/recovery slot lazily): the mid-run path grows the
  /// runnable-tracking arrays, widens the trace recorder (historical rows
  /// pad with zeros) and re-seats the controller view. Like every
  /// cross-host mutation, it must wait for the segment boundary — calling
  /// it while the host is advancing throws.
  common::VmId add_vm(VmConfig config, std::unique_ptr<wl::Workload> workload);

  /// Installs a DVFS governor (optional — PAS runs without one).
  void set_governor(std::unique_ptr<gov::Governor> governor);

  /// Installs a credit/DVFS controller (the PAS hook; optional).
  void set_controller(std::unique_ptr<Controller> controller);

  /// Advances simulation to absolute time `until`.
  void run_until(common::SimTime until);

  /// Earliest future instant at which this host can perform observable
  /// work, or now() when that cannot be proven. A return beyond now()
  /// is a *quiescence certificate*: the host is provably inert — no
  /// runnable VM, no expired transition hint, no governor/controller,
  /// scheduler credits at their refill fixed point, monitor reading
  /// all-zero — until the earliest workload self-transition hint. The
  /// sparse cluster driver (Cluster::advance_hosts) dispatches a host
  /// only when this falls at or before the segment target and otherwise
  /// leaves it lagging, to be caught up later by skip_idle_to. The
  /// certificate is cached and invalidated by every mutation hatch
  /// (run_until, add_vm, notify_workload_changed, the non-const
  /// accessors), so calling this per segment is O(1) for an undisturbed
  /// idle host.
  [[nodiscard]] common::SimTime next_activity_time();

  /// Bulk-advances a quiescent host to `target`, byte-identical to
  /// run_until(target): the same per-P-state energy integers (one idle
  /// record for the span — the meter is chunking-independent), the exact
  /// trace rows (bulk zero-fill at the trace stride), the exact relative
  /// (time, seq) order of the re-armed periodic events, all in closed form
  /// — O(periodic tasks + trace rows), whatever the span. Precondition:
  /// next_activity_time() >= target; falls back to run_until(target)
  /// when the certificate does not cover the span, so misuse costs time,
  /// never correctness.
  void skip_idle_to(common::SimTime target);

  /// Replaces a VM slot's workload and returns the previous one, leaving
  /// cap and balance alone (a guest moving between slots goes through
  /// detach_guest/attach_guest, which carry its credit too). Callable
  /// between run_until calls only (hosts in a cluster are always
  /// synchronized to a common instant at that point); calling it
  /// mid-advance throws std::logic_error — the no-shared-state contract.
  /// The fast path's cached runnable state for the slot is invalidated, so
  /// the next quantum re-polls the new workload exactly as the
  /// slow-stepped loop would.
  std::unique_ptr<wl::Workload> swap_workload(common::VmId id,
                                              std::unique_ptr<wl::Workload> replacement);

  /// A guest lifted off its slot: the workload and the credit balance it
  /// held there.
  struct DetachedGuest {
    std::unique_ptr<wl::Workload> workload;
    common::SimTime balance{};
  };

  /// Takes the guest off `slot`: an IdleGuest parks there, the balance is
  /// read (Scheduler::export_credit), and cap and balance drop to zero, so
  /// credit exists in one place only and refills stop minting into the
  /// empty slot. Segment-boundary only, like swap_workload.
  DetachedGuest detach_guest(common::VmId slot);

  /// Puts `workload` into `slot`, capped by recap() and over `balance`
  /// (Scheduler::import_credit, which replaces the slot's balance).
  /// Segment-boundary only, like swap_workload.
  void attach_guest(common::VmId slot, std::unique_ptr<wl::Workload> workload,
                    common::SimTime balance);

  /// Eq. 4: caps `slot` at its purchased VmConfig::credit compensated for
  /// the current P-state, so the VM keeps the computing capacity it bought.
  /// Segment-boundary only, like swap_workload.
  void recap(common::VmId slot);

  /// Declares that a workload's state was changed externally (work injected
  /// into a hypervisor agent, a profile rewritten): the fast path drops its
  /// cached runnable flag and transition hint for the slot and re-polls at
  /// the next quantum. No-op in reference mode, which re-polls everything
  /// anyway.
  void notify_workload_changed(common::VmId id);

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] const Vm& vm(common::VmId id) const { return vms_.at(id); }
  // The non-const accessors are mutation hatches (migration credit moves,
  // the cluster manager's DVFS requests, calibration overrides), so each
  // drops the cached quiescence certificate — see next_activity_time().
  [[nodiscard]] wl::Workload& workload(common::VmId id) {
    activity_dirty_ = true;
    return *vms_.at(id).workload;
  }
  [[nodiscard]] Scheduler& scheduler() {
    activity_dirty_ = true;
    return *scheduler_;
  }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] cpu::Cpufreq& cpufreq() {
    activity_dirty_ = true;
    return cpufreq_;
  }
  [[nodiscard]] const cpu::Cpufreq& cpufreq() const { return cpufreq_; }
  [[nodiscard]] const cpu::CpuModel& cpu() const { return cpu_; }
  [[nodiscard]] cpu::CpuModel& cpu_mutable() {
    activity_dirty_ = true;
    return cpu_;
  }
  [[nodiscard]] const metrics::LoadMonitor& monitor() const { return monitor_; }
  [[nodiscard]] const metrics::EnergyMeter& energy() const { return energy_; }
  [[nodiscard]] const metrics::TraceRecorder& trace() const { return *trace_; }
  [[nodiscard]] gov::Governor* governor() { return governor_.get(); }
  [[nodiscard]] Controller* controller() { return controller_.get(); }
  /// Total CPU-idle time so far.
  [[nodiscard]] common::SimTime idle_time() const { return idle_total_; }
  /// Accounting refills the over-cap fast path applied in closed form
  /// (Scheduler::account_while_rejected) instead of waking for each; 0
  /// in reference mode.
  [[nodiscard]] std::uint64_t refills_collapsed() const { return refills_collapsed_; }
  /// Fraction of the current monitor window each VM spent wanting the CPU
  /// (running or runnable); ~1 means saturated. Index = VmId.
  [[nodiscard]] double window_wanting_fraction(common::VmId id) const;
  /// Saturation flag captured at the close of the last monitor window.
  [[nodiscard]] bool vm_saturated_last_window(common::VmId id) const;
  /// True if any VM's saturation flag is set — a host with none has no
  /// SLA-relevant window to report (SlaChecker ignores unsaturated ones).
  [[nodiscard]] bool any_saturated_last_window() const {
    return any_saturated_last_window_;
  }

 private:
  /// How the last quantum's scheduling loop ended; drives the fast path.
  /// A quantum whose tail found no pickable VM leaves the host in a state
  /// that cannot change until the next event or workload transition — the
  /// license to skip time.
  enum class IdleTail {
    kNone,        // the slice was filled with picked work
    kNoRunnable,  // the loop stopped because nothing was runnable
    kOverCap,     // runnable VMs remained but every one was over its cap
  };

  /// Throws std::logic_error naming `op` while run_until is in flight (the
  /// no-shared-state contract).
  void require_segment_boundary(const char* op) const;
  void install_periodic_tasks();
  void run_quantum(common::SimTime slice_end);
  /// Re-polls workloads whose transition hint expired (or that just ran)
  /// and rebuilds `active_ids_` when membership changed. `advance_runnable`
  /// additionally advances still-runnable workloads to now_ — required
  /// before a quantum that may consume them, unnecessary for a pure
  /// membership check (the skip validation).
  void refresh_workloads(bool advance_runnable = true);
  /// Earliest instant any workload may change runnable-state on its own.
  [[nodiscard]] common::SimTime earliest_transition_hint() const;
  /// First quantum boundary on the grid anchored at now_ at or after
  /// `hint` — where the slow-stepped loop would next poll the workloads.
  [[nodiscard]] common::SimTime next_poll_boundary(common::SimTime hint) const;
  /// Jumps `now_` across provably idle quanta (fast path).
  void skip_idle_time(common::SimTime until);
  /// Over-cap part of skip_idle_time: applies, in closed form, every
  /// accounting refill before `until`, `hint` and the other tasks' next
  /// fires that leaves the rejected set rejected, landing on the last one.
  void collapse_refills(common::SimTime until, common::SimTime hint);
  /// Recomputes the quiescence certificate (see next_activity_time()).
  [[nodiscard]] common::SimTime compute_next_activity() const;
  void close_monitor_window(common::SimTime now);
  void governor_tick(common::SimTime now);
  void controller_tick(common::SimTime now);
  void trace_tick(common::SimTime now);

  HostConfig cfg_;
  cpu::CpuModel cpu_;
  cpu::Cpufreq cpufreq_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<gov::Governor> governor_;
  std::unique_ptr<Controller> controller_;

  std::vector<Vm> vms_;
  std::vector<common::VmId> vm_ids_;
  std::vector<common::Percent> initial_credits_;
  std::vector<bool> saturated_last_window_;
  bool any_saturated_last_window_ = false;  // OR of the flags above
  HostView view_;

  metrics::LoadMonitor monitor_;
  metrics::EnergyMeter energy_;
  std::unique_ptr<metrics::TraceRecorder> trace_;

  sim::EventQueue events_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  bool tasks_installed_ = false;
  /// Index of the trace-sampling task within tasks_ (the only periodic
  /// whose firing writes anywhere during a bulk skip), or npos.
  std::size_t trace_task_index_ = static_cast<std::size_t>(-1);

  // Cached quiescence certificate (next_activity_time). Dropped by every
  // mutation hatch; only read/written between segments on the
  // coordinating thread, so a plain bool is race-free.
  common::SimTime activity_cache_{};
  bool activity_dirty_ = true;

  // Scratch for skip_idle_to's closed-form fire count (allocation-free
  // after the first skip).
  std::vector<sim::PendingFire> skip_fires_;
  std::vector<std::size_t> skip_order_;
  std::vector<common::SimTime> skip_trace_times_;
  // True while run_until is in flight; guards the no-shared-state contract
  // (external mutators throw instead of racing a possibly-parallel segment).
  // Atomic because the violation it exists to catch IS a cross-thread race —
  // a plain bool would make the detection itself undefined. Relaxed order
  // suffices: correct runs only touch it from one thread at a time (the
  // pool barrier sequences segments), and for a violating run any
  // detection is best-effort by nature.
  std::atomic<bool> advancing_{false};
  common::SimTime now_{};
  common::SimTime idle_total_{};

  // Governor bookkeeping: cumulative busy at the previous governor sample.
  common::SimTime gov_last_sample_time_{};
  common::SimTime gov_last_cum_busy_{};

  // --- incremental runnable tracking (fast path) ---
  // Cached runnable() per VM, the workload's next self-transition hint, and
  // a "consumed last quantum" flag forcing a re-poll.
  std::vector<std::uint8_t> wl_runnable_;
  std::vector<common::SimTime> wl_hint_;
  std::vector<std::uint8_t> wl_ran_;
  std::vector<common::VmId> active_ids_;  // runnable VMs, ascending id
  bool active_dirty_ = true;
  // Aggregates over the per-VM flags, letting refresh_workloads prove the
  // full scan a no-op in O(1): any_ran_ is true while some wl_ran_ flag is
  // set, hint_floor_ is a lower bound on every wl_hint_. With no consumed
  // slot and no expired hint the scan would only deliver arrivals to
  // still-runnable VMs — so only the active list is walked.
  bool any_ran_ = true;
  common::SimTime hint_floor_{};

  // Set by run_quantum: how its scheduling loop ended, and — for an
  // over-cap tail — the exact runnable set the scheduler rejected (the
  // skip is only valid while that set is unchanged).
  IdleTail idle_tail_ = IdleTail::kNone;
  std::vector<common::VmId> idle_break_set_;

  // Scratch for the quantum loop (active minus blocked-this-slice).
  std::vector<common::VmId> runnable_scratch_;

  // Scratch for trace_tick (reused; keeps sampling allocation-free).
  std::vector<double> trace_scratch_global_, trace_scratch_absolute_,
      trace_scratch_credit_, trace_scratch_saturated_;

  // Accounting refills collapse_refills applied (refills_collapsed()).
  std::uint64_t refills_collapsed_ = 0;
};

}  // namespace pas::hv
