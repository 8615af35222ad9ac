#include "hypervisor/host.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <string>

#include "core/compensation.hpp"
#include "workload/synthetic.hpp"

namespace pas::hv {

Host::Host(HostConfig config, std::unique_ptr<Scheduler> scheduler)
    : cfg_(config),
      cpu_(config.ladder),
      cpufreq_(cpu_, config.cpufreq_transition_latency),
      scheduler_(std::move(scheduler)),
      monitor_(config.monitor_window, config.monitor_depth),
      energy_(config.power, config.ladder) {
  if (scheduler_ == nullptr) throw std::invalid_argument("Host: scheduler required");
  if (cfg_.quantum.us() <= 0) throw std::invalid_argument("Host: quantum must be positive");
  if (cfg_.speed_override) cpu_.set_speed_override(cfg_.speed_override);
}

Host::~Host() = default;

void Host::require_segment_boundary(const char* op) const {
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error(std::string("Host: ")
                               .append(op)
                               .append(" while the host is advancing "
                                       "(cross-host mutation must wait for the segment boundary)"));
}

common::VmId Host::add_vm(VmConfig config, std::unique_ptr<wl::Workload> workload) {
  require_segment_boundary("add_vm");
  if (workload == nullptr) throw std::invalid_argument("Host: workload required");
  const auto id = static_cast<common::VmId>(vms_.size());
  Vm vm;
  vm.id = id;
  vm.config = std::move(config);
  vm.workload = std::move(workload);
  monitor_.register_vm(id);
  scheduler_->add_vm(id, vm.config);
  initial_credits_.push_back(vm.config.credit);
  saturated_last_window_.push_back(false);
  vm_ids_.push_back(id);
  vms_.push_back(std::move(vm));
  if (tasks_installed_) {
    // Mid-run arrival: a slot created between segments. Seed its runnable
    // tracking as "just ran, hint expired" so the next refresh polls it,
    // widen the trace (old rows pad with zeros to the new width), and
    // re-seat the view — its spans over vm_ids_/initial_credits_ may have
    // dangled on the push_back reallocations above.
    wl_runnable_.push_back(0);
    wl_hint_.push_back(common::SimTime{});
    wl_ran_.push_back(1);
    any_ran_ = true;
    hint_floor_ = common::SimTime{};
    active_dirty_ = true;
    activity_dirty_ = true;
    trace_->grow_vm_count(vms_.size());
    view_ = HostView{&cpufreq_, &monitor_, scheduler_.get(), vm_ids_, initial_credits_};
    if (controller_) controller_->attach(view_);
  }
  return id;
}

std::unique_ptr<wl::Workload> Host::swap_workload(common::VmId id,
                                                  std::unique_ptr<wl::Workload> replacement) {
  require_segment_boundary("swap_workload");
  if (replacement == nullptr) throw std::invalid_argument("Host: replacement workload required");
  Vm& vm = vms_.at(id);
  std::unique_ptr<wl::Workload> old = std::move(vm.workload);
  vm.workload = std::move(replacement);
  vm.blocked_this_slice = false;
  notify_workload_changed(id);
  return old;
}

Host::DetachedGuest Host::detach_guest(common::VmId slot) {
  DetachedGuest guest;
  guest.workload = swap_workload(slot, std::make_unique<wl::IdleGuest>());
  guest.balance = scheduler_->export_credit(slot);
  scheduler_->set_cap(slot, 0.0);
  scheduler_->import_credit(slot, common::SimTime{});
  return guest;
}

void Host::attach_guest(common::VmId slot, std::unique_ptr<wl::Workload> workload,
                        common::SimTime balance) {
  (void)swap_workload(slot, std::move(workload));
  recap(slot);
  scheduler_->import_credit(slot, balance);
}

void Host::recap(common::VmId slot) {
  require_segment_boundary("recap");
  activity_dirty_ = true;
  scheduler_->set_cap(slot, core::compensated_credit(vms_.at(slot).config.credit, cpu_.ladder(),
                                                     cpu_.current_index()));
}

void Host::notify_workload_changed(common::VmId id) {
  require_segment_boundary("notify_workload_changed");
  if (id >= vms_.size()) throw std::out_of_range("Host: bad VM id");
  activity_dirty_ = true;
  if (!tasks_installed_) return;  // the first quantum polls everything anyway
  // Treat the slot exactly like one that just ran: the cached runnable flag
  // and transition hint may be stale, so the next refresh re-polls it.
  wl_ran_[id] = 1;
  any_ran_ = true;
}

void Host::set_governor(std::unique_ptr<gov::Governor> governor) {
  if (tasks_installed_) throw std::logic_error("Host: set_governor after run started");
  governor_ = std::move(governor);
  activity_dirty_ = true;
}

void Host::set_controller(std::unique_ptr<Controller> controller) {
  if (tasks_installed_) throw std::logic_error("Host: set_controller after run started");
  controller_ = std::move(controller);
  activity_dirty_ = true;
}

double Host::window_wanting_fraction(common::VmId id) const {
  const double win = static_cast<double>(cfg_.monitor_window.us());
  return static_cast<double>(vms_.at(id).window_wanting.us()) / win;
}

bool Host::vm_saturated_last_window(common::VmId id) const {
  return saturated_last_window_.at(id);
}

void Host::install_periodic_tasks() {
  view_ = HostView{&cpufreq_, &monitor_, scheduler_.get(), vm_ids_, initial_credits_};
  trace_ = std::make_unique<metrics::TraceRecorder>(vms_.size());

  // Incremental runnable tracking: everything starts "expired" so the first
  // quantum polls every workload.
  wl_runnable_.assign(vms_.size(), 0);
  wl_hint_.assign(vms_.size(), common::SimTime{});
  wl_ran_.assign(vms_.size(), 0);
  any_ran_ = true;  // conservative: the first refresh must scan everything
  hint_floor_ = common::SimTime{};
  active_ids_.reserve(vms_.size());
  runnable_scratch_.reserve(vms_.size());
  active_dirty_ = true;

  trace_scratch_global_.reserve(vms_.size());
  trace_scratch_absolute_.reserve(vms_.size());
  trace_scratch_credit_.reserve(vms_.size());
  trace_scratch_saturated_.reserve(vms_.size());

  // Creation order fixes same-timestamp firing order: accounting, then the
  // monitor window close, then governor, then controller, then tracing —
  // so policies always observe a freshly closed window.
  const common::SimTime acct = scheduler_->accounting_period();
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      events_, acct, acct, [this](common::SimTime t) { scheduler_->account(t); }));

  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      events_, cfg_.monitor_window, cfg_.monitor_window,
      [this](common::SimTime t) { close_monitor_window(t); }));

  if (governor_) {
    const common::SimTime p = governor_->period();
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        events_, p, p, [this](common::SimTime t) { governor_tick(t); }));
  }
  if (controller_) {
    controller_->attach(view_);
    const common::SimTime p = controller_->period();
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        events_, p, p, [this](common::SimTime t) { controller_tick(t); }));
  }
  if (cfg_.trace_stride.us() > 0) {
    trace_task_index_ = tasks_.size();
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        events_, cfg_.trace_stride, cfg_.trace_stride,
        [this](common::SimTime t) { trace_tick(t); }));
  }
}

void Host::close_monitor_window(common::SimTime now) {
  any_saturated_last_window_ = false;
  for (const auto& vm : vms_) {
    // A VM that wanted the CPU for (almost) the whole window is saturated:
    // it would have used more capacity had the scheduler granted it.
    const bool saturated = window_wanting_fraction(vm.id) >= 0.95;
    saturated_last_window_[vm.id] = saturated;
    any_saturated_last_window_ = any_saturated_last_window_ || saturated;
  }
  monitor_.close_window(now);
  for (auto& vm : vms_) vm.window_wanting = common::SimTime{};
}

void Host::governor_tick(common::SimTime now) {
  assert(governor_ != nullptr);
  const common::SimTime span = now - gov_last_sample_time_;
  if (span.us() <= 0) return;
  const common::SimTime busy = monitor_.cumulative_busy() - gov_last_cum_busy_;
  gov::Sample s;
  s.now = now;
  s.util = std::clamp(
      static_cast<double>(busy.us()) / static_cast<double>(span.us()), 0.0, 1.0);
  s.avg_util = monitor_.avg_global_load_pct() / 100.0;
  s.current_index = cpufreq_.current_index();
  const std::size_t target = governor_->decide(s, cpu_.ladder());
  cpufreq_.request(target);
  gov_last_sample_time_ = now;
  gov_last_cum_busy_ = monitor_.cumulative_busy();
}

void Host::controller_tick(common::SimTime now) {
  assert(controller_ != nullptr);
  controller_->on_tick(now, view_);
}

void Host::trace_tick(common::SimTime now) {
  // The column scratch buffers are reused across ticks, so sampling only
  // allocates when the recorder's own columns grow.
  trace_scratch_global_.clear();
  trace_scratch_absolute_.clear();
  trace_scratch_credit_.clear();
  trace_scratch_saturated_.clear();
  for (const auto& vm : vms_) {
    trace_scratch_global_.push_back(monitor_.vm_global_load_pct(vm.id));
    trace_scratch_absolute_.push_back(monitor_.vm_absolute_load_pct(vm.id));
    trace_scratch_credit_.push_back(scheduler_->cap(vm.id));
    trace_scratch_saturated_.push_back(saturated_last_window_[vm.id] ? 1.0 : 0.0);
  }
  trace_->append(now, cpu_.current_freq().value(), monitor_.global_load_pct(),
                 monitor_.absolute_load_pct(), trace_scratch_global_,
                 trace_scratch_absolute_, trace_scratch_credit_,
                 trace_scratch_saturated_);
}

void Host::refresh_workloads(bool advance_runnable) {
  if (!cfg_.event_driven_fast_path) {
    // Reference mode: poll every workload every quantum — the pre-refactor
    // loop's cost model (and trivially its semantics).
    for (auto& vm : vms_) {
      vm.workload->advance_to(now_);
      const bool runnable = vm.workload->runnable();
      if (runnable != static_cast<bool>(wl_runnable_[vm.id])) {
        wl_runnable_[vm.id] = runnable ? 1 : 0;
        active_dirty_ = true;
      }
      vm.blocked_this_slice = false;
    }
  } else if (!any_ran_ && hint_floor_ > now_) {
    // Sparse refresh: no slot consumed a slice since the last full scan
    // and no transition hint has expired, so the scan below would only
    // deliver arrivals to still-runnable VMs — every other branch is
    // provably dead (a set blocked_this_slice implies a set wl_ran_, so
    // those flags are all clear too). Walk just the active list; the
    // runnable set cannot move, so active_ids_ stays valid.
    assert(!active_dirty_);
    if (advance_runnable)
      for (const common::VmId id : active_ids_) vms_[id].workload->advance_to(now_);
    return;
  } else {
    common::SimTime floor = wl::kNoTransition;
    for (auto& vm : vms_) {
      const auto id = vm.id;
      if (wl_ran_[id] || wl_hint_[id] <= now_) {
        // The VM was consumed last quantum, or its transition hint expired:
        // re-poll runnable-ness and refresh the hint.
        vm.workload->advance_to(now_);
        const bool runnable = vm.workload->runnable();
        if (runnable != static_cast<bool>(wl_runnable_[id])) {
          wl_runnable_[id] = runnable ? 1 : 0;
          active_dirty_ = true;
        }
        wl_hint_[id] = vm.workload->next_transition_time(now_);
        wl_ran_[id] = 0;
      } else if (advance_runnable && wl_runnable_[id]) {
        // Still runnable (the hint guarantees no self-transition yet), but
        // it may be scheduled this quantum, so arrivals must be delivered.
        vm.workload->advance_to(now_);
      }
      // Idle VMs with an unexpired hint are left untouched entirely — the
      // advance_to coarsening invariant (workload.hpp) makes the deferred
      // catch-up call indistinguishable.
      vm.blocked_this_slice = false;
      floor = std::min(floor, wl_hint_[id]);
    }
    // The scan cleared every ran flag and re-polled every expired hint;
    // the aggregates are exact again until the next consume/notify.
    any_ran_ = false;
    hint_floor_ = floor;
  }
  if (active_dirty_) {
    active_ids_.clear();
    for (const auto& vm : vms_)
      if (wl_runnable_[vm.id]) active_ids_.push_back(vm.id);
    active_dirty_ = false;
  }
}

common::SimTime Host::earliest_transition_hint() const {
  common::SimTime earliest = wl::kNoTransition;
  for (const common::SimTime h : wl_hint_) earliest = std::min(earliest, h);
  return earliest;
}

common::SimTime Host::next_poll_boundary(common::SimTime hint) const {
  const std::int64_t k =
      (hint.us() - now_.us() + cfg_.quantum.us() - 1) / cfg_.quantum.us();
  return now_ + cfg_.quantum * k;
}

void Host::run_quantum(common::SimTime slice_end) {
  refresh_workloads();

  idle_tail_ = IdleTail::kNone;
  bool any_blocked = false;
  common::SimTime t = now_;
  while (t < slice_end) {
    // The schedulable set is the active (runnable) set minus VMs that
    // blocked earlier in this slice; the copy is only taken once a block
    // actually happens. Reference mode keeps the pre-refactor behaviour:
    // re-poll every workload and rebuild the set on every iteration.
    std::span<const common::VmId> runnable = active_ids_;
    if (!cfg_.event_driven_fast_path) {
      runnable_scratch_.clear();
      for (auto& vm : vms_)
        if (!vm.blocked_this_slice && vm.workload->runnable())
          runnable_scratch_.push_back(vm.id);
      runnable = runnable_scratch_;
    } else if (any_blocked) {
      runnable_scratch_.clear();
      for (const common::VmId id : active_ids_)
        if (!vms_[id].blocked_this_slice) runnable_scratch_.push_back(id);
      runnable = runnable_scratch_;
    }
    if (runnable.empty()) {
      idle_tail_ = IdleTail::kNoRunnable;
      break;
    }

    const common::VmId chosen = scheduler_->pick(t, runnable);
    const common::SimTime span = slice_end - t;
    if (chosen == common::kInvalidVm) {
      // Fixed-credit semantics: runnable VMs exist but all are over cap.
      // They keep "wanting" the CPU while it idles.
      for (common::VmId r : runnable) vms_[r].window_wanting += span;
      idle_tail_ = IdleTail::kOverCap;
      idle_break_set_.assign(runnable.begin(), runnable.end());
      break;
    }
    assert(std::find(runnable.begin(), runnable.end(), chosen) != runnable.end());

    Vm& v = vms_[chosen];
    // Extra-time grants may convert to guest work at reduced efficiency;
    // the wall time is occupied either way (the CPU looks busy to DVFS).
    const double eff = scheduler_->work_efficiency(chosen);
    assert(eff > 0.0 && eff <= 1.0);
    const common::Work budget = cpu_.work_for(span) * eff;
    const common::Work done = v.workload->consume(t, budget);
    wl_ran_[chosen] = 1;  // consume may have changed runnable-ness: re-poll
    any_ran_ = true;
    common::SimTime busy;
    if (done >= budget) {
      busy = span;
    } else {
      v.blocked_this_slice = true;
      any_blocked = true;
      busy = std::min(cpu_.time_for(common::Work{done.mfus() / eff}), span);
    }
    if (busy.us() == 0) {
      if (done <= common::Work{}) continue;  // spurious wakeup: retry others
      busy = common::usec(1);
    }

    scheduler_->charge(chosen, busy);
    monitor_.record_run(chosen, busy, done);
    v.total_busy += busy;
    v.total_work += done;
    for (common::VmId r : runnable) vms_[r].window_wanting += busy;
    t += busy;
  }

  // Events never fire mid-slice, so the whole slice ran at one P-state.
  idle_total_ += slice_end - t;
  energy_.record(slice_end - now_, cpu_.current_index(), t - now_);
}

void Host::skip_idle_time(common::SimTime until) {
  // The quantum that just ended at now_ finished with no pickable VM. If
  // that is still true at this boundary, nothing can happen until (a) the
  // next queue event (accounting refill, window close, governor/controller
  // tick, trace sample) — the only things that change credits or frequency
  // — (b) a workload self-transition, which the slow-stepped loop would
  // only observe at the first quantum boundary at or after it, or (c)
  // `until`. Jump there in one step.
  //
  // "Still true" is validated by re-polling the workloads exactly as the
  // next quantum would: an empty active set extends a no-runnable tail; an
  // unchanged active set extends an over-cap tail (the scheduler already
  // rejected precisely that set, and no charge/account ran since, so
  // re-asking it would both return the same answer and leave the same
  // state — the pick idempotence contract, scheduler.hpp).
  if (idle_tail_ == IdleTail::kOverCap && !scheduler_->rejection_is_stable())
    return;  // the rejection may expire with bare time (SEDF period refill)
  refresh_workloads(/*advance_runnable=*/false);
  if (idle_tail_ == IdleTail::kNoRunnable) {
    if (!active_ids_.empty()) return;
  } else {
    if (active_ids_ != idle_break_set_) return;
  }

  const common::SimTime hint = earliest_transition_hint();

  if (idle_tail_ == IdleTail::kOverCap) {
    collapse_refills(until, hint);
    // Queue events change credits (accounting refill, controller set_cap),
    // so past the refills collapsed above, an over-cap skip must stop at
    // the next one.
    common::SimTime target = std::min(until, events_.next_event_time(until));
    if (hint < target) {
      if (hint <= now_) return;  // an "unknown" hint: re-poll every quantum
      target = std::min(target, next_poll_boundary(hint));
    }
    if (target <= now_) return;
    const common::SimTime span = target - now_;
    // Same per-quantum accrual the slow loop applies: over-cap VMs want the
    // CPU for every skipped instant. The hint bound guarantees the active
    // set is constant across the whole span.
    for (common::VmId r : active_ids_) vms_[r].window_wanting += span;
    idle_total_ += span;
    energy_.record(span, cpu_.current_index(), common::SimTime{});
    now_ = target;
    return;
  }

  // No-runnable skip: queue events cannot make a workload runnable (they
  // touch credits, frequency, monitor and trace — never workload state), so
  // the skip may cross them. Hop event to event so each idle segment is
  // accounted at the frequency then in force (a governor tick mid-skip
  // changes the idle power draw), firing handlers at their exact times in
  // the exact order the slow loop would. The quantum grid re-anchors at
  // every event crossed — an off-grid event cuts the reference loop's
  // slice short and later boundaries shift with it — so the hint wake-up
  // boundary is recomputed per segment from the segment's own start.
  while (now_ < until) {
    const common::SimTime seg_end = std::min(until, events_.next_event_time(until));
    common::SimTime stop = seg_end;
    if (hint < seg_end) {
      if (hint <= now_) break;  // the slow loop polls at this very boundary
      stop = std::min(stop, next_poll_boundary(hint));
    }
    if (stop > now_) {
      const common::SimTime span = stop - now_;
      idle_total_ += span;
      energy_.record(span, cpu_.current_index(), common::SimTime{});
      now_ = stop;
    }
    if (stop < seg_end) break;  // woke for the hint: re-poll in run_until
    events_.run_until(now_);
  }
}

void Host::collapse_refills(common::SimTime until, common::SimTime hint) {
  // An over-cap tail would wake at every accounting refill, fire it, run
  // one idle quantum in which pick() rejects the same set again, and hop
  // to the next refill. Every refill the scheduler proves non-reviving
  // (account_while_rejected) is crossed here in one step instead. The
  // span is bounded strictly before `until`, the earliest transition hint
  // (so no workload poll inside it can change the active set) and the
  // next due of every other periodic task (so the accounting task is the
  // only one firing in it). The accounting task is always tasks_[0].
  sim::PeriodicTask& acct = *tasks_[0];
  common::SimTime bound = std::min(until, hint);
  for (std::size_t i = 1; i < tasks_.size(); ++i)
    bound = std::min(bound, tasks_[i]->next_due());
  const common::SimTime first = acct.next_due();
  if (first >= bound) return;
  const common::SimTime period = acct.period();
  const std::int64_t fires = (bound - first - common::usec(1)) / period + 1;
  const std::int64_t n = scheduler_->account_while_rejected(active_ids_, fires);
  if (n <= 0) return;
  assert(n <= fires);
  // Land on the n-th fire, as the reference would after firing it: the
  // quantum grid re-anchors there, and the rejected set accrues wanting
  // over the whole idle span, exactly as the per-refill hops would.
  const common::SimTime last = first + period * (n - 1);
  const common::SimTime span = last - now_;
  for (const common::VmId r : active_ids_) vms_[r].window_wanting += span;
  idle_total_ += span;
  energy_.record(span, cpu_.current_index(), common::SimTime{});
  now_ = last;
  // The reference's last fire re-armed the task with the newest sequence;
  // every other task last fired at or before the skip began, so a fresh
  // sequence drawn now leaves the queue's (time, seq) order identical.
  acct.advance_to(last + period);
  refills_collapsed_ += n;
  // Pick idempotence (scheduler.hpp) makes this check side-effect-free.
  assert(scheduler_->pick(now_, active_ids_) == common::kInvalidVm);
}

common::SimTime Host::compute_next_activity() const {
  // Quiescence certificate: every condition below must hold for a bulk
  // skip to reproduce the reference loop byte for byte. Each line names
  // the divergence it rules out.
  if (!cfg_.event_driven_fast_path || !tasks_installed_) return now_;
  // Governor/controller ticks read monitor state and move frequency/caps;
  // replaying them is the reference loop's job.
  if (governor_ || controller_) return now_;
  // An over-cap tail accrues window_wanting per skipped instant and wakes
  // on credit refills — only a fully idle (no-runnable) host is inert.
  if (idle_tail_ != IdleTail::kNoRunnable) return now_;
  if (!active_ids_.empty()) return now_;
  for (const auto& vm : vms_) {
    const auto id = vm.id;
    // A consumed/notified slot or an expired hint forces a re-poll; a
    // pending window_wanting or saturation flag would alter the next
    // monitor close; any of these and the host must really run.
    if (wl_ran_[id] || wl_runnable_[id]) return now_;
    if (wl_hint_[id] <= now_) return now_;
    if (vm.window_wanting != common::SimTime{}) return now_;
    if (saturated_last_window_[id]) return now_;
  }
  // The periodic fires crossed by a skip must be provable no-ops: credits
  // at the refill fixed point, monitor reading all-zero with full
  // smoothing rings.
  if (!scheduler_->refill_settled()) return now_;
  if (!monitor_.idle_settled()) return now_;
  // The host schedules exclusively through its periodic tasks; the closed
  // form in skip_idle_to relies on that being the whole queue.
  assert(events_.pending() == tasks_.size());
  // Inert until the earliest workload self-transition (kNoTransition for
  // a host of pure idlers: skippable to any horizon).
  return earliest_transition_hint();
}

common::SimTime Host::next_activity_time() {
  if (activity_dirty_) {
    activity_cache_ = compute_next_activity();
    activity_dirty_ = false;
  }
  return activity_cache_;
}

void Host::skip_idle_to(common::SimTime target) {
  if (target <= now_) return;
  if (next_activity_time() < target) {
    // The certificate does not cover the span (or the host is simply not
    // quiescent): take the honest path. Misuse costs time, never bytes.
    run_until(target);
    return;
  }
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: skip_idle_to while the host is advancing");
  struct AdvanceGuard {
    std::atomic<bool>& flag;
    ~AdvanceGuard() { flag.store(false, std::memory_order_relaxed); }
  } guard{advancing_};
  advancing_.store(true, std::memory_order_relaxed);

  // What the reference loop would do from a quiescent state: idle quanta
  // and event hops, firing the periodic tasks in exact (time, seq) order —
  // each a state no-op except the trace sampler. Frequency cannot change
  // (no governor/controller and nothing runs), so the whole span is one
  // idle energy record, and the fires are counted in closed form: task i
  // fires k_i = (target - due_i) / period_i + 1 times.
  skip_fires_.clear();
  for (const auto& task : tasks_) {
    skip_fires_.push_back({task->next_due(), task->period(), task->pending_seq()});
    assert(skip_fires_.back().seq != 0 && skip_fires_.back().due > now_);
  }
  sim::order_last_fires(skip_fires_, target, skip_order_);

  energy_.record(target - now_, cpu_.current_index(), common::SimTime{});
  idle_total_ += target - now_;
  now_ = target;

  if (trace_task_index_ < skip_fires_.size()) {
    // Every skipped trace row is the same constant row the sampler would
    // have built, at the sampler's arithmetic fire times: loads zero, caps
    // and frequency unchanged.
    const sim::PendingFire& f = skip_fires_[trace_task_index_];
    const std::int64_t rows = sim::fires_through(f, target);
    if (rows > 0) {
      skip_trace_times_.clear();
      for (std::int64_t r = 0; r < rows; ++r) skip_trace_times_.push_back(f.due + f.period * r);
      trace_scratch_credit_.clear();
      for (const auto& vm : vms_) trace_scratch_credit_.push_back(scheduler_->cap(vm.id));
      trace_->append_idle_rows(skip_trace_times_, cpu_.current_freq().value(),
                               trace_scratch_credit_);
    }
  }

  // Re-arm fired tasks after their last fire, in the dispatch order of
  // those last fires: each rearm draws a fresh (largest) real seq, so the
  // live queue's relative (time, seq) order — the only observable —
  // matches the reference exactly. Unfired tasks keep their older
  // (smaller) seqs, as they would have in the reference.
  for (const std::size_t i : skip_order_)
    tasks_[i]->advance_to(sim::next_due_after(skip_fires_[i], target));

  // Quiescence survives a skip by construction (nothing above re-polls a
  // workload or moves scheduler/monitor state), so the certificate —
  // bounded by the unchanged transition hints — stays valid: no
  // activity_dirty_ here. The skip costs O(tasks + trace rows), not
  // O(span) or O(fires).
}

void Host::run_until(common::SimTime until) {
  // No-shared-state contract (see the header): while this host advances —
  // possibly on a worker thread of the cluster's parallel driver — nothing
  // may mutate it from outside. The guard turns a violation (a migration
  // attach or agent injection racing a running segment) into a hard error
  // instead of a silent nondeterminism.
  if (advancing_.load(std::memory_order_relaxed))
    throw std::logic_error("Host: reentrant run_until");
  struct AdvanceGuard {
    std::atomic<bool>& flag;
    ~AdvanceGuard() { flag.store(false, std::memory_order_relaxed); }
  } guard{advancing_};
  advancing_.store(true, std::memory_order_relaxed);
  activity_dirty_ = true;  // a real advance invalidates the certificate
  if (!tasks_installed_) {
    install_periodic_tasks();
    tasks_installed_ = true;
  }
  if (cfg_.trace_stride.us() > 0 && until > now_)
    trace_->reserve(static_cast<std::size_t>((until - now_) / cfg_.trace_stride) + 1);
  while (now_ < until) {
    events_.run_until(now_);
    const common::SimTime next_event = events_.next_event_time(until);
    // The queue removes cancelled entries eagerly, so the earliest pending
    // event is always strictly in the future here.
    assert(next_event > now_ || events_.empty());
    const common::SimTime slice_end = std::min({now_ + cfg_.quantum, until, next_event});
    run_quantum(slice_end);
    now_ = slice_end;
    if (cfg_.event_driven_fast_path && idle_tail_ != IdleTail::kNone && now_ < until)
      skip_idle_time(until);
  }
  events_.run_until(now_);
}

}  // namespace pas::hv
