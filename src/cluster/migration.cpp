#include "cluster/migration.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pas::cluster {

namespace {

common::SimTime transfer_time(double mb, double mb_per_s) {
  const auto us = static_cast<std::int64_t>(std::llround(mb / mb_per_s * 1e6));
  return common::usec(std::max<std::int64_t>(us, 1));
}

/// The pre-copy recurrence, for a fresh plan and a re-plan alike.
/// `plan.round_mb` holds the rounds already committed (none for a fresh
/// plan). From a redirtied set `pending` pushed at `t`, rounds are
/// appended — with their start instants in `starts` — while the budget
/// lasts: the first unconditionally when none is committed (round 0 pushes
/// the whole image even under the threshold), each later one only while
/// the set redirtied during its predecessor stays above the stop-copy
/// threshold. Sets the residue, the pre-copy span from the first start and
/// the pause (switch latency included); returns the instant pre-copy ends.
common::SimTime extend_precopy(MigrationPlan& plan, std::vector<common::SimTime>& starts,
                               double pending, common::SimTime t, double memory_mb,
                               double dirty_mb_per_s, const MigrationConfig& config) {
  if (memory_mb <= 0.0) throw std::invalid_argument("plan_migration: memory must be positive");
  if (config.link_mb_per_s <= 0.0)
    throw std::invalid_argument("plan_migration: link bandwidth must be positive");
  if (dirty_mb_per_s < 0.0)
    throw std::invalid_argument("plan_migration: negative dirty rate");
  const std::size_t budget = std::max<std::size_t>(config.max_precopy_rounds, 1);
  bool unconditional = plan.round_mb.empty();
  while (plan.round_mb.size() < budget &&
         (unconditional || pending > config.stop_copy_threshold_mb)) {
    unconditional = false;
    plan.round_mb.push_back(pending);
    starts.push_back(t);
    const common::SimTime dt = transfer_time(pending, config.link_mb_per_s);
    t += dt;
    // Pages redirtied while this round was in flight; a guest cannot dirty
    // more than its whole memory.
    pending = std::min(memory_mb, dirty_mb_per_s * dt.sec());
  }
  plan.stop_copy_mb = pending;
  plan.precopy_duration = t - starts.front();
  plan.downtime =
      (pending > 0.0 ? transfer_time(pending, config.link_mb_per_s) : common::SimTime{}) +
      config.switch_latency;
  return t;
}

}  // namespace

MigrationPlan plan_migration(double memory_mb, double dirty_mb_per_s,
                             const MigrationConfig& config) {
  MigrationPlan plan;
  std::vector<common::SimTime> starts;
  (void)extend_precopy(plan, starts, memory_mb, common::SimTime{}, memory_mb, dirty_mb_per_s,
                       config);
  return plan;
}

MigrationEngine::MigrationEngine(MigrationConfig config, sim::EventQueue& events)
    : cfg_(config), events_(events) {}

bool MigrationEngine::in_flight(GlobalVmId vm) const {
  return std::any_of(flights_.begin(), flights_.end(),
                     [vm](const auto& f) { return f->record.vm == vm; });
}

bool MigrationEngine::detached(GlobalVmId vm) const {
  return std::any_of(flights_.begin(), flights_.end(), [vm](const auto& f) {
    return f->record.vm == vm && f->held != nullptr;
  });
}

bool MigrationEngine::endpoint_in_flight(HostId host) const {
  return std::any_of(flights_.begin(), flights_.end(), [host](const auto& f) {
    return f->record.from == host || f->record.to == host;
  });
}

std::vector<GlobalVmId> MigrationEngine::in_flight_vms() const {
  std::vector<GlobalVmId> vms;
  vms.reserve(flights_.size());
  for (const auto& f : flights_) vms.push_back(f->record.vm);
  return vms;
}

MigrationPlan MigrationEngine::begin(GlobalVmId vm, HostId from, HostId to,
                                     Endpoint source, Endpoint dest, double memory_mb,
                                     double dirty_mb_per_s, common::SimTime now,
                                     CompletionFn done, CompletionFn on_detach,
                                     common::SimTime extra_switch_latency) {
  if (in_flight(vm))
    throw std::logic_error("MigrationEngine: VM " + std::to_string(vm) +
                           " already in flight");
  if (source.host == nullptr || dest.host == nullptr)
    throw std::invalid_argument("MigrationEngine: endpoints required");

  auto flight = std::make_unique<Flight>();
  Flight* f = flight.get();
  f->source = source;
  f->dest = dest;
  f->memory_mb = memory_mb;
  f->dirty_mb_per_s = dirty_mb_per_s;
  f->done = std::move(done);
  f->on_detach = std::move(on_detach);
  f->switch_extra = extra_switch_latency;
  f->record.vm = vm;
  f->record.from = from;
  f->record.to = to;
  f->record.start = now;
  plan_rounds(*f, memory_mb, now);
  flights_.push_back(std::move(flight));
  schedule_phase_events(*f, 0);
  return f->plan;
}

void MigrationEngine::schedule_phase_events(Flight& flight, std::size_t first_round) {
  // Every phase event lands on the cluster queue, i.e. at instants where
  // every host is synchronized — the lockstep invariant that keeps
  // fast-path and reference runs identical. Ids are kept so an abort or a
  // bandwidth re-plan can cancel exactly the not-yet-fired tail.
  Flight* f = &flight;
  assert(flight.round_starts.size() == flight.plan.round_mb.size());
  flight.round_events.resize(flight.plan.round_mb.size(), sim::kInvalidEvent);
  for (std::size_t r = first_round; r < flight.plan.round_mb.size(); ++r) {
    flight.round_events[r] =
        events_.schedule(flight.round_starts[r], [this, f, r](common::SimTime) {
          f->rounds_fired = r + 1;
          inject_round(*f, f->plan.round_mb[r]);
        });
  }
  flight.stop_event = events_.schedule(flight.record.stop, [this, f](common::SimTime) {
    if (f->plan.stop_copy_mb > 0.0) inject_round(*f, f->plan.stop_copy_mb);
    detach(*f);
  });
  flight.end_event =
      events_.schedule(flight.record.end, [this, f](common::SimTime) { attach(*f); });
}

void MigrationEngine::cancel_pending_events(Flight& flight) {
  for (std::size_t r = flight.rounds_fired; r < flight.round_events.size(); ++r)
    events_.cancel(flight.round_events[r]);
  // These return false when the phase already fired (e.g. the stop event of
  // a paused flight) — exactly the don't-care case.
  events_.cancel(flight.stop_event);
  events_.cancel(flight.end_event);
}

bool MigrationEngine::cancel(GlobalVmId vm, common::SimTime now) {
  const auto it = std::find_if(flights_.begin(), flights_.end(),
                               [vm](const auto& f) { return f->record.vm == vm; });
  if (it == flights_.end()) return false;
  Flight& f = **it;
  cancel_pending_events(f);
  if (f.held == nullptr) {
    // Pre-copy abort: the guest never stopped running on the source; no
    // credit moved. Rounds already issued keep their injected overhead —
    // overhead is charged at round start, when the push begins — so the
    // record reports exactly the bytes whose push was started.
    f.record.outcome = MigrationOutcome::kAbortedPrecopy;
    f.record.stop = now;
    f.record.end = now;
    f.record.downtime = common::SimTime{};
    f.record.rounds = f.rounds_fired;
    double mb = 0.0;
    for (std::size_t r = 0; r < f.rounds_fired; ++r) mb += f.plan.round_mb[r];
    f.record.transferred_mb = mb;
  } else {
    // Stop-and-copy abort: roll the guest back onto its source slot. The
    // rollback is modeled as instantaneous (the guest state never left the
    // source; "switching back" is dropping the in-flight copy), so the
    // pause the VM actually suffered is now − stop. The exported balance
    // re-imports on the source — conservation holds exactly as on the
    // completed path, just into the original slot — and the cap comes back
    // compensated for the source's *current* P-state, which may have
    // changed since detach.
    f.source.host->attach_guest(f.source.vm_slot, std::move(f.held), f.record.credit_exported);
    f.record.credit_imported = f.record.credit_exported;
    f.record.outcome = MigrationOutcome::kAbortedStopCopy;
    f.record.end = now;
    f.record.downtime = now - f.record.stop;
  }
  finish(f);
  return true;
}

std::size_t MigrationEngine::abort_host_flights(HostId host, common::SimTime now) {
  std::size_t aborted = 0;
  for (;;) {
    const auto it = std::find_if(flights_.begin(), flights_.end(), [host](const auto& f) {
      return f->record.from == host || f->record.to == host;
    });
    if (it == flights_.end()) break;
    Flight& f = **it;
    if (f.record.from == host && f.held != nullptr) {
      // Source crashed while the guest was detached: its state existed only
      // in transit and is gone. The exported credit is gone with it — the
      // crash, not the engine, broke conservation, and the record's
      // imported == 0 says so.
      cancel_pending_events(f);
      f.held.reset();
      f.record.outcome = MigrationOutcome::kLostSourceCrash;
      f.record.end = now;
      f.record.downtime = now - f.record.stop;
      finish(f);
    } else {
      // Destination crash (any phase) or source crash during pre-copy:
      // the ordinary abort paths apply — the guest is on the source (or
      // rolls back to it), and the caller's crash sweep decides its fate.
      cancel(f.record.vm, now);
    }
    ++aborted;
  }
  return aborted;
}

void MigrationEngine::set_link_bandwidth(double mb_per_s) {
  if (mb_per_s <= 0.0)
    throw std::invalid_argument("MigrationEngine: link bandwidth must be positive");
  cfg_.link_mb_per_s = mb_per_s;
  // Paused flights are not re-planned: their residue push is committed.
  for (const auto& f : flights_)
    if (f->held == nullptr) replan_flight(*f);
}

void MigrationEngine::plan_rounds(Flight& flight, double pending, common::SimTime t) {
  flight.record.stop = extend_precopy(flight.plan, flight.round_starts, pending, t,
                                      flight.memory_mb, flight.dirty_mb_per_s, cfg_);
  flight.plan.downtime += flight.switch_extra;
  flight.record.end = flight.record.stop + flight.plan.downtime;
  flight.record.downtime = flight.plan.downtime;
  flight.record.rounds = flight.plan.round_mb.size();
  flight.record.transferred_mb = flight.plan.transferred_mb();
}

void MigrationEngine::replan_flight(Flight& flight) {
  // Committed-round rule: rounds whose push already started complete on
  // their old schedule (the bytes are already windowed on the wire), so the
  // re-plan keeps rounds [0, rounds_fired) verbatim and re-runs the
  // pre-copy recurrence from the redirtied set that feeds the next round.
  const std::size_t keep = flight.rounds_fired;
  // The set feeding round `keep` was dirtied during round keep−1, which
  // runs at its committed (old-rate) schedule — so its planned size stands.
  const double seed_pending = keep < flight.plan.round_mb.size()
                                  ? flight.plan.round_mb[keep]
                                  : flight.plan.stop_copy_mb;
  const common::SimTime seed_time =
      keep < flight.round_starts.size() ? flight.round_starts[keep] : flight.record.stop;

  cancel_pending_events(flight);
  flight.plan.round_mb.resize(keep);
  flight.round_starts.resize(keep);
  flight.round_events.resize(keep);
  plan_rounds(flight, seed_pending, seed_time);
  schedule_phase_events(flight, keep);
}

void MigrationEngine::inject_round(Flight& flight, double mb) {
  flight.source.agent->inject(common::mf_usec(mb * cfg_.source_cpu_us_per_mb));
  flight.source.host->notify_workload_changed(kAgentSlot);
  flight.dest.agent->inject(common::mf_usec(mb * cfg_.dest_cpu_us_per_mb));
  flight.dest.host->notify_workload_changed(kAgentSlot);
}

void MigrationEngine::detach(Flight& flight) {
  assert(flight.held == nullptr);
  // The detach leaves the source slot capped at zero over an empty balance
  // (the attach restores the cap on the destination; a VM in flight earns
  // nothing, which is also why the pause is SLA-charged).
  auto [workload, balance] = flight.source.host->detach_guest(flight.source.vm_slot);
  flight.held = std::move(workload);
  flight.record.credit_exported = balance;
  assert(flight.held != nullptr);
  assert(endpoint_in_flight(flight.record.from) && endpoint_in_flight(flight.record.to));
  if (flight.on_detach) flight.on_detach(flight.record);
}

void MigrationEngine::attach(Flight& flight) {
  assert(flight.held != nullptr);
  // The destination resumes at the purchased credit compensated (eq. 4)
  // for the destination's *current* P-state — attaching the raw credit on
  // a down-scaled host would shrink what the customer bought until the
  // next manager pass (up to a whole period of SLA violations).
  flight.dest.host->attach_guest(flight.dest.vm_slot, std::move(flight.held),
                                 flight.record.credit_exported);
  flight.record.credit_imported = flight.record.credit_exported;
  flight.record.outcome = MigrationOutcome::kCompleted;
  finish(flight);
}

void MigrationEngine::finish(Flight& flight) {
  const MigrationRecord record = flight.record;
  CompletionFn done = std::move(flight.done);
  const auto it = std::find_if(flights_.begin(), flights_.end(),
                               [&](const auto& f) { return f.get() == &flight; });
  assert(it != flights_.end());
  flights_.erase(it);
  assert(!in_flight(record.vm));
  completed_.push_back(record);
  if (done) done(record);
}

}  // namespace pas::cluster
