// Self-rearming periodic task on top of the EventQueue.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace pas::sim {

/// Fires `fn(now)` every `period`, starting at `first` (absolute). The task
/// owns its rearm logic; destroying it (or calling stop()) cancels the next
/// firing. Must not outlive the queue. Rearming schedules a lambda that
/// captures only `this`, so a periodic tick never allocates.
class PeriodicTask {
 public:
  PeriodicTask(EventQueue& queue, common::SimTime first, common::SimTime period,
               EventFn fn)
      : queue_(queue), period_(period), fn_(std::move(fn)) {
    arm(first);
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { stop(); }

  void stop() {
    if (pending_ != kInvalidEvent) {
      queue_.cancel(pending_);
      pending_ = kInvalidEvent;
    }
  }

  [[nodiscard]] common::SimTime period() const { return period_; }

  /// Absolute time of the next firing (meaningless after stop()).
  [[nodiscard]] common::SimTime next_due() const { return next_due_; }

  /// Queue insertion sequence of the pending firing, or 0 after stop().
  /// Same-instant fires dispatch in ascending seq — the host's bulk idle
  /// skip reads this to reproduce the reference dispatch order
  /// (order_last_fires).
  [[nodiscard]] std::uint64_t pending_seq() const { return queue_.seq_of(pending_); }

  /// Re-arms the pending firing at absolute `when`. The firing draws a
  /// fresh (newest) insertion sequence, exactly as if the task had just
  /// fired and rearmed itself — which is what the bulk idle skip simulates
  /// when it re-arms fired tasks in simulated-fire order. Done in place
  /// (EventQueue::reschedule) when a firing is pending; falls back to a
  /// full arm otherwise.
  void advance_to(common::SimTime when) {
    if (pending_ != kInvalidEvent && queue_.reschedule(pending_, when)) {
      next_due_ = when;
      return;
    }
    stop();
    arm(when);
  }

 private:
  void arm(common::SimTime when) {
    next_due_ = when;
    pending_ = queue_.schedule(when, [this](common::SimTime now) {
      pending_ = kInvalidEvent;
      arm(now + period_);
      fn_(now);
    });
  }

  EventQueue& queue_;
  common::SimTime period_;
  EventFn fn_;
  EventId pending_ = kInvalidEvent;
  common::SimTime next_due_{};
};

/// A periodic task's pending firing, as a bulk skip over it sees it.
struct PendingFire {
  common::SimTime due;     // next firing instant
  common::SimTime period;  // > 0
  std::uint64_t seq = 0;   // queue insertion sequence of that firing
};

/// How many times `f` fires at or before `target` (the queue's run_until
/// fires events due exactly at its bound).
[[nodiscard]] inline std::int64_t fires_through(const PendingFire& f, common::SimTime target) {
  return f.due > target ? 0 : (target - f.due) / f.period + 1;
}

/// Instant of the firing that follows every fire at or before `target` —
/// where a task re-arms after the span.
[[nodiscard]] inline common::SimTime next_due_after(const PendingFire& f,
                                                    common::SimTime target) {
  return f.due + f.period * fires_through(f, target);
}

/// Closed-form replay of an EventQueue dispatching `fires` through `target`,
/// each fire re-arming its task one period later with a fresh (largest)
/// insertion sequence. Fills `order` with the indices of the tasks that
/// fire at least once, in the dispatch order of their LAST fire — the order
/// in which re-arming them (PeriodicTask::advance_to) must draw fresh
/// sequences to leave the queue's (time, seq) order exactly as the dispatch
/// would. O(n log n) in the task count, independent of the span.
///
/// Between two tasks whose last fires share an instant, the dispatch order
/// is decided by the sequences they hold there:
///   1. a task firing for the first time holds its original sequence,
///      smaller than any re-arm's — so it goes first (original-seq order
///      among such tasks);
///   2. otherwise each holds the sequence its previous fire drew, one
///      period earlier, so the larger period (earlier previous fire) goes
///      first;
///   3. with equal periods both re-armed at every shared instant since the
///      later one's first fire, where that one still held its original
///      sequence — so the later first fire goes first;
///   4. with equal first fires too, they have fired in lockstep since:
///      original-seq order.
void order_last_fires(std::span<const PendingFire> fires, common::SimTime target,
                      std::vector<std::size_t>& order);

}  // namespace pas::sim
