// Discrete-event core: a time-ordered queue of callbacks.
//
// The hypervisor host advances simulated time in scheduling quanta; all the
// *periodic* machinery around it (credit accounting, governor sampling,
// monitor window closing, PAS controller ticks, trace sampling) is driven by
// events in this queue. Ordering is deterministic: ties on time break by
// insertion sequence.
//
// Implementation: an indexed binary min-heap over a slot pool. Each pending
// event owns a pool slot holding its callback (small-buffer optimized — the
// periodic ticks never heap-allocate) and its position in the heap, so
// cancel() removes the entry directly in O(log n) with no scanning and
// next_event_time() is exact (cancelled events never linger). Slots are
// recycled through a free list; EventIds carry a per-slot generation so a
// stale id can never cancel the slot's next tenant.
//
// Threading model: an EventQueue is single-threaded by design and stays
// that way under the cluster's parallel engine. Each hv::Host owns a
// private queue touched only while that host advances (possibly on a
// worker thread, but by exactly one thread at a time — the host's
// no-shared-state contract), and the cluster's coordinating queue is
// touched only by the coordinating thread between segment barriers. No
// locks needed, and the (time, seq) dispatch order is what makes cluster-
// event replay deterministic at any thread count (docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/units.hpp"

namespace pas::sim {

/// Event callbacks are stored by value; captures up to 48 bytes (six
/// pointers) are allocation-free.
using EventFn = common::InplaceFunction<void(common::SimTime), 48>;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`. Events scheduled for a time in
  /// the past fire at the next dispatch.
  EventId schedule(common::SimTime when, EventFn fn);

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled. O(log n): the heap entry is removed immediately (no lazy
  /// tombstones), so pending() and next_event_time() stay exact.
  bool cancel(EventId id);

  /// Moves a pending event to `when`, drawing a fresh (largest) insertion
  /// sequence — exactly the order cancel() + schedule() of the same
  /// callback would produce, but in one heap adjustment, without touching
  /// the stored callback and without recycling the slot (the id stays
  /// valid). Returns false if `id` is stale.
  bool reschedule(EventId id, common::SimTime when);

  /// Runs every event with time <= `until`, in (time, insertion) order.
  /// Events may schedule further events; those also run if due.
  void run_until(common::SimTime until);

  /// Time of the earliest pending event, or `fallback` if none.
  [[nodiscard]] common::SimTime next_event_time(common::SimTime fallback) const;

  /// True when exactly one pending event is due at or before `until`. O(1):
  /// the runner-up of a binary min-heap is one of the root's children. The
  /// cluster reads this to recognise an instant where only its SLA sampler
  /// fires, which may run without first syncing lagging hosts.
  [[nodiscard]] bool sole_due(common::SimTime until) const {
    if (heap_.empty() || slots_[heap_[0]].when > until) return false;
    for (std::size_t child = 1; child <= 2 && child < heap_.size(); ++child)
      if (slots_[heap_[child]].when <= until) return false;
    return true;
  }

  /// Insertion sequence of a pending event, or 0 if `id` is stale. Ties on
  /// time dispatch in ascending seq, so the host's bulk idle skip uses this
  /// to reproduce the exact order the reference loop would have run the
  /// periodic fires in (see sim::order_last_fires).
  [[nodiscard]] std::uint64_t seq_of(EventId id) const {
    if (id == kInvalidEvent) return 0;
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffff) - 1;
    const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size()) return 0;
    const Slot& s = slots_[slot];
    if (s.generation != generation || s.heap_pos == kNpos) return 0;
    return s.seq;
  }

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kNpos = 0xffffffff;

  struct Slot {
    common::SimTime when;
    std::uint64_t seq = 0;  // global insertion sequence; breaks time ties
    EventFn fn;
    std::uint32_t generation = 0;  // bumped on fire/cancel
    std::uint32_t heap_pos = kNpos;  // kNpos when the slot is free
  };

  [[nodiscard]] static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    // +1 keeps ids nonzero so kInvalidEvent never collides with slot 0.
    return (static_cast<EventId>(generation) << 32) | (slot + 1);
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.when != sb.when) return sa.when < sb.when;
    return sa.seq < sb.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void place(std::size_t pos, std::uint32_t slot);
  /// Detaches the heap entry at `pos` and returns the slot to the free list.
  void remove_heap_entry(std::size_t pos);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  // slot indices, min-first by (when, seq)
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::uint64_t next_seq_ = 1;
};

}  // namespace pas::sim
