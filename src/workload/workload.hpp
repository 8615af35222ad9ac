// Workload interface: what a guest OS does with the CPU time it is given.
//
// The hypervisor host drives workloads through three calls per scheduling
// quantum: advance_to (deliver arrivals / phase changes up to `now`),
// runnable (does the VM want the CPU right now?), and consume (the VM ran
// and may perform up to `budget` units of work).
//
// Work is expressed in max-frequency units (see common/units.hpp), so a
// workload is frequency-oblivious — exactly like a real guest, which only
// notices DVFS through how little it gets done per wall second.
#pragma once

#include <cstdint>
#include <limits>

#include "common/units.hpp"

namespace pas::wl {

/// Sentinel for next_transition_time(): the workload's runnable state never
/// changes on its own (only consume() can change it, which the host sees).
inline constexpr common::SimTime kNoTransition{
    std::numeric_limits<std::int64_t>::max()};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Advances workload-internal state (request arrivals, phase boundaries)
  /// to time `now`, with monotonically non-decreasing `now`. The host calls
  /// this at quantum granularity while the VM is active, but may *coarsen*
  /// the call pattern while the VM is provably idle — implementations must
  /// make advance_to(a); advance_to(b) indistinguishable from advance_to(b)
  /// (deliver the same arrivals with the same timestamps, draw the same RNG
  /// sequence).
  virtual void advance_to(common::SimTime now) = 0;

  /// True if the VM has CPU work pending at the last advanced-to instant.
  [[nodiscard]] virtual bool runnable() const = 0;

  /// The VM was scheduled at `now` and may perform up to `budget` work.
  /// Returns the work actually performed (< budget iff the VM ran out of
  /// pending work mid-slice and blocked).
  virtual common::Work consume(common::SimTime now, common::Work budget) = 0;

  /// True once the workload will never become runnable again (pi-app after
  /// completing its computation). Open-loop servers never finish.
  [[nodiscard]] virtual bool finished() const { return false; }

  /// Lower bound on the next instant at which runnable() may change value
  /// on its own — i.e. through advance_to() alone, with no intervening
  /// consume(). This is the host's license to skip simulated time while the
  /// CPU idles: it will not re-poll this workload before the returned
  /// instant. kNoTransition means "never"; returning `now` (or any earlier
  /// time) means "unknown", which makes the host re-poll every quantum —
  /// always safe, never wrong. The bound may be conservative (early), never
  /// late. Non-const because the call may have effects: open-loop
  /// generators (WebApp) pre-draw their next arrival to answer, and
  /// TraceReplay advances a hint cursor. The host therefore re-asks after
  /// every consume, every notify_workload_changed and every expired hint,
  /// and may not elide the call as redundant — not even for a VM that
  /// stays runnable under an unexpired hint: that hint may belong to the
  /// slot's previous workload (a migration attach), and a gate that
  /// closes while the VM waits over its cap would go unseen.
  /// tests/hypervisor/host_fastpath_test.cpp pins this
  /// (GuestAttachedRunnableRePollsItsHint).
  [[nodiscard]] virtual common::SimTime next_transition_time(common::SimTime now) {
    return now;  // unknown: the host re-polls every quantum
  }
};

}  // namespace pas::wl
