// The benches' one slow/fast/parallel differential harness: build each
// variant, time it to the horizon, and hold the runs to
// check::first_divergence — the oracle every byte-identity contract uses.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "check/divergence.hpp"
#include "common/units.hpp"

namespace pas::bench {

/// A tri-state identity verdict: nullopt until a comparison executes, and
/// the first divergence found sticks.
struct Verdict {
  std::optional<bool> identical;
  std::string divergence;

  /// Folds in one executed comparison (`diff` as first_divergence gives it).
  void add(const std::string& what, const std::string& diff) {
    if (identical == false) return;
    identical = diff.empty();
    if (!diff.empty()) divergence = what + ": " + diff;
  }
};

template <class Sim>
double timed(Sim& sim, common::SimTime horizon) {
  const auto start = std::chrono::steady_clock::now();
  sim.run_until(horizon);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// What one differential leaves its caller: the reference and fast runs
/// (kept for reporting), wall times, and one verdict per comparison.
template <class Sim>
struct Differential {
  std::unique_ptr<Sim> ref;
  std::unique_ptr<Sim> fast;
  double ref_wall = 0.0;
  double fast_wall = 0.0;
  double par_wall = 0.0;  // 0 when no parallel variant ran
  Verdict reference;      // reference ≡ fast
  Verdict parallel;       // fast ≡ parallel; null when not run

  /// Both comparisons as one verdict: the first that failed, else the
  /// last that ran.
  [[nodiscard]] Verdict both() const {
    return reference.identical == false || !parallel.identical ? reference : parallel;
  }
};

template <class Sim>
using Factory = std::function<std::unique_ptr<Sim>()>;

/// Builds and times the reference and fast variants — and the parallel
/// one when `par` is set — to `horizon`, comparing reference ≡ fast and
/// fast ≡ parallel.
template <class Sim>
Differential<Sim> differential(const Factory<Sim>& ref, const Factory<Sim>& fast,
                               const Factory<Sim>& par, common::SimTime horizon) {
  Differential<Sim> d;
  d.ref = ref();
  d.ref_wall = timed(*d.ref, horizon);
  d.fast = fast();
  d.fast_wall = timed(*d.fast, horizon);
  d.reference.add("reference vs fast", check::first_divergence(*d.ref, *d.fast));
  if (par) {
    const std::unique_ptr<Sim> run = par();
    d.par_wall = timed(*run, horizon);
    d.parallel.add("fast vs parallel", check::first_divergence(*d.fast, *run));
  }
  return d;
}

}  // namespace pas::bench
