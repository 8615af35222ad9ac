// Energy accounting for the ablation benches (the provider-side metric the
// paper's governors are trying to optimize).
//
// The power model is linear in busy time at each P-state:
//
//     P·dt = P_idle·dt + (P_busy_max − P_idle)·ratio^alpha·busy
//
// so a run's energy is an exact function of the integer microseconds spent
// (and spent busy) in each P-state. The meter keeps exactly those integers
// and computes joules on read: the result is independent of how the time
// was chunked and of the order it was recorded in. That is what lets the
// host's bulk idle skip record one span where the stepped loop records one
// chunk per quantum, and still agree with it to the last bit.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "cpu/frequency_ladder.hpp"
#include "cpu/power_model.hpp"

namespace pas::metrics {

class EnergyMeter {
 public:
  /// Meters a CPU with `ladder`'s P-states under `model`.
  EnergyMeter(cpu::PowerModel model, const cpu::FrequencyLadder& ladder)
      : model_(model), per_state_(ladder.size()) {
    for (std::size_t i = 0; i < ladder.size(); ++i) per_state_[i].ratio = ladder.ratio(i);
  }

  /// Accounts an interval of length `dt` spent in P-state `pstate` with the
  /// CPU busy for `busy` of it (0 <= busy <= dt).
  void record(common::SimTime dt, std::size_t pstate, common::SimTime busy) {
    if (dt.us() <= 0) return;
    assert(pstate < per_state_.size());
    assert(busy.us() >= 0 && busy <= dt);
    per_state_[pstate].elapsed_us += dt.us();
    per_state_[pstate].busy_us += busy.us();
  }

  /// Total energy so far, summed over P-states in ladder order.
  [[nodiscard]] double joules() const {
    double dynamic = 0.0;
    for (const PerState& s : per_state_) {
      if (s.busy_us == 0) continue;  // adds +0.0: skip the pow
      dynamic += model_.dynamic_watts(s.ratio) * common::SimTime{s.busy_us}.sec();
    }
    return model_.idle_watts() * elapsed().sec() + dynamic;
  }
  [[nodiscard]] double watt_hours() const { return joules() / 3600.0; }
  [[nodiscard]] common::SimTime elapsed() const {
    std::int64_t us = 0;
    for (const PerState& s : per_state_) us += s.elapsed_us;
    return common::SimTime{us};
  }
  /// Time spent in P-state `pstate`, and the busy part of it.
  [[nodiscard]] common::SimTime elapsed_at(std::size_t pstate) const {
    return common::SimTime{per_state_.at(pstate).elapsed_us};
  }
  [[nodiscard]] common::SimTime busy_at(std::size_t pstate) const {
    return common::SimTime{per_state_.at(pstate).busy_us};
  }
  /// Mean power over everything recorded so far.
  [[nodiscard]] double average_watts() const {
    const double s = elapsed().sec();
    return s > 0.0 ? joules() / s : 0.0;
  }
  [[nodiscard]] const cpu::PowerModel& model() const { return model_; }

 private:
  struct PerState {
    std::int64_t elapsed_us = 0;
    std::int64_t busy_us = 0;
    double ratio = 0.0;  // F / F_max of this P-state
  };
  cpu::PowerModel model_;
  std::vector<PerState> per_state_;
};

}  // namespace pas::metrics
