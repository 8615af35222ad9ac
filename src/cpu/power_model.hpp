// Processor power model for the energy ablation benches.
//
// The paper motivates PAS with energy but never plots power; we add the
// standard CMOS model so the benches can report joules:
//
//     P(f, u) = P_idle + (P_busy_max - P_idle) * u * (f / f_max)^alpha
//
// alpha ≈ 3 captures V² · f scaling when voltage tracks frequency (DVFS);
// alpha = 1 degenerates to frequency-independent per-cycle energy.
#pragma once

#include <cmath>

#include "common/units.hpp"

namespace pas::cpu {

class PowerModel {
 public:
  PowerModel(double idle_watts, double busy_max_watts, double alpha = 3.0)
      : idle_w_(idle_watts), busy_max_w_(busy_max_watts), alpha_(alpha) {}

  /// A Core2-era desktop (the paper's Optiplex 755): ~45 W idle, ~105 W
  /// loaded at the top frequency.
  static PowerModel desktop_2008() { return PowerModel{45.0, 105.0, 3.0}; }

  /// Instantaneous power at frequency ratio `ratio` (F/Fmax) and utilization
  /// `util` in [0,1].
  [[nodiscard]] double power_watts(double ratio, double util) const {
    return idle_w_ + (busy_max_w_ - idle_w_) * util * std::pow(ratio, alpha_);
  }

  /// Power drawn above idle while fully busy at `ratio`: the per-P-state
  /// coefficient of busy time (metrics::EnergyMeter integrates it exactly).
  [[nodiscard]] double dynamic_watts(double ratio) const {
    return (busy_max_w_ - idle_w_) * std::pow(ratio, alpha_);
  }

  /// Energy in joules for running `dt` at the given operating point.
  [[nodiscard]] double energy_joules(common::SimTime dt, double ratio, double util) const {
    return power_watts(ratio, util) * dt.sec();
  }

  [[nodiscard]] double idle_watts() const { return idle_w_; }
  [[nodiscard]] double busy_max_watts() const { return busy_max_w_; }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double idle_w_;
  double busy_max_w_;
  double alpha_;
};

}  // namespace pas::cpu
