// Table 1 — "cf_min on different processors".
//
// Runs the §5.2 calibration procedure on the five modeled Grid5000 machines
// and compares the measured cf_min with the paper's row. Also prints the
// per-state cf series to show it is (approximately) constant per machine,
// as the paper observed.
#include <cstdio>

#include "calibration/cf_calibrator.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"

static int run(const pas::common::Flags& flags) {
  using namespace pas;

  calib::CfCalibratorConfig cfg;
  cfg.measure_time = common::seconds(flags.get_int("measure", 120));

  std::printf("=== Table 1: cf_min on different processors ===\n");
  std::printf("paper row:    X3440 0.94867 | L5420 0.99903 | E5-2620 0.80338 | "
              "Opteron-6164HE 0.99508 | i7-3770 0.86206\n");
  std::printf("mechanism: turbo parts run above nominal at the top P-state, so the\n");
  std::printf("nominal frequency ratio overestimates low-state slowdowns (DESIGN.md)\n\n");

  const auto reports = calib::calibrate_table1(cfg);
  const double paper[] = {0.94867, 0.99903, 0.80338, 0.99508, 0.86206};

  std::printf("  %-22s %10s %10s %10s %8s\n", "processor", "cf_min", "paper", "model-gt",
              "err(%)");
  std::size_t i = 0;
  for (const auto& r : reports) {
    const double err = (r.cf_min / paper[i] - 1.0) * 100.0;
    std::printf("  %-22s %10.5f %10.5f %10.5f %+7.2f\n", r.machine.c_str(), r.cf_min,
                paper[i], r.expected_cf_min, err);
    ++i;
  }

  std::printf("\n  per-state cf (should be ~constant per machine):\n");
  for (const auto& r : reports) {
    std::printf("  %-22s:", r.machine.c_str());
    for (const auto& m : r.states) std::printf(" %5.0fMHz=%.3f", m.nominal_mhz, m.cf);
    std::printf("\n");
  }

  if (const auto path = flags.get("csv")) {
    common::CsvWriter out{*path};
    out.raw_line("machine,state_mhz,ratio,mean_load_pct,cf");
    for (const auto& r : reports) {
      for (const auto& m : r.states) {
        out.labeled_row(r.machine,
                        std::vector<double>{m.nominal_mhz, m.ratio, m.mean_load_pct, m.cf});
      }
    }
    std::printf("  data written to %s\n", path->c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
