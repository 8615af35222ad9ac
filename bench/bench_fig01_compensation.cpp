// Fig. 1 — "Compensation of Frequency Reduction with Credit Allocation".
//
// pi-app execution times at the maximum frequency (2667 MHz) with initial
// credits 10..100 %, against the same runs at 2133 MHz with the credits
// computed by eq. 4 (C / 0.8 -> 12.5..125). The two series must coincide:
// a credit allocation can exactly cancel a frequency reduction.
#include <cstdio>
#include <vector>

#include "calibration/proportionality.hpp"
#include "common/ascii_chart.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "core/compensation.hpp"

static int run(const pas::common::Flags& flags) {
  using namespace pas;
  const auto ladder = cpu::FrequencyLadder::paper_default();
  const std::size_t max_state = ladder.max_index();
  const std::size_t new_state = ladder.index_of(common::mhz(2133));
  // Paper's pi-app sized so credit 10 % -> ~1100 s (Y axis of Fig. 1).
  const common::Work pi_work = common::mf_seconds(flags.get_double("work", 110.0));

  std::printf("=== Fig. 1: Compensation of frequency reduction with credit allocation ===\n");
  std::printf("expected shape: the 2133 MHz series with eq.4-compensated credits overlays\n");
  std::printf("the 2667 MHz series with the initial credits (identical execution times).\n");
  std::printf("NOTE: for initial credits >= 90 %% the compensated credit exceeds 100 %%\n");
  std::printf("of the slower processor (112.5 / 125 %%) — a cap above the whole machine\n");
  std::printf("cannot be honored, so the time saturates at W/ratio. Eq. 4 compensates\n");
  std::printf("fully whenever the compensated credit is feasible (credits <= 80 %%).\n\n");
  std::printf("  %10s %12s | %10s %12s | %8s\n", "credit(%)", "T@2667 (s)", "newcred(%)",
              "T@2133 (s)", "diff(%)");

  std::vector<double> t_max_series, t_new_series;
  double worst_feasible_diff = 0.0;
  for (int c = 10; c <= 100; c += 10) {
    const double t_max =
        calib::measure_pi_time_sec(ladder, max_state, static_cast<double>(c), pi_work);
    const double new_credit =
        core::compensated_credit(static_cast<double>(c), ladder, new_state);
    const double t_new = calib::measure_pi_time_sec(ladder, new_state, new_credit, pi_work);
    const double diff = (t_new / t_max - 1.0) * 100.0;
    if (new_credit <= 100.0) worst_feasible_diff = std::max(worst_feasible_diff, std::abs(diff));
    std::printf("  %10d %12.1f | %10.1f %12.1f | %+7.2f%s\n", c, t_max, new_credit, t_new,
                diff, new_credit > 100.0 ? "  (infeasible cap)" : "");
    t_max_series.push_back(t_max);
    t_new_series.push_back(t_new);
  }
  std::printf("\n  worst deviation over feasible compensated credits: %.2f %% "
              "(paper: the curves coincide)\n\n",
              worst_feasible_diff);

  std::vector<common::ChartSeries> series;
  series.push_back({"T@2667/init-credit", 'o', t_max_series});
  series.push_back({"T@2133/new-credit", 'x', t_new_series});
  common::ChartOptions opt;
  opt.title = "Fig. 1: execution time vs credit (both series should overlay)";
  opt.width = 60;
  opt.height = 16;
  opt.y_min = 0.0;
  opt.y_max = 1200.0;
  opt.x_label = "initial credit 10% .. 100% ->";
  std::fputs(common::render_chart(series, opt).c_str(), stdout);

  if (const auto path = flags.get("csv")) {
    common::CsvWriter out{*path};
    out.header({"credit_pct", "t_max_freq_sec", "new_credit_pct", "t_new_freq_sec"});
    for (std::size_t i = 0; i < t_max_series.size(); ++i) {
      const double c = 10.0 * static_cast<double>(i + 1);
      out.row({c, t_max_series[i], core::compensated_credit(c, ladder, new_state),
               t_new_series[i]});
    }
    std::printf("  data written to %s\n", path->c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
