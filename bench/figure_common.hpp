// Shared driver for the figure-reproduction benches (Figs. 2-10).
//
// Each bench binary configures one TwoVmConfig, names the paper figure it
// regenerates and states the expected shape; this driver runs the scenario,
// prints the ASCII chart + phase table, and optionally dumps the raw trace
// as CSV (--csv=PATH) for external plotting. --short runs a 2000 s profile
// instead of the paper's 8000 s.
#pragma once

#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "scenario/two_vm.hpp"

namespace pas::bench {

struct FigureSpec {
  const char* id;            // "Fig. 5"
  const char* title;         // what the paper's caption says
  const char* expectation;   // the shape we claim to reproduce
  scenario::TwoVmConfig cfg;
  bool absolute_view = false;  // plot absolute (vs global) loads
};

inline int draw_figure(const common::Flags& flags, FigureSpec spec) {
  if (flags.has("short")) {
    spec.cfg.total = common::seconds(2000);
    spec.cfg.v20_from = common::seconds(100);
    spec.cfg.v20_until = common::seconds(1700);
    spec.cfg.v70_from = common::seconds(600);
    spec.cfg.v70_until = common::seconds(1300);
    spec.cfg.trace_stride = common::seconds(5);
  }

  std::printf("=== %s: %s ===\n", spec.id, spec.title);
  std::printf("expected shape: %s\n\n", spec.expectation);

  const scenario::TwoVmResult result = scenario::run_two_vm(spec.cfg);

  const std::string chart = scenario::render_loads_chart(
      result, spec.absolute_view,
      std::string{spec.id} + (spec.absolute_view ? " (absolute loads)" : " (global loads)"));
  std::fputs(chart.c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(scenario::render_phase_table(result).c_str(), stdout);

  if (const auto csv = flags.get("csv")) {
    result.trace.write_csv(*csv);
    std::printf("  trace written to %s\n", csv->c_str());
  }
  std::fputs("\n", stdout);
  return 0;
}

inline int run_figure(int argc, char** argv, const FigureSpec& spec) {
  return common::run_main(argc, argv,
                          [&spec](const common::Flags& flags) { return draw_figure(flags, spec); });
}

}  // namespace pas::bench
