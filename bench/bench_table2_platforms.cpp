// Table 2 — "Execution Times on Different Virtualization Platforms".
//
// V20 (20 % credit) runs the pi-app while V70 is lazy, on seven modeled
// platforms, under the Performance and OnDemand governor modes. The paper's
// headline: fixed-credit platforms lose 27-50 % under OnDemand, Xen/PAS
// loses nothing, variable-credit platforms lose nothing (but overserve V20).
#include <cstdio>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "platform/catalog.hpp"

static int run(const pas::common::Flags& flags) {
  using namespace pas;

  platform::Table2Config cfg;
  // Full-size runs land near the paper's absolute seconds; --fast scales
  // the pi-app down 8x (ratios unchanged).
  if (flags.has("fast")) cfg.pi_work = common::mf_seconds(40.0);

  std::printf("=== Table 2: execution times on different virtualization platforms ===\n");
  std::printf("paper:        Performance | OnDemand | Degradation\n");
  std::printf("  Hyper-V 2012       1601 |     3212 |  50 %%\n");
  std::printf("  VMware ESXi 5      1550 |     2132 |  27 %%\n");
  std::printf("  Xen/credit         1559 |     2599 |  40 %%\n");
  std::printf("  Xen/PAS            1559 |     1560 |   0 %%\n");
  std::printf("  Xen/SEDF            616 |      616 |   0 %%\n");
  std::printf("  KVM                 599 |      599 |   0 %%\n");
  std::printf("  VirtualBox          625 |      625 |   0 %%\n\n");

  const auto rows = platform::run_table2(cfg);

  std::printf("measured:\n");
  std::printf("  %-20s %-20s %13s %11s %13s\n", "platform", "family", "Performance(s)",
              "OnDemand(s)", "Degradation(%)");
  for (const auto& r : rows) {
    std::printf("  %-20s %-20s %13.0f %11.0f %13.1f\n", r.name.c_str(), r.family.c_str(),
                r.t_performance_sec, r.t_ondemand_sec, r.degradation_pct);
  }
  std::printf("\nshape check: fixed-credit degradations ~50/27/40 %%, PAS and all "
              "variable-credit rows ~0 %%,\nvariable-credit times ~2.5x faster than "
              "fixed-credit under Performance.\n");

  if (const auto path = flags.get("csv")) {
    common::CsvWriter out{*path};
    out.raw_line("platform,family,t_performance_sec,t_ondemand_sec,degradation_pct");
    for (const auto& r : rows) {
      out.labeled_row(r.name + "," + r.family,
                      std::vector<double>{r.t_performance_sec, r.t_ondemand_sec,
                                          r.degradation_pct});
    }
    std::printf("  data written to %s\n", path->c_str());
  }
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
