// Ablation B — governor stability vs energy (the Fig. 3 / Fig. 4 trade-off
// quantified).
//
// Runs the two-VM exact-load profile under every governor and reports
// frequency transitions, mean power, energy, and V20's SLA violation — the
// numbers behind "our governor ... is less aggressive and more stable, and
// consequently saves less energy".
#include <cstdio>

#include "common/flags.hpp"
#include "scenario/two_vm.hpp"

static int run(const pas::common::Flags& flags) {
  using namespace pas;

  std::printf("=== Ablation B: governor policies on the two-VM exact-load profile ===\n\n");
  std::printf("  %-16s %12s %10s %10s %14s %14s\n", "governor", "transitions", "avg W",
              "energy kJ", "V20 SLA viol%", "V70 SLA viol%");

  for (const char* name :
       {"performance", "powersave", "ondemand", "stable-ondemand", "conservative"}) {
    scenario::TwoVmConfig cfg;
    cfg.scheduler = sched::SchedulerKind::kCredit;
    cfg.governor = name;
    cfg.load = scenario::LoadKind::kExact;
    if (flags.has("short")) {
      cfg.total = common::seconds(2000);
      cfg.v20_from = common::seconds(100);
      cfg.v20_until = common::seconds(1700);
      cfg.v70_from = common::seconds(600);
      cfg.v70_until = common::seconds(1300);
      cfg.trace_stride = common::seconds(5);
    }
    const scenario::TwoVmResult r = scenario::run_two_vm(cfg);
    std::printf("  %-16s %12llu %10.1f %10.1f %14.1f %14.1f\n", name,
                static_cast<unsigned long long>(r.freq_transitions), r.average_watts,
                r.energy_joules / 1000.0, 100.0 * r.v20_sla_violation,
                100.0 * r.v70_sla_violation);
  }

  std::printf(
      "\nreading: performance wastes energy but never violates; powersave violates\n"
      "massively; stock ondemand is cheap but twitchy (transition count) and violates\n"
      "V20's SLA at low frequency; stable-ondemand keeps transitions low at slightly\n"
      "higher energy — and still violates V20's SLA, which is why PAS exists.\n");
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
