// Consolidation planner: pack a VM fleet onto hosts, power the rest off,
// and report what DVFS/PAS still reclaims — the paper's §2.3 workflow as a
// command-line tool.
//
// Run: ./examples/consolidation_planner [--vms=32] [--hosts=16] [--host-mem=4096]
//        [--fleet=uniform|mixed]
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/random.hpp"
#include "consolidation/consolidation.hpp"
#include "platform/host_class.hpp"

static int run(const pas::common::Flags& flags) {
  using namespace pas;
  const auto vm_count = flags.get_count("vms", 32);
  const auto host_count = flags.get_count("hosts", 16);

  // --fleet=mixed packs against the heterogeneous platform catalog (with
  // NUMA-aware costs); the default is the classic uniform Optiplex fleet.
  const bool mixed = flags.get_or("fleet", "uniform") == "mixed";
  if (mixed && flags.has("host-mem")) {
    std::fprintf(stderr, "consolidation_planner: --host-mem only applies to the uniform "
                         "fleet; the mixed catalog sets memory per class\n");
    return 2;
  }
  platform::HostClass uniform = platform::optiplex_755();
  uniform.memory_mb = flags.get_double("host-mem", 4096.0);
  const auto fleet = mixed ? platform::fleet_specs(platform::mixed_fleet_classes(host_count))
                           : platform::planner_fleet(host_count, uniform);

  // A plausible mixed fleet: web (small mem, modest CPU), app (mid), db
  // (big mem, hungrier CPU), drawn deterministically.
  common::Rng rng{flags.get_count("seed", 42)};
  std::vector<consolidation::VmSpec> vms;
  for (std::size_t i = 0; i < vm_count; ++i) {
    consolidation::VmSpec v;
    const double kind = rng.next_double();
    if (kind < 0.5) {  // web
      v.memory_mb = 256 + 256 * rng.next_below(3);
      v.credit = 5 + 5 * static_cast<double>(rng.next_below(3));
    } else if (kind < 0.85) {  // app
      v.memory_mb = 768 + 256 * rng.next_below(4);
      v.credit = 10 + 5 * static_cast<double>(rng.next_below(4));
    } else {  // db
      v.memory_mb = 1536 + 512 * rng.next_below(3);
      v.credit = 20 + 10 * static_cast<double>(rng.next_below(3));
    }
    v.cpu_demand_pct = v.credit * rng.uniform(0.4, 1.0);
    v.name = "vm" + std::to_string(i);
    vms.push_back(v);
  }

  const auto placement = consolidation::place_ffd(vms, fleet);
  // A random fleet may genuinely not fit: run the partial plan, but surface
  // the shortfall explicitly below.
  const auto outcome = consolidation::evaluate(placement, vms, fleet,
                                               /*allow_unplaced=*/true);

  std::printf("Consolidation plan: %zu VMs onto %zu hosts.\n\n", vm_count, host_count);
  std::printf("  %-16s %6s %10s %10s %8s %8s %8s\n", "host", "VMs", "mem MB", "credit %",
              "load %", "spills", "P-state");
  for (std::size_t hi = 0; hi < fleet.size(); ++hi) {
    const auto& h = outcome.hosts[hi];
    if (!h.powered_on) continue;
    std::size_t n = 0;
    for (std::size_t vi = 0; vi < vms.size(); ++vi) {
      if (placement.assignment[vi] == hi) ++n;
    }
    std::printf("  %-16s %6zu %10.0f %10.1f %8.1f %8zu %5.0fMHz\n", fleet[hi].name.c_str(),
                n, h.memory_used_mb, h.credit_reserved_pct, h.cpu_load_pct, h.numa_spills,
                fleet[hi].ladder.at(h.freq_index).freq.value());
  }

  std::printf("\n  hosts on: %zu of %zu\n", outcome.hosts_on, host_count);
  if (!outcome.all_placed()) {
    std::printf("  UNPLACED: %zu VM(s) — %.0f MB, %.0f %% credit, %.0f %% demand NOT served:",
                outcome.unplaced_vms.size(), outcome.unplaced_memory_mb,
                outcome.unplaced_credit_pct, outcome.unplaced_demand_pct);
    for (const std::size_t vi : outcome.unplaced_vms) std::printf(" %s", vms[vi].name.c_str());
    std::printf("\n");
  }
  std::printf("  mean active-host CPU load: %.1f %% (memory binds first — §2.3)\n",
              outcome.mean_active_load_pct);
  std::printf("  cluster power, consolidation only:    %8.1f W\n",
              outcome.total_power_max_freq_watts);
  std::printf("  cluster power, consolidation + PAS:   %8.1f W  (saves %.1f W, %.1f %%)\n",
              outcome.total_power_watts, outcome.dvfs_saving_watts(),
              outcome.total_power_max_freq_watts > 0
                  ? 100.0 * outcome.dvfs_saving_watts() / outcome.total_power_max_freq_watts
                  : 0.0);
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
