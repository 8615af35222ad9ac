#include "consolidation/consolidation.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/compensation.hpp"

namespace pas::consolidation {

double packing_cost(const HostSpec& host) {
  return host.power.idle_watts() / std::max(1e-9, host.memory_mb);
}

bool numa_spills(const VmSpec& vm, const HostSpec& host) {
  if (host.numa_nodes <= 1) return false;
  return vm.memory_mb > host.memory_mb / static_cast<double>(host.numa_nodes);
}

double effective_credit_pct(const VmSpec& vm, const HostSpec& host) {
  return vm.credit * (1.0 + (numa_spills(vm, host) ? host.numa_spill_penalty : 0.0));
}

Placement place_ffd(const std::vector<VmSpec>& vms, const std::vector<HostSpec>& hosts,
                    const FfdOptions& options) {
  for (const auto& vm : vms) {
    if (vm.memory_mb < 0 || vm.credit < 0 || vm.cpu_demand_pct < 0)
      throw std::invalid_argument("place_ffd: negative VM resource");
  }
  for (const auto& h : hosts) {
    if (h.numa_nodes == 0)
      throw std::invalid_argument("place_ffd: host needs at least one NUMA node");
    if (h.numa_spill_penalty < 0)
      throw std::invalid_argument("place_ffd: negative NUMA spill penalty");
  }

  // Sort VM indices by memory, decreasing (classic FFD on the binding
  // dimension).
  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (vms[a].memory_mb != vms[b].memory_mb) return vms[a].memory_mb > vms[b].memory_mb;
    return a < b;  // stable, deterministic
  });

  // Candidate order over hosts: efficient-first sorts by idle watts per MB
  // (packing_cost), ties broken by index — a uniform fleet ties everywhere,
  // so the order (and thus the placement) is exactly classic first-fit.
  std::vector<std::size_t> host_order(hosts.size());
  std::iota(host_order.begin(), host_order.end(), 0);
  if (options.efficient_first) {
    std::sort(host_order.begin(), host_order.end(), [&](std::size_t a, std::size_t b) {
      const double ca = packing_cost(hosts[a]);
      const double cb = packing_cost(hosts[b]);
      if (ca != cb) return ca < cb;
      return a < b;  // stable, deterministic
    });
  }

  std::vector<double> mem_left;
  std::vector<double> credit_left;
  mem_left.reserve(hosts.size());
  credit_left.reserve(hosts.size());
  for (const auto& h : hosts) {
    mem_left.push_back(h.memory_mb);
    credit_left.push_back(h.cpu_capacity_pct);
  }

  Placement p;
  p.assignment.assign(vms.size(), kUnplaced);
  for (const std::size_t vi : order) {
    const VmSpec& vm = vms[vi];
    for (const std::size_t hi : host_order) {
      const double credit_needed = effective_credit_pct(vm, hosts[hi]);
      if (vm.memory_mb <= mem_left[hi] && credit_needed <= credit_left[hi]) {
        mem_left[hi] -= vm.memory_mb;
        credit_left[hi] -= credit_needed;
        p.assignment[vi] = hi;
        break;
      }
    }
    if (p.assignment[vi] == kUnplaced) ++p.unplaced;
  }

  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    if (mem_left[hi] < hosts[hi].memory_mb || credit_left[hi] < hosts[hi].cpu_capacity_pct) {
      ++p.hosts_used;
    }
  }
  return p;
}

ClusterOutcome evaluate(const Placement& placement, const std::vector<VmSpec>& vms,
                        const std::vector<HostSpec>& hosts, bool allow_unplaced) {
  if (placement.assignment.size() != vms.size())
    throw std::invalid_argument("evaluate: placement does not match VM list");

  ClusterOutcome out;
  out.hosts.resize(hosts.size());

  for (std::size_t vi = 0; vi < vms.size(); ++vi) {
    const std::size_t hi = placement.assignment[vi];
    if (hi == kUnplaced) {
      if (!allow_unplaced)
        throw std::invalid_argument(
            "evaluate: placement leaves \"" + vms[vi].name +
            "\" unplaced; pass allow_unplaced and handle ClusterOutcome::unplaced_vms");
      out.unplaced_vms.push_back(vi);
      out.unplaced_credit_pct += vms[vi].credit;
      out.unplaced_demand_pct += vms[vi].cpu_demand_pct;
      out.unplaced_memory_mb += vms[vi].memory_mb;
      continue;
    }
    if (hi >= hosts.size()) throw std::invalid_argument("evaluate: bad host index");
    HostOutcome& h = out.hosts[hi];
    h.powered_on = true;
    // A NUMA-spilled VM pays its cross-node efficiency penalty in CPU: the
    // same guest work costs more cycles, so both the demand charged and the
    // credit reserved are inflated symmetrically with place_ffd's fit check.
    const bool spilled = numa_spills(vms[vi], hosts[hi]);
    const double inflate = 1.0 + (spilled ? hosts[hi].numa_spill_penalty : 0.0);
    if (spilled) {
      ++h.numa_spills;
      ++out.numa_spills;
    }
    h.cpu_load_pct += vms[vi].cpu_demand_pct * inflate;
    h.credit_reserved_pct += vms[vi].credit * inflate;
    h.memory_used_mb += vms[vi].memory_mb;
  }

  double load_sum = 0.0;
  for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
    HostOutcome& h = out.hosts[hi];
    if (!h.powered_on) continue;
    ++out.hosts_on;
    load_sum += h.cpu_load_pct;

    // PAS operating point: lowest state whose capacity covers the load.
    const cpu::FrequencyLadder& ladder = hosts[hi].ladder;
    h.freq_index = core::compute_new_freq_index(ladder, h.cpu_load_pct);
    const double ratio = ladder.ratio(h.freq_index);
    // Utilization at the chosen state: the same work occupies a larger
    // share of a slower processor (eq. 1).
    const double util =
        std::min(1.0, h.cpu_load_pct / std::max(1e-9, ladder.capacity_pct(h.freq_index)));
    h.power_watts = hosts[hi].power.power_watts(ratio, util);
    const double util_max = std::min(1.0, h.cpu_load_pct / 100.0);
    h.power_max_freq_watts = hosts[hi].power.power_watts(1.0, util_max);

    out.total_power_watts += h.power_watts;
    out.total_power_max_freq_watts += h.power_max_freq_watts;
  }
  out.mean_active_load_pct =
      out.hosts_on > 0 ? load_sum / static_cast<double>(out.hosts_on) : 0.0;
  return out;
}

std::vector<HostSpec> fleet_from_classes(std::size_t count,
                                         const std::vector<HostSpec>& classes) {
  if (classes.empty())
    throw std::invalid_argument("fleet_from_classes: need at least one class");
  std::vector<HostSpec> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    HostSpec h = classes[i % classes.size()];
    h.name.append("-").append(std::to_string(i));
    fleet.push_back(std::move(h));
  }
  return fleet;
}

std::vector<HostSpec> uniform_fleet(std::size_t count, const HostSpec& spec) {
  return fleet_from_classes(count, {spec});
}

}  // namespace pas::consolidation
