// Hosting-center example: a provider's fleet under three operating
// policies, audited for the electricity bill AND for what the customers
// actually got — now on the real multi-host cluster with live migration
// (PR 1's single-host audit grew into the dynamic §2.3 workflow).
//
// Policies:
//   static spread       — VMs stay where they landed; all hosts on, max
//                         frequency (the "just buy hardware" baseline)
//   consolidation       — online manager packs VMs with live migrations
//                         and powers empty hosts off (VOVO)
//   consolidation + PAS — the manager additionally scales each host's
//                         frequency, re-compensating credits (eq. 4)
//
// The audit shows the §2.3 claim end to end: consolidation cuts most of
// the bill, DVFS reclaims more on top, and the SLA column shows what the
// reconfiguration cost the customers (migration downtime included).
//
// Run: ./examples/hosting_center [--hours=2] [--hosts=8] [--vms=64]
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/flags.hpp"
#include "scenario/hosting_cluster.hpp"

using namespace pas;

namespace {

struct AuditRow {
  std::string policy;
  double energy_kj = 0.0;
  double mean_watts = 0.0;
  std::size_t hosts_on = 0;
  std::size_t migrations = 0;
  common::SimTime total_downtime{};
  double worst_violation_fraction = 0.0;
  std::string worst_customer;
};

AuditRow run_policy(const std::string& policy, const scenario::HostingClusterConfig& base) {
  scenario::HostingClusterConfig cfg = base;
  if (policy == "static spread") {
    cfg.install_manager = false;
  } else if (policy == "consolidation") {
    cfg.manager.dvfs = cluster::ClusterManagerConfig::Dvfs::kPinnedMax;
  }  // "consolidation + PAS" keeps the default kPas
  auto cl = scenario::build_hosting_cluster(cfg);
  cl->run_until(cfg.horizon);

  AuditRow row;
  row.policy = policy;
  row.energy_kj = cl->energy_joules() / 1000.0;
  row.mean_watts = cl->average_watts();
  row.hosts_on = cl->powered_on_count();
  row.migrations = cl->migrations().size();
  for (cluster::GlobalVmId gid = 0; gid < cl->vm_count(); ++gid) {
    row.total_downtime += cl->vm_stats(gid).downtime;
    const double violation = cl->sla().violation_fraction(gid);
    if (violation > row.worst_violation_fraction) {
      row.worst_violation_fraction = violation;
      row.worst_customer = cl->vm_config(gid).vm.name;
    }
  }
  return row;
}

}  // namespace

static int run(const pas::common::Flags& flags) {
  scenario::HostingClusterConfig base;
  base.horizon = common::seconds(flags.get_int("hours", 2) * 3600);
  base.hosts = flags.get_count("hosts", 8);
  base.vms = flags.get_count("vms", 64);

  std::printf("Hosting-center audit: %zu tenants on %zu hosts, %lld h.\n\n", base.vms,
              base.hosts, static_cast<long long>(base.horizon.sec() / 3600));
  std::printf("  %-20s %11s %8s %9s %11s %10s %14s %9s\n", "policy", "energy kJ",
              "mean W", "hosts on", "migrations", "downtime s", "worst SLA viol", "customer");

  for (const char* policy : {"static spread", "consolidation", "consolidation + PAS"}) {
    const AuditRow r = run_policy(policy, base);
    std::printf("  %-20s %11.0f %8.1f %9zu %11zu %10.2f %13.1f%% %9s\n", r.policy.c_str(),
                r.energy_kj, r.mean_watts, r.hosts_on, r.migrations,
                r.total_downtime.sec(), 100.0 * r.worst_violation_fraction,
                r.worst_customer.empty() ? "-" : r.worst_customer.c_str());
  }

  std::printf(
      "\nreading: consolidation powers hosts off and pays for it in migrations and\n"
      "a little SLA-visible downtime; PAS then drops the survivors' frequency and\n"
      "re-compensates credits, reclaiming more energy without further SLA cost —\n"
      "DVFS is complementary to consolidation (paper §2.3), live.\n");
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
