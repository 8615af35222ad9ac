#include "cluster/cluster_manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "consolidation/consolidation.hpp"
#include "core/compensation.hpp"
#include "platform/host_class.hpp"

namespace pas::cluster {

namespace {

consolidation::FfdOptions ffd_options(const ClusterManagerConfig& cfg) {
  consolidation::FfdOptions ffd;
  ffd.efficient_first = cfg.efficient_first;
  return ffd;
}

consolidation::HostSpec plan_host_spec(const Cluster& cluster, HostId host) {
  // Host specs come from each host's *actual* platform class — ladder,
  // power model, memory and NUMA layout per machine, not one template —
  // so the plan sees the fleet the paper's Table 2 describes: machines
  // that differ.
  const platform::HostClass& cls = cluster.host_class(host);
  consolidation::HostSpec spec = platform::to_host_spec(cls);
  spec.name += '-';
  spec.name += std::to_string(host);
  // Reserve the hypervisor agent's credit out of the schedulable
  // capacity, like Dom0 in the paper's single-host budget.
  spec.cpu_capacity_pct = cls.cpu_capacity_pct - cluster.config().agent_credit;
  return spec;
}

consolidation::VmSpec plan_vm_spec(const Cluster& cluster, GlobalVmId vm) {
  const ClusterVmConfig& vc = cluster.vm_config(vm);
  consolidation::VmSpec spec;
  spec.name = vc.vm.name;
  spec.credit = vc.vm.credit;
  spec.memory_mb = vc.memory_mb;
  return spec;
}

/// Live hosts in the order orphan recovery tries them: ascending
/// packing_cost under efficient_first (ties by ascending id, the planner's
/// own tie-break), plain ascending id otherwise.
std::vector<HostId> restart_order(const Cluster& cluster, bool efficient_first) {
  std::vector<std::pair<double, HostId>> keyed;
  for (HostId h = 0; h < cluster.host_count(); ++h) {
    if (cluster.crashed(h)) continue;
    keyed.emplace_back(
        efficient_first
            ? consolidation::packing_cost(platform::to_host_spec(cluster.host_class(h)))
            : 0.0,
        h);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<HostId> order;
  order.reserve(keyed.size());
  for (const auto& entry : keyed) order.push_back(entry.second);
  return order;
}

}  // namespace

LiveSet live_set(const Cluster& cluster) {
  LiveSet live;
  for (GlobalVmId gid = 0; gid < cluster.vm_count(); ++gid)
    if (cluster.vm_state(gid) == VmState::kRunning) live.vms.push_back(gid);
  for (HostId h = 0; h < cluster.host_count(); ++h)
    if (!cluster.crashed(h)) live.hosts.push_back(h);
  return live;
}

ClusterManager::ClusterManager(ClusterManagerConfig config)
    : cfg_(config), migration_budget_left_(config.max_migrations_per_tick) {
  if (cfg_.period.us() <= 0)
    throw std::invalid_argument("ClusterManager: period must be positive");
  if (cfg_.restart_backoff.us() <= 0)
    throw std::invalid_argument("ClusterManager: restart backoff must be positive");
}

bool ClusterManager::browned_out(common::SimTime now) const {
  for (const auto& [from, until] : brownouts_)
    if (now >= from && now < until) return true;
  return false;
}

Outcome ClusterManager::admit_external_migration(common::SimTime now) {
  if (browned_out(now)) return {Status::kRejected, "planner brownout"};
  if (migration_budget_left_ == 0) return {Status::kRejected, "migration budget exhausted"};
  --migration_budget_left_;
  return {};
}

void ClusterManager::add_brownout(common::SimTime from, common::SimTime until) {
  if (until <= from)
    throw std::invalid_argument("ClusterManager: empty brownout window");
  brownouts_.emplace_back(from, until);
}

void ClusterManager::recover_orphans(common::SimTime now, Cluster& cluster) {
  const std::vector<GlobalVmId> orphans = cluster.orphaned_vms();
  if (orphans.empty()) return;
  // Restarts never crash or revive a host, so the candidate order is the
  // same for every orphan this tick.
  const std::vector<HostId> order = restart_order(cluster, cfg_.efficient_first);
  for (const GlobalVmId vm : orphans) {
    RetryState& retry = retry_[vm];
    const common::SimTime orphaned_at = cluster.orphaned_at(vm);
    if (retry.orphaned_at != orphaned_at) retry = RetryState{orphaned_at};
    if (now < retry.next_attempt) continue;

    // First-fit over live hosts by *reservations* (memory + purchased
    // credit of running residents), the same static inputs the planner
    // packs by. Deliberate simplification: destinations of in-flight
    // migrations are not reserved — an overshoot is corrected by the next
    // consolidation pass, exactly like any other drift.
    const ClusterVmConfig& vc = cluster.vm_config(vm);
    HostId target = 0;
    bool found = false;
    for (const HostId h : order) {
      double free_mem = cluster.host_memory_mb(h);
      double free_cpu =
          cluster.host_class(h).cpu_capacity_pct - cluster.config().agent_credit;
      // Only VMs with a slot on h can be resident there, and host_slots is
      // ascending by VM id — the same accumulation order as a full id scan
      // restricted to residents, so the sums are bit-identical.
      for (const auto& entry : cluster.host_slots(h)) {
        const GlobalVmId other = entry.first;
        if (other == vm) continue;
        if (cluster.vm_state(other) != VmState::kRunning) continue;
        if (cluster.residence(other) != h) continue;
        free_mem -= cluster.vm_config(other).memory_mb;
        free_cpu -= cluster.vm_config(other).vm.credit;
      }
      if (vc.memory_mb <= free_mem && vc.vm.credit <= free_cpu) {
        target = h;
        found = true;
        break;
      }
    }

    if (found && cluster.apply(Command::restart_vm(vm, target)).ok()) {
      ++restarts_issued_;
      retry_.erase(vm);
      continue;
    }
    ++retry.attempts;
    if (retry.attempts >= cfg_.max_restart_attempts) {
      (void)cluster.apply(Command::mark_lost(vm));
      ++restarts_abandoned_;
      retry_.erase(vm);
    } else {
      // Exponential backoff: attempt k failing waits backoff·2^(k−1).
      retry.next_attempt =
          now + common::usec(cfg_.restart_backoff.us() << (retry.attempts - 1));
    }
  }
}

void ClusterManager::on_tick(common::SimTime now, Cluster& cluster) {
  if (browned_out(now)) {
    // Browned out: the planner is simply absent this period. No partial
    // work — the next live tick re-plans from the drifted state. The
    // budget stays frozen too: external commands are rejected outright
    // inside the window (admit_external_migration), not billed against a
    // phantom period.
    ++ticks_skipped_;
    return;
  }
  ++ticks_;
  // A fresh period, a fresh migration budget — shared between this tick's
  // issuance loop and any external migrate commands that fire before the
  // next tick (admit_external_migration draws the same counter down).
  migration_budget_left_ = cfg_.max_migrations_per_tick;

  // Crash recovery runs before consolidation so a restarted VM is placed
  // by reservation fit now and re-packed by the very plan computed below.
  recover_orphans(now, cluster);

  if (cfg_.consolidate) {
    const auto wall0 = std::chrono::steady_clock::now();
    // Plan with FFD by memory with credit reservation, exactly the static
    // §2.3 planner — what changed is that the "current placement" now
    // disagrees with it, and the disagreement is worked off by live
    // migrations. Placement is reservation-driven (memory + purchased
    // credit, both static): SLAs must be honorable whatever the demand
    // does, and static inputs keep the plan stable between ticks. Observed
    // load enters below, in the DVFS step.
    // Plan over the *live* fleet only: running VMs (orphaned/lost ones have
    // no slot to pack) onto non-crashed hosts. Plan indices are therefore
    // dense over the survivors — planned_ maps them back.
    // Memo: the plan's inputs are static per id (VM configs are
    // append-only, host classes fixed at construction), so an unchanged
    // live set means place_ffd would return the stored plan again.
    // replan_every_tick recomputes regardless — the reference the
    // differential tests compare against.
    LiveSet live = live_set(cluster);
    if (cfg_.replan_every_tick || !has_plan() || live != planned_) {
      std::vector<consolidation::VmSpec> vms;
      vms.reserve(live.vms.size());
      for (const GlobalVmId gid : live.vms) vms.push_back(plan_vm_spec(cluster, gid));
      std::vector<consolidation::HostSpec> hosts;
      hosts.reserve(live.hosts.size());
      for (const HostId h : live.hosts) hosts.push_back(plan_host_spec(cluster, h));
      plan_ = consolidation::place_ffd(vms, hosts, ffd_options(cfg_));
      planned_ = std::move(live);
      ++plan_stats_.full_rebuilds;
      plan_stats_.vms_scanned += vms.size();
    } else {
      ++plan_stats_.cached_plans;
    }
    // Unplaced VMs are an explicit outcome: they stay where they are, and
    // the count is surfaced so operators see unserved reservations.
    last_plan_unplaced_ = plan_.unplaced;

    // Off-plan VMs migrate within the budget, in plan order. A refusal
    // (the VM is already in flight, or a federation flight owns it) costs
    // no budget.
    for (std::size_t i = 0; i < planned_.vms.size() && migration_budget_left_ > 0; ++i) {
      const GlobalVmId gid = planned_.vms[i];
      const std::size_t target = plan_.assignment[i];
      if (target == consolidation::kUnplaced) continue;
      const HostId target_host = planned_.hosts[target];
      if (target_host == cluster.residence(gid)) continue;
      if (cluster.apply(Command::migrate(gid, target_host)).ok()) {
        ++migrations_issued_;
        --migration_budget_left_;
      }
    }
    ++planning_ticks_;
    planner_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());
  }

  if (cfg_.vovo) {
    for (HostId h = 0; h < cluster.host_count(); ++h) {
      if (cluster.crashed(h)) continue;  // already off, and not revivable
      (void)cluster.apply(Command::power(h, cluster.host_in_use(h)));
    }
  }

  apply_dvfs(cluster);
}

void ClusterManager::apply_dvfs(Cluster& cluster) {
  for (HostId h = 0; h < cluster.host_count(); ++h) {
    if (cluster.crashed(h)) continue;  // nothing left to scale or re-cap
    hv::Host& host = cluster.host(h);
    const cpu::FrequencyLadder& ladder = host.cpu().ladder();

    std::size_t target = ladder.max_index();
    if (cfg_.dvfs == ClusterManagerConfig::Dvfs::kPas && cluster.powered_on(h)) {
      // Listing 1.1 against the smoothed absolute load, with headroom so a
      // saturated-at-capacity host escalates instead of flapping.
      const double load = host.monitor().avg_absolute_load_pct() + cfg_.load_margin_pct;
      target = core::compute_new_freq_index(ladder, load);
    }
    host.cpufreq().request(target);

    // Eq. 4: whatever the state, resident VMs keep the computing capacity
    // they purchased. (At max frequency the compensated credit equals the
    // purchased credit, so this also undoes stale compensation.) Only VMs
    // holding a slot here can be resident — host_slots walks them in
    // ascending VM id, the order the dense id scan used.
    for (const auto& [gid, slot] : cluster.host_slots(h)) {
      if (cluster.residence(gid) != h) continue;
      if (cluster.vm_state(gid) != VmState::kRunning) continue;
      // A VM in its stop-and-copy pause has been detached from this slot
      // (cap 0, balance 0); re-capping it would mint credit into an empty
      // slot. The attach re-establishes the destination cap.
      if (cluster.engine().detached(gid)) continue;
      host.recap(slot);
    }
    host.recap(kAgentSlot);
  }
}

}  // namespace pas::cluster
