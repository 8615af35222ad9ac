#include "federation/federation.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_manager.hpp"

namespace pas::fed {

Federation::Federation(FederationConfig config,
                       std::vector<std::unique_ptr<cluster::Cluster>> shards)
    : cfg_(std::move(config)), shards_(std::move(shards)) {
  if (shards_.empty())
    throw std::invalid_argument("Federation: need at least one shard");

  const auto n = static_cast<ShardId>(shards_.size());
  host_base_.resize(n);
  local_fed_.resize(n);
  std::uint32_t base = 0;
  for (ShardId s = 0; s < n; ++s) {
    host_base_[s] = base;
    base += static_cast<std::uint32_t>(shards_[s]->host_count());
    // Enroll every pre-existing VM: shards in id order, VMs in id order —
    // the FedVmId assignment is a pure function of the shard contents.
    const auto nv = static_cast<cluster::GlobalVmId>(shards_[s]->vm_count());
    local_fed_[s].resize(nv);
    for (cluster::GlobalVmId v = 0; v < nv; ++v) {
      local_fed_[s][v] = static_cast<FedVmId>(vm_loc_.size());
      vm_loc_.push_back({s, v});
    }
    // A shard crash aborts the cross-shard flights touching the host
    // before the shard sweeps its residents (Cluster::crash).
    shards_[s]->install_crash_listener([this, s](cluster::HostId h, common::SimTime now) {
      engine_.abort_host_flights(global_host_id(s, h), now);
    });
  }
}

Federation::~Federation() = default;

std::uint32_t Federation::global_host_id(ShardId shard, cluster::HostId host) const {
  return host_base_.at(shard) + host;
}

void Federation::advance_shards(common::SimTime target) {
  // Serially, in shard-id order; each shard may fan out internally on its
  // own pool. Shards share no mutable state between federation events, so
  // the order is a wall-clock choice only — kept fixed for clarity.
  for (auto& shard : shards_) shard->run_until(target);
}

void Federation::run_until(common::SimTime until) {
  if (!started_) {
    // A single shard schedules NOTHING here: no planner (nothing to
    // balance), so no flights either. The loop below then degenerates to
    // one advance_shards per call — byte-exact to driving the bare Cluster.
    if (shards_.size() > 1) {
      const common::SimTime p = cfg_.planner.period;
      planner_task_ = std::make_unique<sim::PeriodicTask>(
          events_, p, p, [this](common::SimTime t) { planner_tick(t); });
    }
    started_ = true;
  }
  while (now_ < until) {
    // The cluster's lockstep loop, one level up: advance every shard to
    // the next federation event, then fire it. A shard's own events at t
    // fire inside its run_until(t) — before any federation event at t, a
    // fixed order independent of engine or thread count.
    const common::SimTime next_event = events_.next_event_time(until);
    if (events_.empty() || next_event > until) {
      advance_shards(until);
      now_ = until;
      break;
    }
    if (next_event > now_) {
      advance_shards(next_event);
      now_ = next_event;
    }
    events_.run_until(now_);
  }
}

cluster::Outcome Federation::migrate(ShardId from_shard, cluster::GlobalVmId vm,
                                     ShardId to_shard, cluster::HostId to_host) {
  if (from_shard >= shards_.size() || to_shard >= shards_.size())
    throw std::invalid_argument("Federation: bad shard id");
  cluster::Cluster& src = *shards_[from_shard];
  // Same shard: the shard's own engine.
  if (from_shard == to_shard) return src.apply(cluster::Command::migrate(vm, to_host));

  // The source VM must be lockable (running, not in a shard flight, not
  // already locked) and the destination host able to power on (not
  // crashed); both shards word the refusal. The lock fences the shard
  // manager off the VM until the flight's detach departs it.
  cluster::Cluster& dst = *shards_[to_shard];
  const cluster::Command lock = cluster::Command::federation_lock(vm);
  cluster::Outcome out = src.check(lock);
  if (out.ok()) out = dst.check(cluster::Command::power(to_host, true));
  if (!out.ok()) return out;
  (void)src.apply(lock);
  const FedVmId fed = local_fed_[from_shard][vm];
  // A VM in a cross-shard flight is locked or departed on its source shard.
  assert(!flights_.contains(fed));

  const cluster::HostId from_host = src.residence(vm);
  const platform::HostClass& src_cls = src.host_class(from_host);
  const platform::HostClass& dst_cls = dst.host_class(to_host);
  const cluster::ClusterVmConfig cfg = src.vm_config(vm);

  // Register the destination end (slot parked, SLA registered, host
  // powered, state kInbound).
  const cluster::GlobalVmId dst_vm = dst.admit_inbound(cfg, to_host);
  local_fed_[to_shard].resize(dst.vm_count(), 0);
  local_fed_[to_shard][dst_vm] = fed;

  cluster::MigrationEngine::Endpoint source{&src.host(from_host), src.home_slot(vm),
                                            &src.agent(from_host)};
  cluster::MigrationEngine::Endpoint dest{&dst.host(to_host), dst.slot_on(to_host, dst_vm),
                                          &dst.agent(to_host)};
  flights_.emplace(fed, FedMigrationRecord{fed, from_shard, to_shard, from_host, to_host,
                                            vm, dst_vm, {}});
  // The engine runs the classic pre-copy over the federation queue;
  // class-aware surcharges land as a stretched dirty rate and a per-flight
  // switch-over addition.
  engine_.begin(
      fed, global_host_id(from_shard, from_host), global_host_id(to_shard, to_host),
      source, dest, cfg.memory_mb, cfg.dirty_mb_per_s * link_.dirty_factor(src_cls, dst_cls),
      now_, [this, fed](const cluster::MigrationRecord& r) { on_link_done(fed, r); },
      [this, fed](const cluster::MigrationRecord&) { on_link_detach(fed); },
      link_.switch_penalty(src_cls, dst_cls));
  ++moves_issued_;
  return out;
}

void Federation::on_link_detach(FedVmId vm) {
  // Stop-and-copy began: the engine drained the source slot; the source
  // shard now sees the VM as departed (no SLA, no planning, no recovery).
  const FedMigrationRecord& f = flights_.at(vm);
  shards_[f.from_shard]->mark_departed(f.src_vm);
}

void Federation::on_link_done(FedVmId vm, const cluster::MigrationRecord& record) {
  const auto it = flights_.find(vm);
  FedMigrationRecord f = std::move(it->second);
  flights_.erase(it);
  f.record = record;
  if (record.aborted()) {
    // A crash at either end (the only way a link flight aborts): the
    // destination drops its reservation, and the source takes the guest
    // back — or loses it with its crashed host.
    shards_[f.to_shard]->cancel_inbound(f.dst_vm);
    shards_[f.from_shard]->abort_departure(f.src_vm, record);
  } else {
    // The engine's attach already delivered workload + credit into the
    // destination slot; complete_inbound flips kInbound -> kRunning and
    // charges the pause.
    shards_[f.to_shard]->complete_inbound(f.dst_vm, record.downtime);
    vm_loc_[f.vm] = FedVmRef{f.to_shard, f.dst_vm};
  }
  records_.push_back(std::move(f));
}

Federation::ShardLoad Federation::shard_load(ShardId s) const {
  const cluster::Cluster& c = *shards_.at(s);
  // The shard manager's last-planned live set — as fresh as the shard's
  // last planning tick, exactly the staleness a real cross-cluster control
  // plane would see — or the live fleet itself before the first plan.
  const cluster::ClusterManager* mgr = c.manager();
  const bool planned = mgr != nullptr && mgr->has_plan();
  const cluster::LiveSet scanned = planned ? cluster::LiveSet{} : cluster::live_set(c);
  const cluster::LiveSet& live = planned ? mgr->planned() : scanned;
  ShardLoad load;
  for (const cluster::HostId h : live.hosts) load.capacity_mb += c.host_memory_mb(h);
  for (const cluster::GlobalVmId g : live.vms) load.reserved_mb += c.vm_config(g).memory_mb;
  // Memory in flight toward the shard (admitted kInbound, not yet
  // attached), so concurrent planner ticks don't double-fill it.
  double inbound_mb = 0.0;
  for (const auto& [fed, f] : flights_)
    if (f.to_shard == s) inbound_mb += c.vm_config(f.dst_vm).memory_mb;
  load.reserved_mb += inbound_mb;
  return load;
}

void Federation::planner_tick(common::SimTime /*now*/) {
  ++planner_ticks_;
  const auto n = static_cast<ShardId>(shards_.size());
  std::vector<ShardLoad> loads(n);
  for (ShardId s = 0; s < n; ++s) loads[s] = shard_load(s);

  std::size_t budget = cfg_.planner.max_cross_shard_per_tick;
  while (budget > 0) {
    // Most- and least-utilized shard; ties break to the lowest id (strict
    // comparisons), keeping the choice deterministic.
    ShardId hi = 0;
    ShardId lo = 0;
    for (ShardId s = 1; s < n; ++s) {
      if (loads[s].utilization() > loads[hi].utilization()) hi = s;
      if (loads[s].utilization() < loads[lo].utilization()) lo = s;
    }
    if (hi == lo) break;
    if (loads[hi].utilization() - loads[lo].utilization() < kImbalanceThreshold) break;

    // Destination: the least-loaded shard's live host with the most free
    // reserved memory (running + inbound residents subtracted; ties to the
    // lowest id).
    const cluster::Cluster& dst = *shards_[lo];
    bool have_host = false;
    cluster::HostId best_host = 0;
    double best_free = 0.0;
    for (cluster::HostId h = 0; h < dst.host_count(); ++h) {
      if (dst.crashed(h)) continue;
      double free = dst.host_memory_mb(h);
      for (const auto& [gid, slot] : dst.host_slots(h)) {
        if (dst.residence(gid) != h) continue;
        const cluster::VmState st = dst.vm_state(gid);
        if (st == cluster::VmState::kRunning || st == cluster::VmState::kInbound)
          free -= dst.vm_config(gid).memory_mb;
      }
      if (!have_host || free > best_free) {
        have_host = true;
        best_free = free;
        best_host = h;
      }
    }
    if (!have_host) break;

    // Candidate: the most-loaded shard's largest lockable VM (running, in
    // no flight, unfenced) that fits the chosen destination (ties to the
    // lowest id).
    const cluster::Cluster& srcc = *shards_[hi];
    bool have_vm = false;
    cluster::GlobalVmId best_vm = 0;
    double best_mem = 0.0;
    const auto nv = static_cast<cluster::GlobalVmId>(srcc.vm_count());
    for (cluster::GlobalVmId g = 0; g < nv; ++g) {
      if (!srcc.check(cluster::Command::federation_lock(g)).ok()) continue;
      const double mem = srcc.vm_config(g).memory_mb;
      if (mem > best_free) continue;
      if (!have_vm || mem > best_mem) {
        have_vm = true;
        best_mem = mem;
        best_vm = g;
      }
    }
    if (!have_vm) break;
    if (!migrate(hi, best_vm, lo, best_host).ok()) break;
    --budget;
    // Book the move against this tick's aggregates so the loop converges
    // instead of re-picking the same pair forever.
    loads[hi].reserved_mb -= best_mem;
    loads[lo].reserved_mb += best_mem;
  }
}

}  // namespace pas::fed
