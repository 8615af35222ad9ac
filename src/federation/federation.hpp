// Sharded multi-cluster federation: one coordinator over N Cluster shards
// on a shared virtual clock, with a global planner tier above the
// per-shard ClusterManagers and cross-shard live migrations priced over
// one WAN link (see link_model.hpp).
//
// Clock model — the cluster's lockstep contract, lifted one level: shards
// never interact except through FEDERATION events (planner ticks, link
// migration phases), and every federation event fires at an instant where
// all shards have been advanced to exactly that time. run_until therefore
// alternates
//
//     advance every shard to the next federation event -> fire the event
//
// with shards advanced serially in shard-id order (each shard may use its
// own parallel engine internally). A shard's own events at time t fire
// inside its run_until(t), i.e. BEFORE any federation event at t — a
// fixed, engine-independent order, so a federation run is byte-identical
// across fast/slow paths and thread counts exactly like a single cluster.
// With K = 1 the federation schedules NO events at all (nothing to
// balance, no flights), so its run loop degenerates to one run_until per
// call — byte-exact to driving the bare Cluster.
//
// Cross-shard migration reuses the cluster's MigrationEngine wholesale:
// the federation owns one engine built from wan_link()'s MigrationConfig,
// scheduling on the FEDERATION queue (synced instants). FedVmIds and
// federation-global host ids key its flights, so no two shard pairs can
// collide in it.
// The flight's source endpoint is the guest's live slot in the source
// shard; the destination endpoint is a slot admitted mid-run in the
// destination shard (Cluster::admit_inbound, state kInbound). The engine
// does what it always does — pre-copy rounds billing both hypervisor
// agents, detach draining workload+credit from the source, attach
// delivering both into the destination — and the federation's callbacks
// keep the shard bookkeeping honest: mark_departed at detach,
// complete_inbound (with the SLA-charged pause) at attach. The source
// shard's manager is fenced off the VM for the flight's duration by a
// federation_lock command. A shard host crash reaches the engine through
// the shard's crash listener, before the shard's own sweep:
// abort_host_flights on the host's federation-global id, then
// cancel_inbound on the destination and abort_departure on the source
// (unlocked, rolled back, or lost with its host). A rollback onto a
// source shard other than the crashing one lands at that shard's clock,
// which is ahead of or behind the crash instant by at most the
// federation segment in progress — shard-id order, so still deterministic.
//
// Planner: each tick reads per-shard aggregates — host memory and running
// VMs' memory summed over the shard manager's last-planned live set
// (ClusterManager::planned()), or over a direct scan of the live fleet
// before the shard's first plan — and issues at most
// max_cross_shard_per_tick moves from the most- to the least-utilized
// shard while their reserved-memory utilization gap exceeds
// kImbalanceThreshold. The global tier balances shard AGGREGATES;
// placement inside a shard stays the shard manager's business.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "federation/link_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::fed {

using ShardId = std::uint32_t;
/// Federation-wide VM identity: stable across shard hops (a VM's per-shard
/// GlobalVmId changes when it crosses a link; this id never does).
using FedVmId = std::uint32_t;

struct FederationPlannerConfig {
  common::SimTime period = common::seconds(120);
  /// Cross-shard migration budget per planner tick (mass WAN reshuffles
  /// are how federated fleets melt down).
  std::size_t max_cross_shard_per_tick = 2;
};

/// Minimum reserved-memory utilization gap (fraction of capacity) between
/// the most- and least-loaded shard before the planner issues a move.
inline constexpr double kImbalanceThreshold = 0.10;

struct FederationConfig {
  FederationPlannerConfig planner;
};

/// Where a federation VM currently lives.
struct FedVmRef {
  ShardId shard = 0;
  cluster::GlobalVmId vm = 0;
};

/// One cross-shard migration: in flight from migrate() on, ended once
/// `record` is filled at the attach — or at the crash that aborted it
/// (record.outcome). `record.from`/`record.to` carry federation-global host
/// ids (global_host_id); `record.vm` the FedVmId.
struct FedMigrationRecord {
  FedVmId vm = 0;
  ShardId from_shard = 0;
  ShardId to_shard = 0;
  cluster::HostId from_host = 0;      // shard-local
  cluster::HostId to_host = 0;        // shard-local
  cluster::GlobalVmId src_vm = 0;     // the VM's id in the source shard (kDeparted)
  cluster::GlobalVmId dst_vm = 0;     // its id in the destination shard
  cluster::MigrationRecord record;
};

class Federation {
 public:
  /// Takes ownership of the shards. Every VM already added to a shard is
  /// enrolled with a FedVmId (shards in id order, VMs in id order within
  /// each shard). Shards must not have started running yet.
  Federation(FederationConfig config, std::vector<std::unique_ptr<cluster::Cluster>> shards);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Advances every shard, in lockstep, to absolute time `until`.
  void run_until(common::SimTime until);

  /// Starts a cross-shard live migration of `vm` (source-shard id) onto
  /// `to_host` in `to_shard`, over the WAN link. Same-shard calls apply
  /// the shard's own migrate command. A cross-shard move is refused with
  /// the source shard's federation_lock verdict (the VM is not running,
  /// in a shard flight, or already locked by a cross-shard flight) or the
  /// destination shard's power-on verdict (the host crashed). Callable
  /// from planner ticks and between run_until calls.
  cluster::Outcome migrate(ShardId from_shard, cluster::GlobalVmId vm, ShardId to_shard,
               cluster::HostId to_host);

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] cluster::Cluster& shard(ShardId s) { return *shards_.at(s); }
  [[nodiscard]] const cluster::Cluster& shard(ShardId s) const { return *shards_.at(s); }
  /// Federation-global host id: shard host-count prefix sum + local id.
  [[nodiscard]] std::uint32_t global_host_id(ShardId shard, cluster::HostId host) const;
  /// Current location of a federation VM.
  [[nodiscard]] FedVmRef locate(FedVmId vm) const { return vm_loc_.at(vm); }
  [[nodiscard]] std::size_t vm_count() const { return vm_loc_.size(); }
  [[nodiscard]] bool in_cross_shard_flight(FedVmId vm) const {
    return flights_.contains(vm);
  }
  [[nodiscard]] std::size_t cross_shard_in_flight() const { return flights_.size(); }
  /// Ended cross-shard migrations, in end order: completed ones and those a
  /// shard host crash aborted (record.aborted()). An aborted flight leaves
  /// the VM located on its source shard.
  [[nodiscard]] const std::vector<FedMigrationRecord>& cross_shard_records() const {
    return records_;
  }
  [[nodiscard]] std::size_t planner_ticks() const { return planner_ticks_; }
  [[nodiscard]] std::size_t moves_issued() const { return moves_issued_; }

  /// Per-shard aggregate the planner balances: plannable capacity vs
  /// reserved memory (over the shard manager's last-planned live set, so
  /// a crash or departure shows only after the shard's next planning tick;
  /// a live scan before its first plan), plus memory already in flight
  /// toward the shard so concurrent planner ticks don't double-fill a
  /// destination.
  struct ShardLoad {
    double capacity_mb = 0.0;
    double reserved_mb = 0.0;
    [[nodiscard]] double utilization() const {
      return capacity_mb > 0.0 ? reserved_mb / capacity_mb : 1.0;
    }
  };
  [[nodiscard]] ShardLoad shard_load(ShardId s) const;

 private:
  void advance_shards(common::SimTime target);
  void planner_tick(common::SimTime now);
  void on_link_detach(FedVmId vm);
  void on_link_done(FedVmId vm, const cluster::MigrationRecord& record);

  FederationConfig cfg_;
  std::vector<std::unique_ptr<cluster::Cluster>> shards_;
  std::vector<std::uint32_t> host_base_;  // shard -> global host id offset

  /// Federation VM registry: id -> current location, and per shard the
  /// local-id -> FedVmId reverse map (grown as inbound VMs register).
  std::vector<FedVmRef> vm_loc_;
  std::vector<std::vector<FedVmId>> local_fed_;

  /// Flights in progress, keyed by FedVmId (ordered: deterministic
  /// iteration); each entry becomes a records_ entry at its attach.
  std::map<FedVmId, FedMigrationRecord> flights_;

  const LinkModel link_ = wan_link();
  sim::EventQueue events_;
  /// Every cross-shard flight, on the federation queue.
  cluster::MigrationEngine engine_{link_.migration, events_};
  std::unique_ptr<sim::PeriodicTask> planner_task_;
  std::vector<FedMigrationRecord> records_;
  std::size_t planner_ticks_ = 0;
  std::size_t moves_issued_ = 0;
  common::SimTime now_{};
  bool started_ = false;
};

}  // namespace pas::fed
