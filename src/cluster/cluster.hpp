// Multi-host cluster: N simulated hosts advancing in lockstep on a shared
// virtual clock, with VMs that live-migrate between them at runtime.
//
// Synchronization model: hosts never interact *except* through cluster
// events (migration phases, manager ticks, SLA sampling), and every cluster
// event fires at an instant where all hosts have been advanced to exactly
// that time. The run loop therefore alternates
//
//     advance every host to the next cluster event -> fire the event
//
// which makes cross-host interaction conservative: within a segment each
// host simulates independently (its event-driven fast path may skip freely
// — the segment bound caps every skip), and anything that mutates another
// host's runnable set (a migration attach, overhead injected into a
// hypervisor agent) happens only at segment boundaries, followed by
// Host::notify_workload_changed. This is how the fast path "learns" about
// remote migrations without any cross-host speculation, and why a cluster
// run is byte-identical with the fast path on and off (the cluster fuzz
// test pins this for ~100 random scenarios).
//
// Because hosts share no mutable state within a segment (the contract
// hv::Host documents and enforces), the "advance every host" half of the
// loop is embarrassingly parallel: ExecutionPolicy::threads > 1 steps the
// hosts on a fixed-size common::ThreadPool, barriers, and then fires the
// cluster events serially on the coordinating thread in the queue's
// (time, insertion-sequence) order — the same order the serial driver
// uses. Each host's computation is a pure function of its own state and
// the segment bound, so every observable (traces, migration records, SLA
// counters, energy totals) is byte-identical to the serial engine at any
// thread count; tests/cluster/cluster_parallel_test.cpp sweeps
// threads ∈ {1, 2, 4, hardware} over the fuzz scenarios to pin this.
//
// Topology: slots are LAZY. A cluster VM owns a slot only on hosts it has
// actually touched — its home at add_vm, plus each migration/recovery
// destination, created on first use (slot 0 of every host is its
// hypervisor agent; guest slots follow in per-host arrival order). Exactly
// one of a VM's slots holds the guest's workload at any time — the others
// park an IdleGuest that is never runnable — so migration remains a
// workload-pointer + credit handoff and per-host dense VmIds stay stable
// once created. Lazy creation is what makes fleet scale feasible: at
// ~10k hosts / 100k VMs the old every-VM-on-every-host layout would mean
// a billion slots; lazily it is 100k plus one per migration. Slot lookups
// go through per-host and per-VM sorted maps (slot_on / host_slots).
//
// Mutation: every state change a running cluster accepts from outside is a
// Command (cluster/command.hpp) passed to apply(), which decides refusals
// in one place, check(). The federation hand-off steps (admit_inbound,
// mark_departed, complete_inbound, and on an aborted flight
// cancel_inbound and abort_departure) stay typed: each has one caller and
// throws on misuse.
//
// Guest moves: every slot change — stop, crash sweep, start/restart,
// migration detach/attach/rollback — goes through hv::Host::detach_guest
// and attach_guest, which carry the credit balance and re-cap the slot by
// eq. 4 from its own VmConfig::credit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/command.hpp"
#include "cluster/hypervisor_agent.hpp"
#include "cluster/migration.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "hypervisor/host.hpp"
#include "metrics/cluster_energy_meter.hpp"
#include "metrics/sla_checker.hpp"
#include "platform/host_class.hpp"
#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::fault {
class FaultInjector;
}  // namespace pas::fault

namespace pas::ctl {
class ControlPlane;
}  // namespace pas::ctl

namespace pas::cluster {

class ClusterManager;

struct ClusterVmConfig {
  hv::VmConfig vm;  // name, purchased credit, priority
  /// Memory footprint — the consolidation planner's binding resource and
  /// the migration cost driver.
  double memory_mb = 512.0;
  /// Page-dirty rate while running (pre-copy convergence).
  double dirty_mb_per_s = 50.0;
};

/// How the "advance every host to the next cluster event" half of the run
/// loop executes. Purely a wall-clock knob: the parallel driver is
/// byte-identical to the serial one (see the file header).
struct ExecutionPolicy {
  /// Total executor threads stepping host segments: 1 = the serial driver
  /// (no pool, no worker threads); 0 = one executor per hardware thread;
  /// N > 1 = a pool of N-1 workers plus the coordinating thread.
  std::size_t threads = 1;
};

/// Sparse-driver telemetry: of the host-segments each run_until cut, how
/// many were really dispatched (Host::run_until) vs bulk-skipped on a
/// quiescence certificate. A skipped host is not touched at all: it lags
/// behind the cluster clock and catches up in one Host::skip_idle_to when
/// it turns active or something syncs the fleet, so catch_ups counts the
/// skips actually executed. A consolidated fleet should show
/// active_fraction well below 1 — the engine-scaling claim the cluster
/// bench gates (docs/BENCHMARKS.md, engine block).
struct EngineStats {
  std::uint64_t segments = 0;    // advance_hosts calls
  std::uint64_t dispatches = 0;  // hosts stepped the honest way
  std::uint64_t bulk_skips = 0;  // host-segments covered by a certificate
  std::uint64_t catch_ups = 0;   // Host::skip_idle_to calls executed
  // Accounting refills crossed in closed form by over-cap hosts, summed
  // over the fleet (Host::refills_collapsed; 0 on the reference engine).
  std::uint64_t refills_collapsed = 0;
  [[nodiscard]] double active_fraction() const {
    const double total = static_cast<double>(dispatches + bulk_skips);
    return total > 0.0 ? static_cast<double>(dispatches) / total : 1.0;
  }
};

struct ClusterConfig {
  /// Template applied to every host (quantum, monitor window, trace stride,
  /// event_driven_fast_path, ...). Its ladder and power model are ignored:
  /// each host takes both from its class.
  hv::HostConfig host;
  ExecutionPolicy execution;
  /// The fleet, one platform class per host: entry h defines host h's
  /// frequency ladder, power model, memory, planner capacity and NUMA
  /// layout. Must be non-empty; a uniform fleet is
  /// platform::uniform_fleet_classes(n, cls).
  std::vector<platform::HostClass> host_classes;
  MigrationConfig migration;
  /// Factory for each host's scheduler; defaults to the paper's credit
  /// scheduler when empty.
  std::function<std::unique_ptr<hv::Scheduler>()> make_scheduler;
  /// Credit/priority of each host's hypervisor agent (Dom0's migration
  /// helper; the paper runs Dom0 at the highest priority).
  common::Percent agent_credit = 10.0;
  int agent_priority = 1;
};

/// Lifecycle of a cluster VM under faults and external control. Healthy,
/// uncommanded clusters only ever see kRunning; kOrphaned/kLost exist
/// because hosts can crash, kStopped because operators can say stop.
enum class VmState : std::uint8_t {
  kRunning = 0,
  /// Its host crashed but the VM is restartable: the cluster holds its
  /// workload off-host until the manager's recovery path places it (or
  /// gives up and marks it lost).
  kOrphaned,
  /// Gone for good — crashed without restart, recovery abandoned, or lost
  /// mid-migration (MigrationOutcome::kLostSourceCrash).
  kLost,
  /// Administratively stopped (ctl stop_vm): the workload is held off-host
  /// like an orphan's, but deliberately — no SLA accrues and no recovery
  /// path touches it; only start_vm resumes it.
  kStopped,
  /// Arriving from another cluster (federation WAN migration, destination
  /// side): registered and slot-parked here, but the guest still runs on
  /// the source shard — no SLA samples, no planning, until
  /// complete_inbound flips it to kRunning at the link's attach.
  kInbound,
  /// Handed off to another cluster (federation WAN migration, source side,
  /// from the link's detach on). Terminal within THIS cluster — the guest
  /// lives on in the destination shard; no SLA, no planning, no recovery
  /// here. Also the end of an inbound reservation whose flight a crash
  /// aborted (cancel_inbound): the guest never arrived.
  kDeparted,
};

/// One successful crash-recovery restart (for recovery-latency stats).
struct VmRecovery {
  GlobalVmId vm = 0;
  common::SimTime crashed_at{};
  common::SimTime restarted_at{};

  [[nodiscard]] common::SimTime latency() const { return restarted_at - crashed_at; }
};

/// Aggregate crash-recovery latency (orphan → running again) over a run's
/// VmRecovery records — the chaos bench's SLO block.
struct RecoveryStats {
  std::size_t count = 0;
  /// Lower-median nearest-rank p50 of the latencies; zero when count == 0.
  /// Deliberately NOT stats::percentile_sorted's linear interpolation: an
  /// interpolated median of an even-count sample is a latency that never
  /// happened, and SimTime truncation of it would not be byte-stable. The
  /// divergence (even n: nearest rank picks sorted[(n-1)/2], interpolation
  /// averages the middle pair) is pinned in tests/common/stats_test.cpp.
  common::SimTime p50{};
  common::SimTime max{};
  double mean_s = 0.0;
};

[[nodiscard]] RecoveryStats summarize_recoveries(const std::vector<VmRecovery>& recoveries);

/// Per-VM totals aggregated across every host the VM touched.
struct ClusterVmStats {
  common::SimTime total_busy{};
  common::Work total_work{};
  common::SimTime downtime{};
  std::uint32_t migrations = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Adds a VM resident on `home`, creating its slot there (slots on other
  /// hosts appear lazily if it ever migrates). Must precede the first
  /// run_until.
  GlobalVmId add_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                    HostId home);

  /// Installs the online reconfiguration manager (optional — a cluster
  /// without one is a static multi-host simulation). Must precede the
  /// first run_until.
  void install_manager(std::unique_ptr<ClusterManager> manager);

  /// Advances every host, in lockstep, to absolute time `until`.
  void run_until(common::SimTime until);

  /// The verdict `apply` would reach for `cmd` now, without acting: kOk,
  /// or the first refusal rung of its kind with a reason (the ladder is
  /// tabulated in docs/ARCHITECTURE.md, "The command surface"). Throws
  /// std::invalid_argument on an out-of-range VM or host id — a caller bug,
  /// not a refusal.
  [[nodiscard]] Outcome check(const Command& cmd) const;

  /// Runs check(cmd) and, if it passes, the command's effect. The one way
  /// the manager, the fault injector, the control plane, the federation's
  /// same-shard paths and tests mutate a running cluster. Callable from
  /// cluster events and between run_until calls. A refused command changes
  /// nothing. Effects, per kind:
  ///   migrate    — powers the destination on and starts a live migration.
  ///   stop_vm    — detaches the guest from its host and holds it; cap
  ///                and balance drop to zero. No SLA accrues while stopped —
  ///                the stop was requested, not suffered.
  ///   start_vm   — re-attaches a stopped VM on `host` (powered on) at its
  ///                purchased credit compensated for the host's P-state,
  ///                over an empty balance; no SLA outage charge.
  ///   crash_host — first every migration with the host as an endpoint
  ///                aborts, cross-shard flights through the crash listener
  ///                included (so destination-crash rollbacks land on a live
  ///                source), then every running resident is torn off —
  ///                held kOrphaned for recovery when `restart`, kLost
  ///                otherwise — and the host powers off. A crashed host
  ///                keeps following the clock (idle, energy-gated off).
  ///   restart_vm — start_vm's re-attach for an orphan, with the outage
  ///                [crash, now] SLA-charged as one fully violated window
  ///                and a VmRecovery record.
  ///   mark_lost  — destroys an orphan's held workload; state kLost.
  ///   set_link_bandwidth — re-plans in-flight pre-copies (see
  ///                MigrationEngine::set_link_bandwidth).
  ///   abort_migration / abort_oldest_migration — MigrationEngine::cancel
  ///                on the VM's flight / the longest-in-flight one.
  ///   power on/off — VOVO: powering off excludes the host's energy from
  ///                the cluster total; the host keeps following the clock,
  ///                so power-on is instantaneous.
  ///   federation_lock — fences the VM for a cross-shard flight: from now
  ///                on migrate and stop_vm refuse it, and only
  ///                mark_departed or abort_departure releases it.
  Outcome apply(const Command& cmd);

  /// Installs the external control plane (optional). Must precede the first
  /// run_until; the accepted task stream is armed onto the cluster event
  /// queue when the run starts, AFTER the fault injector's schedule — at
  /// equal times a fault outranks a command, so commands racing a crash
  /// observe the post-crash world deterministically.
  void install_control(std::unique_ptr<ctl::ControlPlane> control);
  [[nodiscard]] ctl::ControlPlane* control() { return control_.get(); }
  [[nodiscard]] const ctl::ControlPlane* control() const { return control_.get(); }

  /// Schedules an arbitrary callback at a fixed queue position: hooks are
  /// armed at run start, after the injector and control plane, in call
  /// order. This is the test seam the control fuzz harness uses to
  /// hand-compile a command stream into raw cluster events occupying the
  /// exact (time, insertion-seq) positions ControlPlane::arm would give
  /// them. Must precede the first run_until.
  void schedule_at(common::SimTime at, std::function<void(common::SimTime)> fn);

  /// Installs the fault injector (optional). Must precede the first
  /// run_until; the injector's schedule is armed onto the cluster event
  /// queue when the run starts.
  void install_faults(std::unique_ptr<fault::FaultInjector> injector);

  // --- federation hooks (called by fed::Federation, at synced instants
  // --- between host segments — the same positions cluster events occupy) --

  /// Registers a VM arriving from another cluster mid-run: creates and
  /// parks its slot on `home` (an IdleGuest — the guest itself is still
  /// running on the source shard), registers SLA accounting, powers `home`
  /// on, state kInbound. The workload arrives through the federation
  /// link's attach; complete_inbound then flips it to kRunning. Returns
  /// the VM's id in THIS cluster. Throws on a bad or crashed host.
  GlobalVmId admit_inbound(ClusterVmConfig config, HostId home);

  /// Source-side handoff at the federation link's detach: the engine has
  /// already drained the slot (workload + credit are in transit), so this
  /// just marks the VM kDeparted (leaving the manager's live set).
  /// Throws std::logic_error unless the VM is kRunning.
  void mark_departed(GlobalVmId vm);

  /// Destination-side completion at the federation link's attach: the
  /// engine has re-attached workload + credit on the VM's slot; this flips
  /// kInbound -> kRunning, charges the WAN pause as a fully violated SLA
  /// window (same contract as an intra-cluster stop-and-copy), and counts
  /// the migration. Throws std::logic_error unless the VM is kInbound.
  void complete_inbound(GlobalVmId vm, common::SimTime downtime);

  /// Destination side of a cross-shard flight a crash aborted: the
  /// reservation is released, kInbound -> kDeparted (the parked slot keeps
  /// its IdleGuest; the guest never arrived). Throws std::logic_error
  /// unless the VM is kInbound.
  void cancel_inbound(GlobalVmId vm);

  /// Source side of a cross-shard flight a crash aborted, by the record's
  /// outcome: a pre-copy abort only lifts the federation lock (the guest
  /// never left); a stop-and-copy rollback re-attached the guest on its
  /// source slot, so kDeparted -> kRunning with the truncated pause
  /// charged like complete_inbound's; a source crash in the pause lost the
  /// guest, kDeparted -> kLost. Throws std::logic_error on any other
  /// state or outcome.
  void abort_departure(GlobalVmId vm, const MigrationRecord& record);

  /// Installs the federation's crash listener (at most one, before the
  /// first run_until). A crash_host calls it with the host and the crash
  /// instant first — before this cluster's own migration aborts and its
  /// resident sweep — so a cross-shard flight with an endpoint on the host
  /// resolves while both shards still hold the guest.
  void install_crash_listener(std::function<void(HostId, common::SimTime)> listener);

  /// Federation transfer lock (a federation_lock command): while set, the
  /// shard's own manager and control paths cannot migrate or stop the VM —
  /// the federation owns its placement until the cross-cluster flight
  /// resolves.
  [[nodiscard]] bool federation_locked(GlobalVmId vm) const {
    return fed_locked_.at(vm) != 0;
  }

  // --- accessors ---
  [[nodiscard]] common::SimTime now() const { return now_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t vm_count() const { return vm_cfgs_.size(); }
  [[nodiscard]] hv::Host& host(HostId id) { return *hosts_.at(id); }
  [[nodiscard]] const hv::Host& host(HostId id) const { return *hosts_.at(id); }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] double link_bandwidth() const { return engine_->config().link_mb_per_s; }
  /// The platform class host `id` was built from.
  [[nodiscard]] const platform::HostClass& host_class(HostId id) const {
    return cfg_.host_classes.at(id);
  }
  /// Physical memory of host `id` (its class's) — the planner's binding
  /// resource.
  [[nodiscard]] double host_memory_mb(HostId id) const {
    return cfg_.host_classes.at(id).memory_mb;
  }
  [[nodiscard]] const ClusterVmConfig& vm_config(GlobalVmId vm) const {
    return vm_cfgs_.at(vm);
  }
  /// The VM's slot index on `host`. Throws if the VM never touched that
  /// host — check has_slot() first when unsure.
  [[nodiscard]] common::VmId slot_on(HostId host, GlobalVmId vm) const;
  [[nodiscard]] bool has_slot(HostId host, GlobalVmId vm) const;
  /// The VM's slot on its current residence (cached — the hot lookup).
  [[nodiscard]] common::VmId home_slot(GlobalVmId vm) const { return home_slot_.at(vm); }
  /// Every (vm, slot) pair on `host`, ascending by VM id — the
  /// deterministic order per-host sweeps (crash, DVFS re-cap, recovery
  /// reservation sums) walk.
  [[nodiscard]] const std::vector<std::pair<GlobalVmId, common::VmId>>& host_slots(
      HostId host) const {
    return host_slots_.at(host);
  }
  /// Host currently responsible for the VM (the source until a migration's
  /// attach completes).
  [[nodiscard]] HostId residence(GlobalVmId vm) const { return home_.at(vm); }
  [[nodiscard]] bool migrating(GlobalVmId vm) const { return engine_->in_flight(vm); }
  [[nodiscard]] VmState vm_state(GlobalVmId vm) const { return vm_state_.at(vm); }
  [[nodiscard]] bool crashed(HostId host) const { return crashed_.at(host) != 0; }
  [[nodiscard]] std::size_t crashed_count() const;
  /// VMs currently awaiting recovery, in ascending id order (the
  /// deterministic order the manager's recovery pass walks).
  [[nodiscard]] std::vector<GlobalVmId> orphaned_vms() const;
  /// The crash instant that last orphaned `vm` (meaningful while it is
  /// kOrphaned): a VM restarted and orphaned again reads a new instant.
  [[nodiscard]] common::SimTime orphaned_at(GlobalVmId vm) const {
    return held_since_.at(vm);
  }
  [[nodiscard]] std::size_t running_vm_count() const;
  [[nodiscard]] std::size_t lost_vm_count() const;
  [[nodiscard]] const std::vector<VmRecovery>& recoveries() const { return recoveries_; }
  [[nodiscard]] ClusterManager* manager() { return manager_.get(); }
  [[nodiscard]] const ClusterManager* manager() const { return manager_.get(); }
  [[nodiscard]] const fault::FaultInjector* faults() const { return injector_.get(); }
  [[nodiscard]] bool powered_on(HostId host) const { return meter_.powered(host); }
  [[nodiscard]] std::size_t powered_on_count() const;
  /// True if the host holds running residents or an in-flight migration
  /// endpoint.
  [[nodiscard]] bool host_in_use(HostId host) const;
  [[nodiscard]] const MigrationEngine& engine() const { return *engine_; }
  [[nodiscard]] HypervisorAgent& agent(HostId host) { return *agents_.at(host); }

  // --- cluster-wide metrics ---
  /// VOVO-gated total energy (powered-off intervals excluded).
  [[nodiscard]] double energy_joules() const;
  /// One host's VOVO-gated energy — the per-class energy split in the
  /// cluster bench sums these by class.
  [[nodiscard]] double host_energy_joules(HostId host) const;
  /// Mean cluster power over the run so far.
  [[nodiscard]] double average_watts() const;
  [[nodiscard]] ClusterVmStats vm_stats(GlobalVmId vm) const;
  [[nodiscard]] const std::vector<MigrationRecord>& migrations() const {
    return engine_->completed();
  }
  /// Cluster-wide SLA accounting: per-VM absolute delivery vs purchased
  /// credit sampled every monitor window on the VM's resident host, plus
  /// every migration's stop-and-copy pause charged as a fully violated
  /// window (a paused VM delivers nothing, whatever it bought).
  [[nodiscard]] const metrics::SlaChecker& sla() const { return sla_; }

  /// Executors actually stepping host segments (1 = serial driver).
  [[nodiscard]] std::size_t execution_threads() const {
    return pool_ ? pool_->thread_count() : 1;
  }

  /// Sparse-driver dispatch counters for the run so far.
  [[nodiscard]] EngineStats engine_stats() const;

 private:
  void install_periodic_tasks();
  /// Advances every host that can act before `target` to it — the serial
  /// loop or the pooled fork-join, per ExecutionPolicy. Both leave
  /// identical host states. Hosts whose quiescence certificate covers the
  /// segment stay behind (lagging); see sync_hosts.
  void advance_hosts(common::SimTime target);
  /// Catches every lagging host up to now_ (Host::skip_idle_to) — before a
  /// cluster event that may read or mutate hosts, and before run_until
  /// returns.
  void sync_hosts();
  void sample_sla(common::SimTime now);
  void on_migration_done(const MigrationRecord& record);
  /// The VM's slot on `host`, creating it (an IdleGuest parked mid-run) on
  /// first touch.
  common::VmId ensure_slot(HostId host, GlobalVmId vm);
  void record_slot(HostId host, GlobalVmId vm, common::VmId slot);
  /// The VM's (id, slot) entry in host_slots_[host], or null.
  [[nodiscard]] const std::pair<GlobalVmId, common::VmId>* find_slot(HostId host,
                                                                     GlobalVmId vm) const;
  /// Appends a VM to every per-VM table, slotted on `home` with `workload`.
  GlobalVmId register_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                         HostId home, VmState state);
  /// Puts a held guest (stopped or orphaned) back to work on `to`.
  void reattach(GlobalVmId vm, HostId to);
  /// apply's crash_host effect (check() has passed).
  void crash(HostId host, bool restart_orphans);
  /// Flips the VOVO meter; every caller has checked the host may flip.
  void power(HostId host, bool on);

  ClusterConfig cfg_;
  std::vector<std::unique_ptr<hv::Host>> hosts_;
  std::vector<HypervisorAgent*> agents_;  // slot 0 of each host, owned there
  std::unique_ptr<common::ThreadPool> pool_;  // null for the serial driver

  std::vector<ClusterVmConfig> vm_cfgs_;
  std::vector<HostId> home_;
  std::vector<common::VmId> home_slot_;  // slot on home_, cached
  /// Per host: (vm, slot) sorted by vm id. Per VM: (host, slot) sorted by
  /// host id. Two views of the same lazy-slot relation.
  std::vector<std::vector<std::pair<GlobalVmId, common::VmId>>> host_slots_;
  std::vector<std::vector<std::pair<HostId, common::VmId>>> vm_slots_;
  std::vector<VmState> vm_state_;
  /// Workload of each kOrphaned or kStopped VM, held off-host until
  /// restart_vm / start_vm / mark_lost. held_since_ is the orphaning
  /// instant (drives the SLA outage charge at restart); administrative
  /// stops don't read it.
  std::vector<std::unique_ptr<wl::Workload>> held_wl_;
  std::vector<common::SimTime> held_since_;
  std::vector<std::uint8_t> crashed_;
  /// Per VM: nonzero while a federation cross-cluster flight owns it.
  std::vector<std::uint8_t> fed_locked_;
  std::vector<VmRecovery> recoveries_;

  sim::EventQueue events_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  const sim::PeriodicTask* sla_task_ = nullptr;  // owned by tasks_
  std::unique_ptr<MigrationEngine> engine_;
  std::unique_ptr<ClusterManager> manager_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<ctl::ControlPlane> control_;
  /// The federation's hook into crash_host; empty outside a federation.
  std::function<void(HostId, common::SimTime)> crash_listener_;
  /// Pre-start schedule_at hooks, armed (in order) after injector+control.
  std::vector<std::pair<common::SimTime, std::function<void(common::SimTime)>>> hooks_;

  metrics::ClusterEnergyMeter meter_;
  metrics::SlaChecker sla_;
  std::vector<common::SimTime> downtime_;
  std::vector<std::uint32_t> migration_count_;

  common::SimTime now_{};
  bool started_ = false;

  EngineStats engine_stats_;
  /// Scratch for advance_hosts' activity partition (hosts that must really
  /// run this segment); reused so the per-segment pass is allocation-free.
  std::vector<std::size_t> active_hosts_;
};

}  // namespace pas::cluster
