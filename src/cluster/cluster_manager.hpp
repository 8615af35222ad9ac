// Online cluster reconfiguration: the paper's §2.3 loop made dynamic.
//
// Every period the manager re-runs the consolidation planner from
// src/consolidation/ against the fleet's purchased credits and memory
// footprints (reservations, not demand: SLAs must be honorable whatever
// the guests do), and converges the cluster toward the plan with a bounded
// number of live migrations per tick (mass reshuffles are how real
// consolidation systems melt down). It then applies the paper's two knobs per powered-on
// host: VOVO — hosts left without residents are powered off, hosts the plan
// needs are powered on — and PAS-style DVFS: each host drops to the lowest
// P-state whose capacity covers its observed absolute load plus a margin,
// with every resident VM's credit re-compensated for the chosen state
// (eq. 4), so frequency scaling never silently shrinks what a customer
// bought. Disabling the DVFS step (kPinnedMax) gives the
// consolidation-only baseline the cluster bench compares against — the gap
// is the paper's "DVFS is complementary to consolidation", measured on a
// running fleet instead of a frozen placement.
//
// The planner's inputs (credits, memory) are static, so the plan is stable
// between ticks: once the fleet matches it, the manager issues no further
// migrations until demand moves the DVFS step.
//
// Planning is MEMOIZED on the live set: the running VM ids and the
// non-crashed host ids, both ascending (LiveSet). A plan depends on nothing
// else — VM configs are append-only and host classes are fixed at
// construction — so a tick whose live set equals the last plan's reuses
// that Placement verbatim (a memo hit), and any other tick re-runs
// place_ffd from scratch (a miss). The key is the id lists themselves, not
// a version counter, so no mutation site has to remember to invalidate it.
// replan_every_tick bypasses the memo: it is the from-scratch reference
// the differential tests and the scale bench compare the default against.
//
// Every change the manager makes — migrations, recovery restarts,
// abandonments, VOVO power flips — goes through Cluster::apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "consolidation/consolidation.hpp"

namespace pas::cluster {

/// The planner's whole input domain: running VM ids and non-crashed host
/// ids, both ascending. Equal live sets mean equal place_ffd inputs.
struct LiveSet {
  std::vector<GlobalVmId> vms;
  std::vector<HostId> hosts;
  bool operator==(const LiveSet&) const = default;
};

/// One O(VMs + hosts) scan of the cluster's current live set.
[[nodiscard]] LiveSet live_set(const Cluster& cluster);

/// Planner-memo counters. The names predate the memo; delta_plans is
/// always 0 and stays only so existing readers of the counter set keep
/// compiling.
struct PlanStats {
  std::size_t cached_plans = 0;   ///< memo hits: live set unchanged, plan reused
  std::size_t delta_plans = 0;    ///< always 0: there is no delta path
  std::size_t full_rebuilds = 0;  ///< misses: place_ffd ran from scratch
  std::size_t vms_scanned = 0;    ///< VMs placed by those from-scratch runs
};

struct ClusterManagerConfig {
  common::SimTime period = common::seconds(60);
  /// Live-migration budget per tick.
  std::size_t max_migrations_per_tick = 4;
  enum class Dvfs {
    kPinnedMax,  // consolidation only: every powered-on host at max frequency
    kPas,        // per-host PAS frequency choice + eq. 4 credit compensation
  };
  Dvfs dvfs = Dvfs::kPas;
  /// Capacity margin (absolute % points) the chosen P-state must leave
  /// above the observed load — the down-scaling headroom that prevents
  /// saturate/escalate flapping.
  double load_margin_pct = 5.0;
  /// Issue migrations at all (off = DVFS-only / static-placement baseline).
  bool consolidate = true;
  /// Power empty hosts off / needed hosts on.
  bool vovo = true;
  /// Heterogeneity-aware packing: the planner tries hosts in ascending
  /// idle-watts-per-MB order (consolidation::packing_cost), so VMs
  /// consolidate onto the machines that charge the least standby power for
  /// the binding resource and VOVO retires the expensive ones. No-op on
  /// uniform fleets (every cost ties — index order); turning it off on a
  /// mixed fleet gives the naive index-order baseline the cluster bench
  /// prices the feature against.
  bool efficient_first = true;
  /// Crash recovery: how often to retry restarting an orphaned VM before
  /// abandoning it as lost. Attempt k (1-based) failing schedules the next
  /// try backoff·2^(k−1) later — exponential backoff, evaluated at tick
  /// granularity (a retry due mid-period waits for the next tick).
  std::size_t max_restart_attempts = 5;
  common::SimTime restart_backoff = common::seconds(20);
  /// Reference mode: run the consolidation pass with a from-scratch
  /// place_ffd on every tick, bypassing the live-set memo — the oracle the
  /// differential tests and the scale bench compare the default against.
  bool replan_every_tick = false;
};

class ClusterManager {
 public:
  explicit ClusterManager(ClusterManagerConfig config = {});

  [[nodiscard]] common::SimTime period() const { return cfg_.period; }
  [[nodiscard]] const ClusterManagerConfig& config() const { return cfg_; }

  /// One reconfiguration pass; invoked by the Cluster on its event queue.
  void on_tick(common::SimTime now, Cluster& cluster);

  /// Declares a planner brownout: every tick with from ≤ now < until is
  /// skipped outright (counted in ticks_skipped()), and the first tick
  /// after the window re-plans from whatever state the fleet drifted into
  /// — the graceful-recovery property the chaos tests pin. Callable any
  /// time (the fault injector calls it at arm time).
  void add_brownout(common::SimTime from, common::SimTime until);

  /// Admission control for an externally-commanded migration (the
  /// ctl::ControlPlane's policy gate, asked after Cluster::check passed):
  /// external commands obey the same rules as planner decisions. A
  /// browned-out period issues nothing ("planner brownout"), and planner +
  /// operator share ONE max_migrations_per_tick budget per period
  /// ("migration budget exhausted"). kOk decrements the budget, so an
  /// admitted command must be followed by its Cluster::apply.
  [[nodiscard]] Outcome admit_external_migration(common::SimTime now);

  // --- diagnostics ---
  [[nodiscard]] std::size_t ticks() const { return ticks_; }
  [[nodiscard]] std::size_t ticks_skipped() const { return ticks_skipped_; }
  [[nodiscard]] std::size_t migrations_issued() const { return migrations_issued_; }
  /// Crash-recovery restarts issued / orphans abandoned after
  /// max_restart_attempts failures.
  [[nodiscard]] std::size_t restarts_issued() const { return restarts_issued_; }
  [[nodiscard]] std::size_t restarts_abandoned() const { return restarts_abandoned_; }
  /// VMs the *last* plan could not place (left resident where they were —
  /// the explicit-unplaced contract of consolidation::place_ffd).
  [[nodiscard]] std::size_t last_plan_unplaced() const { return last_plan_unplaced_; }
  /// Always 0: there is no unchanged-tick early-out. Kept only for
  /// existing readers of the counter set, like PlanStats::delta_plans.
  [[nodiscard]] std::size_t plans_skipped() const { return 0; }
  /// Ticks that ran the consolidation pass, and the total wall time they
  /// spent in it (live-set scan + plan + issuance) — the scale bench's
  /// planner-ns-per-tick gate divides these.
  [[nodiscard]] std::size_t planning_ticks() const { return planning_ticks_; }
  [[nodiscard]] std::uint64_t planner_ns() const { return planner_ns_; }
  /// Memo hits and misses of the consolidation passes that ran.
  [[nodiscard]] const PlanStats& book_stats() const { return plan_stats_; }
  /// True once a consolidation pass has computed a plan.
  [[nodiscard]] bool has_plan() const { return plan_stats_.full_rebuilds > 0; }
  /// The live set the last plan was computed for (empty before the first).
  /// It moves only on planning ticks — the per-shard view the federation's
  /// global planner balances, exactly as stale as a real cross-cluster
  /// tier would see it.
  [[nodiscard]] const LiveSet& planned() const { return planned_; }

 private:
  void recover_orphans(common::SimTime now, Cluster& cluster);
  void apply_dvfs(Cluster& cluster);

  /// Recovery progress of one orphaning: a VM orphaned again (after an
  /// operator restart, say) reads a new orphaned_at and starts over.
  struct RetryState {
    common::SimTime orphaned_at{};   // Cluster::orphaned_at this state counts for
    std::size_t attempts = 0;
    common::SimTime next_attempt{};  // earliest tick allowed to retry
  };

  [[nodiscard]] bool browned_out(common::SimTime now) const;

  ClusterManagerConfig cfg_;
  std::vector<std::pair<common::SimTime, common::SimTime>> brownouts_;
  /// Remaining migrations this period — planner issuance and external
  /// admissions both draw it down; every live tick resets it.
  std::size_t migration_budget_left_ = 0;
  std::map<GlobalVmId, RetryState> retry_;  // ordered: deterministic iteration
  std::size_t ticks_ = 0;
  std::size_t ticks_skipped_ = 0;
  std::size_t migrations_issued_ = 0;
  std::size_t restarts_issued_ = 0;
  std::size_t restarts_abandoned_ = 0;
  std::size_t last_plan_unplaced_ = 0;

  // Planning state: the memo (live set + its plan).
  LiveSet planned_;
  consolidation::Placement plan_;
  PlanStats plan_stats_;
  std::size_t planning_ticks_ = 0;
  std::uint64_t planner_ns_ = 0;
};

}  // namespace pas::cluster
