// Seeded fault injection: a deterministic chaos schedule for the cluster.
//
// The design splits "what goes wrong" from "how it happens". A FaultPlan is
// pure data — a time-sorted list of fault events drawn from a dedicated
// chaos seed — and the FaultInjector compiles it into ordinary cluster
// events at arm time. Faults therefore ride the same (time, insertion-seq)
// ordered queue as manager ticks and migration phases, which is the whole
// determinism story: an injected crash is just one more cluster event, so
// fast-path, reference and parallel runs replay it identically (the chaos
// fuzz tier pins byte-identity across all of them).
//
// Seeding discipline: every fault category draws from its own named
// substream of the chaos seed (common::substream(chaos_seed, "crash"),
// "abort", "link", "brownout"), and the chaos seed is a separate knob from
// the scenario seed. Two consequences, both load-bearing:
//   * chaos_seed = 0 (or an all-zero FaultConfig) injects nothing, and
//     every pre-existing scenario seed reproduces byte-identically — chaos
//     is strictly additive;
//   * adding a new fault category later consumes a new substream, leaving
//     every historical (chaos_seed → fault plan) mapping intact — the same
//     prefix-preservation contract the scenario generators follow.
//
// What each fault does when it fires (the cluster-side semantics live in
// Cluster / MigrationEngine / ClusterManager; see docs/ARCHITECTURE.md
// "Faults & recovery"):
//   kHostCrash      — a crash_host command: in-flight migrations touching
//                     the host abort first, residents orphan (manager
//                     recovery with bounded retry/backoff) or die.
//   kMigrationAbort — an abort_oldest_migration command: the longest-
//                     in-flight migration cancels (pre-copy abandon or
//                     stop-and-copy rollback, whichever phase it is in).
//                     A no-op if nothing is in flight at that instant.
//   kLinkDegrade    — migration link drops to bandwidth_factor × base for
//                     [at, until); in-flight pre-copies re-plan their
//                     remaining rounds at each edge.
//   kBrownout       — ClusterManager ticks inside [at, until) are skipped;
//                     the first tick after re-plans from the drifted state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/migration.hpp"
#include "common/units.hpp"

namespace pas::sim {
class EventQueue;
}  // namespace pas::sim

namespace pas::cluster {
class Cluster;
}  // namespace pas::cluster

namespace pas::fault {

enum class FaultKind : std::uint8_t {
  kHostCrash = 0,
  kMigrationAbort,
  kLinkDegrade,
  kBrownout,
};

/// One scheduled fault. Which fields matter depends on `kind`; unused ones
/// keep their defaults so plans compare and print cleanly.
struct FaultEvent {
  FaultKind kind = FaultKind::kHostCrash;
  common::SimTime at{};
  /// kHostCrash: the victim.
  cluster::HostId host = 0;
  /// kHostCrash: orphan residents for recovery (true) or lose them (false).
  bool restart = true;
  /// kLinkDegrade: surviving fraction of the base bandwidth, in (0, 1).
  double bandwidth_factor = 1.0;
  /// kLinkDegrade / kBrownout: end of the degraded window (exclusive).
  common::SimTime until{};
};

/// A complete chaos schedule, sorted by time (ties keep draw order).
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] std::size_t count(FaultKind kind) const {
    std::size_t n = 0;
    for (const auto& e : events)
      if (e.kind == kind) ++n;
    return n;
  }
  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// How much chaos to draw. Counts are maxima: each category draws
/// uniformly in [0, max]; crashes are additionally capped at hosts − 1
/// (the cluster refuses to crash its last live host).
struct FaultConfig {
  std::size_t max_crashes = 1;
  std::size_t max_migration_aborts = 2;
  std::size_t max_link_degrades = 1;
  std::size_t max_brownouts = 1;
  /// Probability a crash orphans its residents for recovery rather than
  /// losing them outright.
  double restart_probability = 0.75;

  [[nodiscard]] bool any() const {
    return max_crashes + max_migration_aborts + max_link_degrades + max_brownouts > 0;
  }
};

/// Draws a chaos schedule for a cluster of `hosts` hosts over [0, horizon).
/// Deterministic in (config, chaos_seed, hosts, horizon); every category
/// uses its own named substream (see the header comment). Fault times land
/// in the middle ~[5%, 90%] of the horizon so they interleave with real
/// cluster activity rather than firing before warm-up or after the run.
[[nodiscard]] FaultPlan draw_fault_plan(const FaultConfig& config,
                                        std::uint64_t chaos_seed, std::size_t hosts,
                                        common::SimTime horizon);

/// Compiles a FaultPlan into cluster events. Install on the cluster via
/// Cluster::install_faults before the first run_until; the cluster calls
/// arm() exactly once when the run starts.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Schedules every fault in the plan onto `events` against `cluster`.
  /// Called by Cluster::run_until at run start; the injector must outlive
  /// the run (the cluster owns it).
  void arm(cluster::Cluster& cluster, sim::EventQueue& events);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // --- what actually happened (a drawn fault can be a no-op: a crash on
  // the last live host, an abort with nothing in flight) ---
  [[nodiscard]] std::size_t crashes_fired() const { return crashes_fired_; }
  [[nodiscard]] std::size_t aborts_fired() const { return aborts_fired_; }
  [[nodiscard]] std::size_t link_degrades_fired() const { return link_degrades_fired_; }

 private:
  FaultPlan plan_;
  std::size_t crashes_fired_ = 0;
  std::size_t aborts_fired_ = 0;
  std::size_t link_degrades_fired_ = 0;
};

}  // namespace pas::fault
