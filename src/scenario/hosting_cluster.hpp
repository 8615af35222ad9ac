// Hosting-center cluster scenario: the multi-host successor of the two-VM
// profile — a fleet of hosts, dozens of tenants with day-cycle demand, an
// online consolidation manager migrating VMs at runtime.
//
// The mix follows the single-host throughput bench (web / thrashing /
// batch / reserved-idle tenants with staggered activity), but VMs start
// deliberately spread round-robin across every host: the interesting
// dynamics are the manager packing them (memory-bound, §2.3), powering
// hosts off, and scaling the survivors' frequency down. Used by
// bench_cluster_consolidation, example_hosting_center and the cluster
// tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/units.hpp"
#include "control/task.hpp"
#include "fault/fault.hpp"
#include "platform/host_class.hpp"
#include "workload/trace_replay.hpp"

namespace pas::scenario {

/// Fleet composition behind build_hosting_cluster when no explicit class
/// list is given.
enum class FleetPreset {
  kUniform,  // `hosts` copies of `uniform_class`
  kMixed,    // platform::mixed_fleet_classes(hosts, fleet_seed)
};

/// Tenant demand behind build_hosting_cluster.
enum class WorkloadPreset {
  kSynthetic,  // the historical web/hog/batch/idle mix
  kTrace,      // every VM replays a trace from `traces` (wl::TraceReplay)
};

struct HostingClusterConfig {
  std::size_t hosts = 8;
  std::size_t vms = 64;
  /// Shapes the activity pulses; runs shorter than this leave some tenants
  /// never-active (harmless), longer ones extend the idle tail.
  common::SimTime horizon = common::seconds(4000);
  std::uint64_t seed = 17;
  bool fast_path = true;
  /// Executor threads for host segments (cluster::ExecutionPolicy): 1 =
  /// serial driver, 0 = hardware concurrency. Wall-clock only — results
  /// are byte-identical at any value.
  std::size_t threads = 1;
  common::SimTime trace_stride = common::seconds(10);
  /// Explicit per-host classes; non-empty overrides `fleet`, and `hosts`
  /// must agree with its size (build_hosting_cluster throws otherwise —
  /// the VM round-robin spreads over `hosts`, so a mismatch would
  /// mis-home tenants).
  std::vector<platform::HostClass> host_classes;
  FleetPreset fleet = FleetPreset::kUniform;
  /// Class-mixing seed for FleetPreset::kMixed: 0 = the round-robin
  /// catalog preset, anything else draws per-host classes from an Rng.
  std::uint64_t fleet_seed = 0;
  /// The class behind FleetPreset::kUniform; the default keeps the
  /// historical 8 GB hosts with the paper's ladder and power model.
  platform::HostClass uniform_class = default_uniform_class();
  /// Tenant demand model. kTrace assigns each VM a trace from `traces`
  /// (which must then be non-empty), drawn deterministically from
  /// `fleet_seed` — the same run-shaping seed the mixed fleet uses, so one
  /// (preset, seed) pair names a reproducible scenario. Per-VM credit is
  /// sized from the trace's peak demand (25 % headroom) and memory from
  /// its peak footprint when the trace records one.
  WorkloadPreset workload = WorkloadPreset::kSynthetic;
  /// Trace set for WorkloadPreset::kTrace (wl::Trace::load_dir loads a
  /// directory of CSVs in deterministic filename order).
  std::vector<wl::Trace> traces;
  /// Manager configuration; install_manager=false gives the static spread
  /// baseline (no consolidation, no DVFS).
  cluster::ClusterManagerConfig manager;
  bool install_manager = true;
  /// Chaos: 0 = no faults (every historical seed reproduces byte-
  /// identically). Non-zero draws a fault schedule from
  /// fault::draw_fault_plan(chaos, chaos_seed, hosts, horizon) — a
  /// dedicated substream-derived RNG, so the scenario's own draws
  /// (workloads, fleet, traces) are untouched by any chaos_seed value.
  std::uint64_t chaos_seed = 0;
  fault::FaultConfig chaos;
  /// External command stream (ctl::parse_tasks output): non-empty installs
  /// a ctl::ControlPlane over these tasks. Strictly additive — an empty
  /// stream installs nothing and every historical scenario reproduces
  /// byte-identically.
  std::vector<ctl::Task> commands;

  [[nodiscard]] static platform::HostClass default_uniform_class() {
    platform::HostClass c;
    c.name = "host";
    c.memory_mb = 8192.0;
    return c;
  }
};

[[nodiscard]] std::unique_ptr<cluster::Cluster> build_hosting_cluster(
    const HostingClusterConfig& config);

}  // namespace pas::scenario
