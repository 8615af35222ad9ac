// perfbench: the repository benchmark. Drives the simulator's own scenario
// recipes (scenario::build_hosting_cluster / build_federation) from outside
// the library and observes them only through public seams:
//   * wall time of Cluster::run_until / Federation::run_until, stepped in
//     fixed 10 s chunks (chunking leaves every simulated output unchanged);
//   * the public counters (engine stats, manager planner time and book
//     stats, migration records, fault/control/federation tallies, trace
//     rows);
//   * in the traced run only, a forwarding wl::Workload decorator swapped
//     onto every guest before the first run_until, and a from-scratch
//     consolidation::place_ffd on a fleet snapshot after each manager tick.
//
// One process measures one workload in one mode. --trace 0 reports the
// end-to-end metrics from untraced repetitions; --trace 1 alternates
// untraced and traced repetitions and reports the per-layer metrics, with
// the spans of every traced repetition written to --out-dir. Either way the
// run checks its simulated outputs: every repetition must reproduce the
// first one's digest, the slow-stepped reference loop must reproduce a
// prefix of it, and (busy-churn) the serial engine must reproduce the
// two-executor run. The last stdout line is the JSON verdict.
//
// Usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --root=DIR --out-dir=DIR [--commit=SHA] [--source=DIGEST]

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/flags.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "consolidation/consolidation.hpp"
#include "control/control_plane.hpp"
#include "control/json.hpp"
#include "control/task.hpp"
#include "fault/fault.hpp"
#include "federation/federation.hpp"
#include "helpers.hpp"
#include "platform/host_class.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "workload/trace_replay.hpp"
#include "workload/workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using pas::common::SimTime;
using pas::common::seconds;
using Clock = std::chrono::steady_clock;
namespace pb = perfbench;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every executor), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- workloads -------------------------------------------------------------

/// Chunk length of every run_until call. Segments, dispatches, migrations
/// and energy are bit-identical at any chunking, so this only sets how
/// often the benchmark looks.
constexpr std::int64_t kChunkS = 10;
/// Repetitions a run makes at least, whatever --seconds says.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinTracedReps = 2;
/// Stand-alone set-ups timed before each repetition, besides its own.
constexpr std::size_t kSetupSamplesPerRep = 3;

struct WorkloadDef {
  std::string_view name;
  std::int64_t horizon_s;  // simulated seconds per repetition
  std::int64_t prefix_s;   // prefix the slow-stepped reference loop replays
  std::size_t threads;     // executors stepping host segments
};

// Why each workload (see README.md for the measured figures):
//   idle-fleet    — a consolidated uniform fleet where most host-segments
//                   are bulk-skipped: host stepping and the sparse host
//                   dispatch dominate, the planner is noise.
//   busy-churn    — a mixed trace-replay fleet under dense chaos and an
//                   operator stream on two executors: almost every segment
//                   is dispatched, and the mutation surface (recovery,
//                   control admission, migrations) is busy.
//   federation-k4 — the same total fleet as idle-fleet cut into four
//                   skewed shards, so the difference prices the
//                   federation's lockstep and WAN flights.
constexpr std::array<WorkloadDef, 3> kWorkloads{{
    {"idle-fleet", 600, 60, 1},
    {"busy-churn", 1200, 120, 2},
    {"federation-k4", 600, 60, 1},
}};

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// --- the traced run's workload decorator -----------------------------------

/// Set while this thread is inside a guest workload call. Read by the
/// profiling signal handler, hence volatile sig_atomic_t.
thread_local volatile std::sig_atomic_t t_in_workload = 0;
std::atomic<std::uint64_t> g_cpu_samples{0};
std::atomic<std::uint64_t> g_workload_samples{0};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

extern "C" void on_sigprof(int) {
  g_cpu_samples.fetch_add(1, std::memory_order_relaxed);
  if (t_in_workload != 0) g_workload_samples.fetch_add(1, std::memory_order_relaxed);
}

/// Samples where the process spends its CPU time while alive: ITIMER_PROF
/// raises SIGPROF on the executor that consumed each millisecond of CPU
/// time, and the handler counts whether that executor was inside a guest
/// workload. Timing every workload call instead costs more than the calls
/// (well over 10^8 of them on busy-churn, each a few nanoseconds).
class CpuSampler {
 public:
  CpuSampler() {
    struct sigaction sa {};
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
      throw std::runtime_error("sigaction(SIGPROF) failed");
    arm(kPeriodUs);
  }
  ~CpuSampler() { arm(0); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  struct Reading {
    std::uint64_t samples = 0;
    std::uint64_t workload = 0;
  };
  [[nodiscard]] static Reading read() {
    return {g_cpu_samples.load(std::memory_order_relaxed),
            g_workload_samples.load(std::memory_order_relaxed)};
  }

 private:
  static constexpr long kPeriodUs = 1000;
  static void arm(long us) {
    itimerval it{};
    it.it_interval.tv_usec = us;
    it.it_value.tv_usec = us;
    if (setitimer(ITIMER_PROF, &it, nullptr) != 0 && us != 0)
      throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
};

/// Calls into one guest's workload. Cache-line sized so executors stepping
/// neighbouring guests do not share a line.
struct alignas(64) ProbeCell {
  std::uint64_t calls = 0;
};

/// Forwards every call to the wrapped guest workload, counts it in the
/// guest's ProbeCell and flags the executor as inside a workload for the
/// CpuSampler. A guest's workload is touched by one executor at a time (it
/// lives on one host; hosts meet only at segment barriers), so each cell
/// has one writer and is read after run_until returns. The cell outlives
/// the decorator, which the cluster destroys when the guest is lost.
class TimedWorkload final : public pas::wl::Workload {
 public:
  explicit TimedWorkload(ProbeCell& cell) : cell_(cell) {}
  void wrap(std::unique_ptr<pas::wl::Workload> inner) { inner_ = std::move(inner); }

  void advance_to(SimTime now) override {
    const Probe p(cell_);
    inner_->advance_to(now);
  }
  [[nodiscard]] bool runnable() const override {
    const Probe p(cell_);
    return inner_->runnable();
  }
  pas::common::Work consume(SimTime now, pas::common::Work budget) override {
    const Probe p(cell_);
    return inner_->consume(now, budget);
  }
  [[nodiscard]] bool finished() const override {
    const Probe p(cell_);
    return inner_->finished();
  }
  [[nodiscard]] SimTime next_transition_time(SimTime now) override {
    const Probe p(cell_);
    return inner_->next_transition_time(now);
  }

 private:
  class Probe {
   public:
    explicit Probe(ProbeCell& cell) {
      ++cell.calls;
      t_in_workload = 1;
    }
    ~Probe() { t_in_workload = 0; }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
  };

  ProbeCell& cell_;
  std::unique_ptr<pas::wl::Workload> inner_;
};

// --- one built simulation --------------------------------------------------

struct Sim {
  // Declared first so the cells outlive the workloads that write them.
  std::vector<ProbeCell> probes;                      // traced run only, one per guest
  std::unique_ptr<pas::cluster::Cluster> cluster;     // bare-cluster workloads
  std::unique_ptr<pas::fed::Federation> federation;  // federation-k4
  std::vector<pas::cluster::Cluster*> shards;        // the cluster, or every shard

  void run_until(SimTime t) {
    if (federation)
      federation->run_until(t);
    else
      cluster->run_until(t);
  }

  /// Wraps every guest's workload in a TimedWorkload. Before the first
  /// run_until only.
  void install_probes() {
    std::size_t guests = 0;
    for (const pas::cluster::Cluster* c : shards) guests += c->vm_count();
    probes.resize(guests);  // never resized again: decorators hold references
    std::size_t i = 0;
    for (pas::cluster::Cluster* c : shards) {
      for (pas::cluster::GlobalVmId vm = 0; vm < c->vm_count(); ++vm) {
        auto probe = std::make_unique<TimedWorkload>(probes[i++]);
        TimedWorkload* raw = probe.get();
        raw->wrap(c->host(c->residence(vm)).swap_workload(c->home_slot(vm), std::move(probe)));
      }
    }
  }

  [[nodiscard]] std::uint64_t probe_calls() const {
    std::uint64_t n = 0;
    for (const ProbeCell& p : probes) n += p.calls;
    return n;
  }
  [[nodiscard]] std::uint64_t manager_ticks() const {
    std::uint64_t n = 0;
    for (const pas::cluster::Cluster* c : shards)
      if (c->manager() != nullptr) n += c->manager()->ticks();
    return n;
  }
  [[nodiscard]] std::uint64_t planner_ns() const {
    std::uint64_t n = 0;
    for (const pas::cluster::Cluster* c : shards)
      if (c->manager() != nullptr) n += c->manager()->planner_ns();
    return n;
  }
};

/// Builds workload `w` from `seed`: every input the simulator receives —
/// scenario seeds, the trace-to-VM assignment, the chaos seed and the
/// operator stream — is derived here, inside the timed set-up.
Sim build(const WorkloadDef& w, std::uint64_t seed, const std::string& root, bool fast_path,
          std::size_t threads) {
  using pas::scenario::HostingClusterConfig;
  Sim sim;
  const SimTime horizon = seconds(w.horizon_s);
  if (w.name == "federation-k4") {
    pas::scenario::FederationScenarioConfig f;
    f.base.hosts = 250;
    f.base.vms = 2500;
    f.base.horizon = horizon;
    f.base.seed = seed;
    f.base.fast_path = fast_path;
    f.base.threads = threads;
    f.shards = 4;
    // The default planner (120 s, 2 moves a tick) crosses a link about 8
    // times in 600 s, which prices nothing; this crosses about 270.
    f.federation.planner.period = seconds(20);
    f.federation.planner.max_cross_shard_per_tick = 16;
    sim.federation = pas::scenario::build_federation(f);
    for (pas::fed::ShardId s = 0; s < sim.federation->shard_count(); ++s)
      sim.shards.push_back(&sim.federation->shard(s));
    return sim;
  }

  HostingClusterConfig c;
  c.horizon = horizon;
  c.seed = seed;
  c.fast_path = fast_path;
  c.threads = threads;
  if (w.name == "idle-fleet") {
    c.hosts = 1000;
    c.vms = 10000;
  } else {
    c.hosts = 300;
    c.vms = 900;
    // The catalog's round-robin mix: a fixed fleet, so the seed moves the
    // tenants, chaos and operators but not what the hosts are.
    c.host_classes = pas::platform::mixed_fleet_classes(c.hosts, 0);
    // The trace-to-VM assignment is drawn from fleet_seed.
    c.fleet_seed = pas::common::substream(seed, "perfbench-traces").next_u64() | 1;
    c.workload = pas::scenario::WorkloadPreset::kTrace;
    c.traces = pas::wl::Trace::load_dir(root + "/examples/traces");
    c.manager.period = seconds(30);
    c.chaos_seed = pas::common::substream(seed, "perfbench-chaos").next_u64() | 1;
    c.chaos.max_crashes = 20;
    c.chaos.max_migration_aborts = 20;
    c.chaos.max_link_degrades = 4;
    c.chaos.max_brownouts = 4;
    c.commands = pas::ctl::parse_tasks(
        pb::generate_commands(seed, c.hosts, c.vms, horizon, 80), "busy-churn commands",
        pas::ctl::FleetDims{c.hosts, c.vms});
  }
  sim.cluster = pas::scenario::build_hosting_cluster(c);
  sim.shards.push_back(sim.cluster.get());
  return sim;
}

// --- observation -----------------------------------------------------------

/// What a repetition produced, at one instant: a digest of every simulated
/// statistic a user reads — per-host idle time, power state and trace rows;
/// per-VM state, residence, delivered work, downtime and SLA time;
/// migration and recovery records; control result log and fault tallies;
/// cross-shard records — and the per-host energy, kept apart because the
/// slow-stepped reference integrates it in a different order and agrees
/// only to 1e-9 relative (the tolerance the repository's differential
/// suites use). Engine-internal counters (segments, bulk skips) are not
/// model outputs and stay out.
struct State {
  std::string digest;
  std::vector<double> energy_j;

  /// Byte-identical, energy included: the same engine run twice.
  [[nodiscard]] bool same(const State& o) const {
    return digest == o.digest && energy_digest() == o.energy_digest();
  }
  /// The reference-engine contract: identical digest, energy within 1e-9.
  [[nodiscard]] bool matches_reference(const State& ref) const {
    if (digest != ref.digest || energy_j.size() != ref.energy_j.size()) return false;
    for (std::size_t h = 0; h < energy_j.size(); ++h)
      if (std::abs(energy_j[h] - ref.energy_j[h]) > 1e-9 * (std::abs(ref.energy_j[h]) + 1.0))
        return false;
    return true;
  }
  [[nodiscard]] std::string energy_digest() const {
    pb::Digest d;
    for (const double e : energy_j) d.add(e);
    return d.hex();
  }
};

State capture(const Sim& sim) {
  State s;
  pb::Digest d;
  for (pas::cluster::Cluster* c : sim.shards) {
    d.add(c->now());
    for (pas::cluster::HostId h = 0; h < c->host_count(); ++h) {
      s.energy_j.push_back(c->host_energy_joules(h));
      d.add(c->host(h).idle_time());
      d.add(static_cast<std::uint64_t>(c->powered_on(h)) * 2 + c->crashed(h));
      for (const auto& row : c->host(h).trace().samples()) {
        d.add(row.t);
        d.add(row.freq_mhz);
        d.add(row.global_load_pct);
        d.add(row.absolute_load_pct);
        for (const auto* col : {&row.vm_global_pct, &row.vm_absolute_pct, &row.vm_credit_pct,
                                &row.vm_saturated})
          for (const double v : *col) d.add(v);
      }
    }
    for (pas::cluster::GlobalVmId vm = 0; vm < c->vm_count(); ++vm) {
      const pas::cluster::ClusterVmStats st = c->vm_stats(vm);
      d.add(static_cast<std::uint64_t>(c->vm_state(vm)));
      d.add(static_cast<std::uint64_t>(c->residence(vm)));
      d.add(st.total_busy);
      d.add(st.total_work.mfus());
      d.add(st.downtime);
      d.add(static_cast<std::uint64_t>(st.migrations));
      d.add(c->sla().violation_time(vm));
      d.add(c->sla().observed_time(vm));
    }
    for (const pas::cluster::MigrationRecord& r : c->migrations()) {
      d.add(static_cast<std::uint64_t>(r.vm) << 32 | r.from);
      d.add(static_cast<std::uint64_t>(r.to) << 8 | static_cast<std::uint64_t>(r.outcome));
      d.add(r.start);
      d.add(r.stop);
      d.add(r.end);
      d.add(static_cast<std::uint64_t>(r.rounds));
      d.add(r.transferred_mb);
      d.add(r.downtime);
    }
    for (const pas::cluster::VmRecovery& r : c->recoveries()) {
      d.add(static_cast<std::uint64_t>(r.vm));
      d.add(r.crashed_at);
      d.add(r.restarted_at);
    }
    if (const pas::fault::FaultInjector* f = c->faults()) {
      d.add(static_cast<std::uint64_t>(f->crashes_fired()));
      d.add(static_cast<std::uint64_t>(f->aborts_fired()));
      d.add(static_cast<std::uint64_t>(f->link_degrades_fired()));
    }
    if (const pas::ctl::ControlPlane* ctl = c->control()) d.add(ctl->result_log());
  }
  if (sim.federation) {
    for (const pas::fed::FedMigrationRecord& r : sim.federation->cross_shard_records()) {
      d.add(static_cast<std::uint64_t>(r.vm) << 32 | r.from_shard << 16 | r.to_shard);
      d.add(static_cast<std::uint64_t>(r.to_host));
      d.add(r.record.start);
      d.add(r.record.end);
      d.add(r.record.downtime);
      d.add(static_cast<std::uint64_t>(r.record.outcome));
    }
  }
  s.digest = d.hex();
  return s;
}

/// The deterministic end-to-end outcomes.
struct Outcome {
  double fleet_mean_w = 0.0;
  double sla_violation_pct = 0.0;
  double vms_kept_pct = 0.0;
};

Outcome outcome(const Sim& sim) {
  Outcome o;
  pb::SlaTotals sla;
  std::size_t lost = 0;
  for (const pas::cluster::Cluster* c : sim.shards) {
    o.fleet_mean_w += c->average_watts();
    sla.add(c->sla(), c->vm_count());
    lost += c->lost_vm_count();
  }
  // A cross-shard VM is registered in both shards; the federation counts it
  // once.
  const std::size_t vms = sim.federation ? sim.federation->vm_count() : sim.cluster->vm_count();
  o.sla_violation_pct = sla.violation_pct();
  o.vms_kept_pct = 100.0 * static_cast<double>(vms - lost) / static_cast<double>(vms);
  return o;
}

using Values = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every per-layer metric readable from the program's public counters, as
/// of now. Timing metrics are added by the traced repetition.
Values observe(Sim& sim) {
  Values n;
  std::vector<pas::cluster::VmRecovery> recoveries;
  for (pas::cluster::Cluster* c : sim.shards) {
    const pas::cluster::EngineStats& es = c->engine_stats();
    n["cluster.segments"] += static_cast<double>(es.segments);
    n["cluster.dispatches"] += static_cast<double>(es.dispatches);
    n["cluster.bulk_skips"] += static_cast<double>(es.bulk_skips);
    recoveries.insert(recoveries.end(), c->recoveries().begin(), c->recoveries().end());
    if (const pas::cluster::ClusterManager* m = c->manager()) {
      n["cluster.restarts_issued"] += static_cast<double>(m->restarts_issued());
      n["cluster.restarts_abandoned"] += static_cast<double>(m->restarts_abandoned());
      n["consolidation.planning_ticks"] += static_cast<double>(m->planning_ticks());
      n["consolidation.plans_skipped"] += static_cast<double>(m->plans_skipped());
      const auto& bs = m->book_stats();
      n["consolidation.cached_plans"] += static_cast<double>(bs.cached_plans);
      n["consolidation.delta_plans"] += static_cast<double>(bs.delta_plans);
      n["consolidation.full_rebuilds"] += static_cast<double>(bs.full_rebuilds);
      n["consolidation.vms_scanned"] += static_cast<double>(bs.vms_scanned);
    }
    n["migration.started"] += static_cast<double>(c->migrations().size() +
                                                  c->engine().active_count());
    for (const pas::cluster::MigrationRecord& r : c->migrations()) {
      if (!r.aborted()) n["migration.completed"] += 1.0;
      n["migration.rounds"] += static_cast<double>(r.rounds);
      n["migration.transferred_gb"] += r.transferred_mb / 1024.0;
      n["migration.downtime_s"] += r.downtime.sec();
    }
    if (const pas::fault::FaultInjector* f = c->faults()) {
      n["fault.crashes_fired"] += static_cast<double>(f->crashes_fired());
      n["fault.aborts_fired"] += static_cast<double>(f->aborts_fired());
      n["fault.link_degrades_fired"] += static_cast<double>(f->link_degrades_fired());
    }
    if (const pas::ctl::ControlPlane* ctl = c->control()) {
      n["control.tasks_fired"] += static_cast<double>(ctl->results().size());
      n["control.accepted"] += static_cast<double>(ctl->accepted());
      n["control.rejected"] += static_cast<double>(ctl->rejected());
      n["control.superseded"] += static_cast<double>(ctl->superseded());
    }
    for (pas::cluster::HostId h = 0; h < c->host_count(); ++h)
      n["metrics.trace_rows"] += static_cast<double>(c->host(h).trace().size());
  }
  n["cluster.active_fraction"] =
      ratio(n["cluster.dispatches"], n["cluster.dispatches"] + n["cluster.bulk_skips"]);
  n["cluster.recovery_p50_s"] = pas::cluster::summarize_recoveries(recoveries).p50.sec();
  n["migration.useful_ratio"] = ratio(n["migration.completed"], n["migration.started"]);
  n["control.accept_ratio"] = ratio(n["control.accepted"], n["control.tasks_fired"]);
  if (sim.federation) {
    n["federation.planner_ticks"] = static_cast<double>(sim.federation->planner_ticks());
    n["federation.moves_issued"] = static_cast<double>(sim.federation->moves_issued());
    double done = 0.0;
    for (const pas::fed::FedMigrationRecord& r : sim.federation->cross_shard_records())
      if (!r.record.aborted()) done += 1.0;
    n["federation.cross_shard_done"] = done;
    n["federation.useful_ratio"] = ratio(done, n["federation.moves_issued"]);
  }
  n["workload.calls"] = static_cast<double>(sim.probe_calls());
  // Every per-layer name is present, zero where the layer is idle.
  for (const pb::MetricDef& m : pb::per_layer_metrics()) n.try_emplace(std::string(m.name), 0.0);
  return n;
}

/// Times a from-scratch consolidation::place_ffd over the manager's planning
/// inputs as of now: running VMs by purchased credit and memory, live hosts
/// by class with the hypervisor agent's credit reserved — the same
/// snapshot the manager's planner packs. Returns seconds.
double time_ffd(const pas::cluster::Cluster& c) {
  std::vector<pas::consolidation::VmSpec> vms;
  for (pas::cluster::GlobalVmId vm = 0; vm < c.vm_count(); ++vm) {
    if (c.vm_state(vm) != pas::cluster::VmState::kRunning) continue;
    const pas::cluster::ClusterVmConfig& vc = c.vm_config(vm);
    vms.push_back({vc.vm.name, vc.vm.credit, vc.memory_mb, 0.0});
  }
  std::vector<pas::consolidation::HostSpec> hosts;
  for (pas::cluster::HostId h = 0; h < c.host_count(); ++h) {
    if (c.crashed(h)) continue;
    const pas::platform::HostClass& cls = c.host_class(h);
    pas::consolidation::HostSpec spec = pas::platform::to_host_spec(cls);
    spec.name.append("-").append(std::to_string(h));
    spec.cpu_capacity_pct = cls.cpu_capacity_pct - c.config().agent_credit;
    hosts.push_back(std::move(spec));
  }
  pas::consolidation::FfdOptions opt;
  opt.efficient_first = c.manager()->config().efficient_first;
  const auto t0 = Clock::now();
  const pas::consolidation::Placement p = pas::consolidation::place_ffd(vms, hosts, opt);
  const double s = since(t0);
  if (p.assignment.size() != vms.size())
    throw std::logic_error("place_ffd returned a short assignment");
  return s;
}

// --- spans -----------------------------------------------------------------

/// A double with every significant digit, as JSON.
std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// In-memory span log of the traced repetitions, written out at exit. One
/// "run" span per repetition, one "chunk" span per run_until, and per chunk
/// the "planner" and "workload" children (aggregates: their duration is
/// the counter delta, placed at the chunk start) and "hypervisor" (the
/// chunk's remaining self time). "ffd" spans hang off the run. All spans
/// of one repetition share its trace id; counters are deltas over the span.
struct Span {
  std::size_t id = 0;
  std::size_t parent = 0;  // 0 = root
  std::size_t trace = 0;
  std::string name;
  double start_s = 0.0;  // since the process epoch
  double dur_s = 0.0;
  Values counters;
};

class SpanLog {
 public:
  std::size_t open(std::size_t parent, std::size_t trace, std::string name, double start_s) {
    spans_.push_back({spans_.size() + 1, parent, trace, std::move(name), start_s, 0.0, {}});
    return spans_.size();
  }
  Span& at(std::size_t id) { return spans_.at(id - 1); }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
      out << R"({"id": )" << s.id << R"(, "parent": )" << s.parent << R"(, "trace": )" << s.trace
          << R"(, "name": ")" << s.name << R"(", "start_s": )" << json_num(s.start_s)
          << R"(, "dur_s": )" << json_num(s.dur_s) << R"(, "counters": {)";
      bool first = true;
      for (const auto& [k, v] : s.counters) {
        out << (first ? "" : ", ") << '"' << k << "\": " << json_num(v);
        first = false;
      }
      out << "}}\n";
    }
    if (!out) throw std::runtime_error("short write to " + path);
  }

 private:
  std::vector<Span> spans_;
};

// --- repetitions -----------------------------------------------------------

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;  // sum of chunk walls
  double cpu_s = 0.0;   // process CPU time over the chunks
  std::vector<double> chunk_s;
  State prefix;  // at the workload's oracle prefix
  State final;
  Outcome outcome;
  Values layers;  // public counters at the end
  // Traced repetitions only: self-time split of the chunk walls.
  double planner_s = 0.0;
  double workload_s = 0.0;
  double hypervisor_s = 0.0;
  double ffd_s = 0.0;
};

/// The run's best-case wall time: for every chunk, the least wall time any
/// repetition took for it, summed over the chunks. Neighbours on a shared
/// machine only ever slow a slice of the run down, so the per-chunk minimum
/// estimates each slice's uncontended cost; across runs it spreads far less
/// than the median repetition does (README.md, "Noise").
double best_composed_wall(const std::vector<Rep>& reps) {
  double wall = 0.0;
  for (std::size_t i = 0; i < reps.front().chunk_s.size(); ++i) {
    double best = reps.front().chunk_s[i];
    for (const Rep& r : reps) best = std::min(best, r.chunk_s[i]);
    wall += best;
  }
  return wall;
}

struct Context {
  const WorkloadDef* w = nullptr;
  std::uint64_t seed = 0;
  std::string root;
  Clock::time_point epoch = Clock::now();
  SpanLog spans;
};

/// Counter deltas carried on chunk spans: the count-valued per-layer
/// metrics.
Values count_deltas(const Values& before, const Values& after) {
  Values d;
  for (const pb::MetricDef& m : pb::per_layer_metrics()) {
    if (m.unit != "count") continue;
    const std::string k(m.name);
    const double delta = after.at(k) - before.at(k);
    if (delta != 0.0) d[k] = delta;
  }
  return d;
}

Rep run_rep(Context& ctx, bool traced, std::size_t trace_id) {
  const WorkloadDef& w = *ctx.w;
  Rep rep;
  const auto t_setup = Clock::now();
  Sim sim = build(w, ctx.seed, ctx.root, /*fast_path=*/true, w.threads);
  rep.setup_s = since(t_setup);

  std::size_t run_span = 0;
  Values zero;
  Values before;
  std::optional<CpuSampler> sampler;
  if (traced) {
    sim.install_probes();
    sampler.emplace();
    run_span = ctx.spans.open(0, trace_id, "run", since(ctx.epoch));
    // Every counter starts at zero (and trace recorders exist only once
    // the run has started).
    for (const pb::MetricDef& m : pb::per_layer_metrics()) zero[std::string(m.name)] = 0.0;
    before = zero;
  }
  for (std::int64_t t = kChunkS; t <= w.horizon_s; t += kChunkS) {
    const std::uint64_t ticks0 = traced ? sim.manager_ticks() : 0;
    const std::uint64_t planner0 = traced ? sim.planner_ns() : 0;
    const CpuSampler::Reading samples0 = CpuSampler::read();
    const double cpu0 = process_cpu_s();
    const auto c0 = Clock::now();
    sim.run_until(seconds(t));
    const double chunk = since(c0);
    rep.cpu_s += process_cpu_s() - cpu0;
    rep.chunk_s.push_back(chunk);
    rep.wall_s += chunk;

    if (traced) {
      // Planner time is the manager's own wall clock on the coordinating
      // thread. The rest of the chunk splits between the workload and the
      // hypervisor in proportion to where the CPU samples taken during the
      // chunk landed, so the three self times add up to the chunk.
      const double planner = static_cast<double>(sim.planner_ns() - planner0) * 1e-9;
      const CpuSampler::Reading samples1 = CpuSampler::read();
      const auto cpu_samples = static_cast<double>(samples1.samples - samples0.samples);
      const double share =
          cpu_samples > 0.0
              ? static_cast<double>(samples1.workload - samples0.workload) / cpu_samples
              : 0.0;
      const double rest = std::max(0.0, chunk - planner);
      const double workload = rest * share;
      const double hypervisor = rest - workload;
      rep.planner_s += planner;
      rep.workload_s += workload;
      rep.hypervisor_s += hypervisor;

      const double start = std::chrono::duration<double>(c0 - ctx.epoch).count();
      const std::size_t chunk_span = ctx.spans.open(run_span, trace_id, "chunk", start);
      const Values after = observe(sim);
      ctx.spans.at(chunk_span).dur_s = chunk;
      ctx.spans.at(chunk_span).counters = count_deltas(before, after);
      ctx.spans.at(chunk_span).counters["sim_until_s"] = static_cast<double>(t);
      ctx.spans.at(ctx.spans.open(chunk_span, trace_id, "planner", start)).dur_s = planner;
      ctx.spans.at(ctx.spans.open(chunk_span, trace_id, "workload", start)).dur_s = workload;
      ctx.spans.at(ctx.spans.open(chunk_span, trace_id, "hypervisor", start)).dur_s = hypervisor;
      before = after;

      if (sim.manager_ticks() != ticks0) {
        const std::size_t ffd_span =
            ctx.spans.open(run_span, trace_id, "ffd", since(ctx.epoch));
        double ffd = 0.0;
        for (const pas::cluster::Cluster* c : sim.shards) ffd += time_ffd(*c);
        ctx.spans.at(ffd_span).dur_s = ffd;
        rep.ffd_s += ffd;
      }
    }
    if (t == w.prefix_s) rep.prefix = capture(sim);
  }
  rep.final = capture(sim);
  rep.outcome = outcome(sim);
  rep.layers = observe(sim);
  if (traced) {
    Span& run = ctx.spans.at(run_span);
    run.dur_s = since(ctx.epoch) - run.start_s;
    run.counters = count_deltas(zero, rep.layers);
  }
  return rep;
}

/// The reference engine's state: the slow-stepped loop (fast_path off) on
/// the serial engine, over the workload's oracle prefix.
State reference_prefix(const Context& ctx) {
  Sim sim = build(*ctx.w, ctx.seed, ctx.root, /*fast_path=*/false, 1);
  for (std::int64_t t = kChunkS; t <= ctx.w->prefix_s; t += kChunkS) sim.run_until(seconds(t));
  return capture(sim);
}

/// Final state of the fast path on the serial engine (busy-churn's
/// two-executor oracle).
State serial_final(const Context& ctx) {
  Sim sim = build(*ctx.w, ctx.seed, ctx.root, /*fast_path=*/true, 1);
  for (std::int64_t t = kChunkS; t <= ctx.w->horizon_s; t += kChunkS) sim.run_until(seconds(t));
  return capture(sim);
}

// --- checks and reporting --------------------------------------------------

struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    std::printf("check %-46s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_str(std::string_view s) {
  return "\"" + pas::ctl::json::escape(std::string(s)) + "\"";
}

/// Prints the sample line of one timing: median, quartiles, count and the
/// highest percentile with ten samples beyond it.
void print_samples(const char* what, const std::vector<double>& xs, double scale,
                   const char* unit) {
  const pb::Quartiles q = pb::quartiles(xs);
  std::printf("%-22s median %.6g %s  q1 %.6g  q3 %.6g  n=%zu", what, q.q2 * scale, unit,
              q.q1 * scale, q.q3 * scale, xs.size());
  if (const auto p = pb::tail_percentile(xs.size())) {
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    std::printf("  p%g %.6g", *p * 100.0, pas::common::percentile_sorted(sorted, *p) * scale);
  }
  std::printf("\n");
}

int run(const pas::common::Flags& flags) {
  Context ctx;
  const std::string name = flags.get_or("workload", "");
  ctx.w = find_workload(name);
  if (ctx.w == nullptr) throw std::invalid_argument("unknown --workload '" + name + "'");
  if (!flags.has("seed")) throw std::invalid_argument("--seed is required");
  ctx.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  const double budget_s = flags.get_double("seconds", 10.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  ctx.root = flags.get_or("root", ".");
  const std::string out_dir = flags.get_or("out-dir", "");
  if (out_dir.empty()) throw std::invalid_argument("--out-dir is required");
  std::filesystem::create_directories(out_dir);
  const WorkloadDef& w = *ctx.w;

  const std::string fingerprint =
      std::string("{\"nproc\": ") + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + json_str(compiler()) +
      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + json_str(flags.get_or("commit", "unknown")) +
      ", \"source_digest\": " + json_str(flags.get_or("source", "unknown")) + "}";
  std::printf("perfbench %s seed=%llu trace=%d seconds=%g\n", std::string(w.name).c_str(),
              static_cast<unsigned long long>(ctx.seed), traced ? 1 : 0, budget_s);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  Verdict verdict;
  std::vector<Rep> plain;
  std::vector<Rep> probed;
  std::vector<double> setups;
  const auto t_measure = Clock::now();
  // Closed loop: the next repetition starts when the previous one ends,
  // until the budget is spent. The traced mode alternates plain and traced
  // repetitions so both see the same machine state.
  while (true) {
    const bool enough_plain = plain.size() >= (traced ? kMinTracedReps : kMinReps);
    const bool enough_probed = !traced || probed.size() >= kMinTracedReps;
    if (enough_plain && enough_probed && since(t_measure) >= budget_s) break;
    const bool next_traced = traced && probed.size() < plain.size();
    try {
      // Set-up takes a few milliseconds and drifts with the machine, so it
      // is sampled a few times before every repetition: the median then
      // rests on samples spread over the whole run.
      for (std::size_t i = 0; i < kSetupSamplesPerRep; ++i) {
        const auto t0 = Clock::now();
        const Sim sim = build(w, ctx.seed, ctx.root, /*fast_path=*/true, w.threads);
        setups.push_back(since(t0));
      }
      Rep rep = run_rep(ctx, next_traced, probed.size() + 1);
      std::printf("rep %zu%s: setup %.4f s, %lld sim-s in %.4f s wall, %.4f s cpu "
                  "(%.2f sim-s/wall-s)\n",
                  plain.size() + probed.size() + 1, next_traced ? " traced" : "", rep.setup_s,
                  static_cast<long long>(w.horizon_s), rep.wall_s, rep.cpu_s,
                  static_cast<double>(w.horizon_s) / rep.wall_s);
      (next_traced ? probed : plain).push_back(std::move(rep));
      verdict.attempted += w.horizon_s / kChunkS;  // one run_until per chunk
    } catch (const std::exception& e) {
      verdict.attempted += 1;
      verdict.failed += 1;
      std::printf("rep failed: %s\n", e.what());
      break;
    }
  }
  const double rss_mb = peak_rss_mb();

  const bool have_rep = !plain.empty() && (!traced || !probed.empty());
  if (have_rep) {
    const Rep& first = plain.front();
    for (std::size_t i = 1; i < plain.size(); ++i)
      verdict.check(plain[i].final.same(first.final),
                    "repetition " + std::to_string(i + 1) + " reproduces repetition 1");
    for (std::size_t i = 0; i < probed.size(); ++i) {
      verdict.check(probed[i].final.same(first.final),
                    "traced repetition " + std::to_string(i + 1) + " reproduces untraced");
      Values a = probed[i].layers;
      Values b = first.layers;
      a.erase("workload.calls");
      b.erase("workload.calls");
      verdict.check(a == b, "traced repetition " + std::to_string(i + 1) + " counters equal");
    }
    const auto t_oracle = Clock::now();
    try {
      verdict.check(first.prefix.matches_reference(reference_prefix(ctx)),
                    "slow-stepped reference, first " + std::to_string(w.prefix_s) + " s");
      if (w.threads > 1)
        verdict.check(serial_final(ctx).same(first.final),
                      "serial engine vs " + std::to_string(w.threads) + " executors");
    } catch (const std::exception& e) {
      verdict.check(false, std::string("oracle run threw: ") + e.what());
    }
    std::printf("oracle runs took %.2f s\n", since(t_oracle));
  }

  // --- metrics ---
  std::vector<std::pair<pb::MetricDef, double>> metrics;
  if (have_rep) {
    const Rep& first = plain.front();
    std::printf("digest prefix@%llds %s final %s\n", static_cast<long long>(w.prefix_s),
                first.prefix.digest.c_str(), first.final.digest.c_str());
    std::vector<double> rates, chunks;
    for (const Rep& r : plain) {
      rates.push_back(static_cast<double>(w.horizon_s) / r.wall_s);
      setups.push_back(r.setup_s);
      chunks.insert(chunks.end(), r.chunk_s.begin(), r.chunk_s.end());
    }
    const double horizon = static_cast<double>(w.horizon_s);
    const double best_rate = horizon / best_composed_wall(plain);
    print_samples("sim_rate per rep", rates, 1.0, "sim-s/wall-s");
    std::printf("%-22s %.6g sim-s/wall-s from per-chunk minima over %zu reps\n", "sim_rate",
                best_rate, plain.size());
    print_samples("setup", setups, 1.0, "s");
    print_samples("chunk wall (10 sim-s)", chunks, 1e3, "ms");
    if (!traced) {
      const Values e2e{{"sim_rate", best_rate},
                       {"setup_s", pb::median(setups)},
                       {"peak_rss_mb", rss_mb},
                       {"fleet_mean_w", first.outcome.fleet_mean_w},
                       {"sla_violation_pct", first.outcome.sla_violation_pct},
                       {"vms_kept_pct", first.outcome.vms_kept_pct}};
      for (const pb::MetricDef& m : pb::end_to_end_metrics())
        metrics.emplace_back(m, e2e.at(std::string(m.name)));
    } else {
      std::vector<double> traced_rates, planner, wl, hv, ffd;
      for (const Rep& r : probed) {
        traced_rates.push_back(static_cast<double>(w.horizon_s) / r.wall_s);
        planner.push_back(r.planner_s);
        wl.push_back(r.workload_s);
        hv.push_back(r.hypervisor_s);
        ffd.push_back(r.ffd_s);
      }
      const double traced_best = horizon / best_composed_wall(probed);
      print_samples("traced sim_rate per rep", traced_rates, 1.0, "sim-s/wall-s");
      std::printf("%-22s %.6g sim-s/wall-s from per-chunk minima over %zu reps\n",
                  "traced sim_rate", traced_best, probed.size());
      Values layers = probed.front().layers;
      const double host_segments = layers["cluster.dispatches"] + layers["cluster.bulk_skips"];
      layers["hypervisor.step_ms"] = pb::median(hv) * 1e3;
      layers["hypervisor.us_per_host_segment"] = ratio(pb::median(hv) * 1e6, host_segments);
      layers["workload.self_ms"] = pb::median(wl) * 1e3;
      layers["consolidation.planner_ms"] = pb::median(planner) * 1e3;
      layers["consolidation.ffd_ms"] = pb::median(ffd) * 1e3;
      layers["bench.trace_overhead_pct"] = (best_rate / traced_best - 1.0) * 100.0;
      for (const pb::MetricDef& m : pb::per_layer_metrics())
        metrics.emplace_back(m, layers.at(std::string(m.name)));
    }
  }

  const std::string stem = out_dir + "/" + std::string(w.name) + "-seed" +
                           std::to_string(ctx.seed) + "-trace" + (traced ? "1" : "0");
  if (traced) ctx.spans.write(stem + ".spans.jsonl");

  std::string metrics_json;
  for (const auto& [m, v] : metrics) {
    std::printf("metric %-34s %.17g %s\n", std::string(m.name).c_str(), v,
                std::string(m.unit).c_str());
    metrics_json += (metrics_json.empty() ? "" : ", ") + json_str(m.name) +
                    ": {\"value\": " + json_num(v) + ", \"unit\": " + json_str(m.unit) + "}";
  }
  const bool correct = have_rep && verdict.failed == 0;
  const std::size_t attempted = std::max<std::size_t>(1, verdict.attempted);
  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(verdict.failed) +
                             ", \"metrics\": {" + metrics_json + "}}";
  {
    std::ofstream rec(stem + ".json");
    rec << "{\"workload\": " << json_str(w.name) << ", \"seed\": " << ctx.seed
        << ", \"trace\": " << (traced ? 1 : 0) << ", \"fingerprint\": " << fingerprint
        << ", \"digest\": {\"prefix_s\": " << w.prefix_s << ", \"prefix\": "
        << json_str(have_rep ? plain.front().prefix.digest : "") << ", \"final\": "
        << json_str(have_rep ? plain.front().final.digest : "") << ", \"final_energy\": "
        << json_str(have_rep ? plain.front().final.energy_digest() : "")
        << "}, \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pas::common::Flags flags(argc, argv);
    return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
