// Shared machinery for the cluster differential tests: seeded random
// scenario generation (draw_scenario), cluster construction from a spec
// (build_cluster — fast path and executor-thread count are the knobs the
// tests sweep), scripted execution (run_spec), the byte-for-byte
// observable comparison (expect_identical, over check::first_divergence)
// and the one helper that runs a spec across engines and compares
// (expect_engines_identical).
//
// Used by cluster_fuzz_test.cpp (fast path vs reference loop),
// cluster_parallel_test.cpp (parallel engine vs serial engine, threads in
// {1, 2, 4, hardware}), cluster_hetero_test.cpp (both sweeps over
// mixed-class fleets, draw_scenario(seed, /*hetero=*/true)) and
// cluster_trace_test.cpp (both sweeps with a trace-replay VM mix,
// draw_scenario(seed, hetero, /*trace_mix=*/true)) so the suites pin
// their guarantee over the SAME scenario seeds.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/divergence.hpp"
#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "platform/host_class.hpp"
#include "sched/credit2_scheduler.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_replay.hpp"
#include "workload/web_app.hpp"

namespace pas::cluster::fuzz {

/// kTrace is never drawn by the shared prefix (next_below(5) spans the
/// first five) — only the trace_mix re-roll assigns it.
enum class WlKind { kWeb, kHog, kBatch, kIdle, kBusy, kTrace };

struct VmSpecF {
  WlKind kind = WlKind::kIdle;
  double credit = 5.0;
  double memory_mb = 256.0;
  double dirty_mb_per_s = 30.0;
  HostId home = 0;
  // web
  std::uint64_t seed = 1;
  double rate = 1.0;
  bool poisson = true;
  // pulse (web/hog)
  common::SimTime from{}, until{};
  // batch
  common::Work pi_work{};
  common::SimTime pi_start{};
  // trace replay (kind == kTrace only)
  std::vector<wl::TracePoint> trace_points;
};

struct ScriptedMove {
  common::SimTime at{};
  GlobalVmId vm = 0;
  HostId to = 0;
};

struct ScenarioSpec {
  std::size_t hosts = 2;
  int sched = 0;  // 0 credit, 1 credit2, 2 sedf
  /// Migration model knobs (defaults = the production config). Never drawn
  /// by draw_scenario — historical seeds are untouched — but the chaos
  /// suite overrides the link bandwidth downward so migrations stay in
  /// flight long enough for injected faults to catch them mid-phase.
  MigrationConfig migration;
  common::SimTime horizon{};
  common::SimTime trace_stride{};
  common::SimTime monitor_window{};
  /// Per-host platform classes; empty = the uniform template fleet. Only
  /// populated by draw_scenario(seed, /*hetero=*/true).
  std::vector<platform::HostClass> classes;
  std::vector<VmSpecF> vms;
  bool use_manager = false;
  ClusterManagerConfig mgr;
  std::vector<ScriptedMove> script;
};

/// Size knob for draw_scenario: extra hosts and VMs appended on top of the
/// historical 2..4-host / 3..10-VM draw. All extension draws happen after
/// EVERY historical draw, so for any (seed, hetero, trace_mix) the sized
/// scenario extends the unsized one — same hosts prefix, same classes
/// prefix, same VMs prefix, same manager and script — a property
/// ClusterScaleTest.SizeKnobPreservesHistoricalPrefix pins.
struct ScenarioSize {
  std::size_t hosts = 0;  ///< hosts appended beyond the drawn base fleet
  std::size_t vms = 0;    ///< VMs appended, homed across the FULL fleet
};

/// `hetero` additionally draws each host's platform class from the fleet
/// catalog (ladders, power models, memory and NUMA layout all mixed). The
/// extra draws happen after the shared prefix, so hetero=false reproduces
/// the historical scenarios bit for bit. `trace_mix` re-rolls about half
/// the VMs into wl::TraceReplay over random step-function demand series;
/// those draws are appended after EVERYTHING else (including the hetero
/// block and the migration script), so the historical seeds are again
/// unchanged. `size` scales the fleet afterwards (see ScenarioSize).
inline ScenarioSpec draw_scenario(std::uint64_t seed, bool hetero = false,
                                  bool trace_mix = false,
                                  const ScenarioSize& size = {}) {
  using common::msec;
  using common::seconds;
  using common::SimTime;
  common::Rng rng{seed};
  ScenarioSpec s;
  s.hosts = 2 + rng.next_below(3);                      // 2..4
  s.sched = static_cast<int>(rng.next_below(3));
  if (hetero) {
    const std::vector<platform::HostClass> catalog = platform::fleet_catalog();
    for (std::size_t h = 0; h < s.hosts; ++h)
      s.classes.push_back(catalog[rng.next_below(catalog.size())]);
  }
  const std::int64_t horizon_s = 120 + static_cast<std::int64_t>(rng.next_below(120));
  s.horizon = seconds(horizon_s);
  s.trace_stride = std::vector<SimTime>{seconds(1), msec(1500), seconds(5)}[rng.next_below(3)];
  s.monitor_window = std::vector<SimTime>{seconds(1), msec(730), msec(500)}[rng.next_below(3)];

  // One VM draw, homed anywhere on the fleet drawn so far; the historical
  // VMs and the size extension's share it draw for draw.
  const auto draw_vm = [&] {
    VmSpecF v;
    v.kind = static_cast<WlKind>(rng.next_below(5));
    v.credit = 2.0 + 3.0 * static_cast<double>(rng.next_below(10));  // 2..29
    v.memory_mb = 128.0 * static_cast<double>(1 + rng.next_below(8));
    v.dirty_mb_per_s = 10.0 + 20.0 * static_cast<double>(rng.next_below(10));
    v.home = static_cast<HostId>(rng.next_below(s.hosts));
    v.seed = seed * 131 + s.vms.size();
    v.poisson = rng.chance(0.5);
    const auto from_s = static_cast<std::int64_t>(rng.next_below(horizon_s / 2));
    const auto len_s = 10 + static_cast<std::int64_t>(rng.next_below(horizon_s / 2));
    v.from = seconds(from_s);
    v.until = seconds(from_s + len_s);
    v.rate = wl::WebApp::rate_for_demand(std::min(v.credit, 15.0),
                                         common::mf_usec(10'000)) *
             rng.uniform(0.5, 1.5);
    v.pi_work = common::mf_seconds(rng.uniform(0.5, 4.0));
    v.pi_start = seconds(static_cast<std::int64_t>(rng.next_below(horizon_s / 2)));
    s.vms.push_back(v);
  };
  const std::size_t vm_count = 3 + rng.next_below(8);   // 3..10
  for (std::size_t i = 0; i < vm_count; ++i) draw_vm();

  s.use_manager = rng.chance(0.7);
  if (s.use_manager) {
    s.mgr.period = std::vector<SimTime>{seconds(10), msec(7300), seconds(25)}[rng.next_below(3)];
    s.mgr.max_migrations_per_tick = 1 + rng.next_below(4);
    s.mgr.dvfs = rng.chance(0.7) ? ClusterManagerConfig::Dvfs::kPas
                                 : ClusterManagerConfig::Dvfs::kPinnedMax;
    s.mgr.vovo = rng.chance(0.8);
  }
  // Scripted migrations on top (or instead) of the manager's: random VMs
  // to random hosts at random instants.
  const std::size_t moves = rng.next_below(4) + (s.use_manager ? 0 : 1);
  for (std::size_t m = 0; m < moves; ++m) {
    ScriptedMove mv;
    mv.at = seconds(5 + static_cast<std::int64_t>(rng.next_below(horizon_s - 10)));
    mv.vm = static_cast<GlobalVmId>(rng.next_below(vm_count));
    mv.to = static_cast<HostId>(rng.next_below(s.hosts));
    s.script.push_back(mv);
  }
  std::sort(s.script.begin(), s.script.end(),
            [](const ScriptedMove& a, const ScriptedMove& b) { return a.at < b.at; });

  if (trace_mix) {
    for (VmSpecF& v : s.vms) {
      if (!rng.chance(0.5)) continue;
      v.kind = WlKind::kTrace;
      // A random step series: 2..7 demand intervals with off-grid
      // timestamps (microsecond jitter — trace points owe the quantum
      // grid nothing), zero-demand gaps mixed in, closed by a final
      // demand-0 point. Some series intentionally run past the horizon.
      const std::size_t intervals = 2 + rng.next_below(6);
      std::int64_t t_us = static_cast<std::int64_t>(rng.next_below(
                              static_cast<std::uint64_t>(horizon_s / 3))) *
                              1'000'000 +
                          static_cast<std::int64_t>(rng.next_below(1'000'000));
      v.trace_points.clear();
      for (std::size_t p = 0; p < intervals; ++p) {
        const double demand = rng.chance(0.3) ? 0.0 : rng.uniform(1.0, 60.0);
        v.trace_points.push_back({common::usec(t_us), demand, 0.0});
        t_us += 1'000'000 +
                static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(horizon_s) * 1'000'000 / 4));
      }
      v.trace_points.push_back({common::usec(t_us), 0.0, 0.0});
    }
  }

  if (size.hosts > 0 || size.vms > 0) {
    // Scale extension: appended after the whole historical sequence
    // (including the trace_mix re-roll) so pinned seeds stay bit-identical
    // as a prefix of the sized scenario.
    const std::size_t first_extra = s.hosts;
    s.hosts += size.hosts;
    if (hetero) {
      const std::vector<platform::HostClass> catalog = platform::fleet_catalog();
      for (std::size_t h = first_extra; h < s.hosts; ++h)
        s.classes.push_back(catalog[rng.next_below(catalog.size())]);
    }
    for (std::size_t i = 0; i < size.vms; ++i) draw_vm();  // homed on the full fleet
  }
  return s;
}

/// `threads` feeds cluster::ExecutionPolicy: 1 = serial driver, >1 = the
/// pooled parallel driver (0 = hardware concurrency).
inline std::unique_ptr<Cluster> build_cluster(const ScenarioSpec& s, bool fast_path,
                                              std::size_t threads = 1) {
  ClusterConfig cc;
  cc.host_classes = s.classes.empty()
                        ? platform::uniform_fleet_classes(s.hosts, platform::HostClass{"host"})
                        : s.classes;
  cc.host.trace_stride = s.trace_stride;
  cc.host.monitor_window = s.monitor_window;
  cc.host.event_driven_fast_path = fast_path;
  cc.execution.threads = threads;
  cc.migration = s.migration;
  cc.make_scheduler = [kind = s.sched]() -> std::unique_ptr<hv::Scheduler> {
    switch (kind) {
      case 1: return std::make_unique<sched::Credit2Scheduler>();
      case 2: return std::make_unique<sched::SedfScheduler>();
      default: return std::make_unique<sched::CreditScheduler>();
    }
  };
  auto cluster = std::make_unique<Cluster>(std::move(cc));

  for (std::size_t i = 0; i < s.vms.size(); ++i) {
    const VmSpecF& v = s.vms[i];
    ClusterVmConfig vc;
    vc.vm.name = "vm" + std::to_string(i);
    vc.vm.credit = v.credit;
    vc.memory_mb = v.memory_mb;
    vc.dirty_mb_per_s = v.dirty_mb_per_s;
    std::unique_ptr<wl::Workload> workload;
    switch (v.kind) {
      case WlKind::kWeb: {
        wl::WebAppConfig wc;
        wc.seed = v.seed;
        wc.poisson = v.poisson;
        wc.queue_capacity = 300;
        workload = std::make_unique<wl::WebApp>(
            wl::LoadProfile::pulse(v.from, v.until, v.rate), wc);
        break;
      }
      case WlKind::kHog:
        workload = std::make_unique<wl::GatedBusyLoop>(
            wl::LoadProfile::pulse(v.from, v.until, 1.0));
        break;
      case WlKind::kBatch:
        workload = std::make_unique<wl::PiApp>(v.pi_work, v.pi_start);
        break;
      case WlKind::kBusy:
        workload = std::make_unique<wl::BusyLoop>();
        break;
      case WlKind::kIdle:
        workload = std::make_unique<wl::IdleGuest>();
        break;
      case WlKind::kTrace:
        workload = std::make_unique<wl::TraceReplay>(
            wl::Trace{v.trace_points, "fuzz" + std::to_string(i)});
        break;
    }
    cluster->add_vm(std::move(vc), std::move(workload), v.home);
  }
  if (s.use_manager)
    cluster->install_manager(std::make_unique<ClusterManager>(s.mgr));
  return cluster;
}

inline void run_spec(Cluster& cluster, const ScenarioSpec& s) {
  for (const ScriptedMove& mv : s.script) {
    cluster.run_until(mv.at);
    (void)cluster.apply(Command::migrate(mv.vm, mv.to));  // may be refused; identically so
  }
  cluster.run_until(s.horizon);
}

/// Asserts every observable of `b` matches `a` byte for byte — the
/// check::first_divergence cluster order — naming the first divergence.
/// `label` names the comparison in failure messages.
inline void expect_identical(const Cluster& a, const Cluster& b, std::uint64_t seed,
                             const std::string& label = {}) {
  ASSERT_EQ(check::first_divergence(a, b), "")
      << "seed " << seed << (label.empty() ? "" : " " + label);
}

/// Finished migration records by outcome, indexed by MigrationOutcome.
using OutcomeCounts = std::array<std::size_t, 4>;

/// Holds every finished migration record to the conservation contract of
/// its outcome and counts the outcomes (for vacuity guards):
///   kCompleted / kAbortedStopCopy — exported == imported (the balance
///     landed on the destination, or rolled back onto the source);
///   kAbortedPrecopy — nothing ever moved and nothing paused;
///   kLostSourceCrash — nothing imported, and the VM is lost.
inline OutcomeCounts check_conservation(const Cluster& cluster, std::uint64_t seed) {
  OutcomeCounts counts{};
  for (const MigrationRecord& r : cluster.engine().completed()) {
    ++counts[static_cast<std::size_t>(r.outcome)];
    const std::string ctx = "seed " + std::to_string(seed) + " vm " + std::to_string(r.vm);
    switch (r.outcome) {
      case MigrationOutcome::kCompleted:
      case MigrationOutcome::kAbortedStopCopy:
        EXPECT_EQ(r.credit_exported, r.credit_imported) << ctx << ": flight leaked credit";
        break;
      case MigrationOutcome::kAbortedPrecopy:
        EXPECT_EQ(r.credit_exported, common::SimTime{}) << ctx << ": pre-copy abort exported";
        EXPECT_EQ(r.credit_imported, common::SimTime{}) << ctx << ": pre-copy abort imported";
        EXPECT_EQ(r.downtime, common::SimTime{}) << ctx << ": pre-copy abort charged downtime";
        break;
      case MigrationOutcome::kLostSourceCrash:
        EXPECT_EQ(r.credit_imported, common::SimTime{}) << ctx << ": lost guest imported credit";
        EXPECT_EQ(cluster.vm_state(r.vm), VmState::kLost) << ctx << ": lost record, VM not lost";
        break;
    }
    EXPECT_GE(r.end, r.start) << ctx;
  }
  return counts;
}

/// One engine to run a spec on.
struct Engine {
  bool fast_path = true;
  std::size_t threads = 1;
};

/// The parallel sweep: `fast_path` at {2, 4, hardware} executors, with
/// duplicates and the serial case dropped (on a 2-core box hardware == 2;
/// threads == 1 is the serial reference itself).
inline std::vector<Engine> parallel_engines(bool fast_path = true) {
  std::vector<std::size_t> counts{2, 4, common::ThreadPool::hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  std::vector<Engine> engines;
  for (const std::size_t n : counts)
    if (n > 1) engines.push_back({fast_path, n});
  return engines;
}

/// The differential suites' one runner: runs `spec` on `ref`, then on
/// every variant — each cluster from build_cluster, given `setup` (faults,
/// a control plane) and driven by run_spec — asserting every variant
/// identical to the reference. Returns all runs, reference first, for the
/// caller's own checks; empty once an assertion failed.
inline std::vector<std::unique_ptr<Cluster>> expect_engines_identical(
    const ScenarioSpec& spec, std::uint64_t seed, Engine ref, const std::vector<Engine>& variants,
    const std::function<void(Cluster&)>& setup = {}) {
  std::vector<std::unique_ptr<Cluster>> runs;
  for (std::size_t i = 0; i <= variants.size(); ++i) {
    const Engine e = i == 0 ? ref : variants[i - 1];
    runs.push_back(build_cluster(spec, e.fast_path, e.threads));
    if (setup) setup(*runs.back());
    run_spec(*runs.back(), spec);
    if (i == 0) continue;
    expect_identical(*runs.front(), *runs.back(), seed,
                     std::string{e.fast_path ? "fast" : "slow"} + " path @" +
                         std::to_string(e.threads) + " thread(s) vs the reference");
    if (::testing::Test::HasFatalFailure()) return {};
  }
  return runs;
}

}  // namespace pas::cluster::fuzz
