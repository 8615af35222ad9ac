// Cluster consolidation bench: the §2.3 figure made dynamic, plus the
// cluster layer's throughput and exactness gates.
//
// One scenario — 8 hosts x 64 VMs, tenants spread round-robin, an online
// manager consolidating them with live migrations — measured three ways:
//
//   static spread      : no manager; every host on, pinned at max frequency
//   consolidation only : manager migrates + VOVO, frequency pinned at max
//   consolidation + PAS: manager additionally scales each host's frequency
//                        (credits eq.-4-compensated)
//
// The consolidation-only minus consolidation+PAS gap is the energy DVFS
// reclaims ON TOP of consolidation — positive exactly because memory binds
// before CPU (§2.3), now demonstrated on a running fleet with migration
// overhead and downtime included rather than on a frozen placement.
//
// The bench also A/Bs the event-driven fast path against the reference
// slow-stepped loop at full cluster scale (byte-identical traces required)
// and records simulated-seconds-per-wall-second, with an optional floor
// for CI (--require-rate=2000).
//
// --threads=N additionally runs the same scenario on the parallel cluster
// engine (N executors stepping host segments on a thread pool) and records
// serial-vs-parallel wall time as `parallel_speedup`. The parallel run
// must be byte-identical to the serial one — that gate is always on —
// and --require-parallel-speedup=X turns the speedup into a CI floor
// (full runs only; --smoke keeps the exactness check but is exempt from
// the speedup gate, which needs real cores and a real horizon).
//
// --trace=DIR additionally replays a recorded-demand scenario: the same
// fleet, every tenant a wl::TraceReplay over a trace from DIR
// (scenario::WorkloadPreset::kTrace, assignment seeded by --fleet-seed).
// The replay is run fast-vs-slow (and at --threads if > 1) and must stay
// byte-identical — `trace.replay_identical` is gated like the other
// identity contracts, smoke mode included; results land in the
// `trace{...}` JSON block.
//
// --fleet=mixed swaps the uniform 8-GB fleet for the heterogeneous
// platform catalog (scenario::FleetPreset::kMixed: xeon / optiplex / elite
// round-robin, hungriest class first). The same three policies run on the
// mixed fleet, plus a fourth — the manager with efficient-first packing
// turned OFF (naive index-order FFD) — and the gap between naive and
// efficient-first is the energy the heterogeneity-aware cost term is
// worth. Per-class host counts and the per-class energy split land in the
// `hetero{...}` JSON block; --require-hetero-saving turns the gap into a
// CI floor (full runs only; --smoke is exempt like the speedup gate — a
// short horizon barely starts packing).
//
// --chaos-seed=N additionally reruns the scenario under a seeded fault
// schedule (fault::draw_fault_plan: host crashes, migration aborts, link
// degradation, planner brownouts) fast-vs-slow (and at --threads if > 1).
// Byte-identity under faults is gated like the other identity contracts,
// smoke included; survived-VM and recovery-latency stats land in the
// `chaos{...}` JSON block. The chaos runs are separate from the policy
// measurements above — fault-free numbers stay fault-free.
//
// --commands=FILE additionally runs the scenario under an external command
// stream (ctl::parse_tasks over a JSON task log; see src/control/task.hpp)
// fast-vs-slow (and at --threads if > 1). The control plane is held to the
// trace-replay contract: byte-identical cluster state AND result logs
// across engines, a byte-identical result log on re-record, and a
// byte-exact annotation round trip (result log → no-op annotate stream →
// re-record). The combined `control.replay_identical` verdict is gated
// always, smoke included; task/acceptance counts land in the
// `control{...}` JSON block.
//
// --scale-hosts=N (with --scale-vms, --scale-horizon) adds the SCALE tier:
// the same hosting scenario at fleet size (the CI gate runs 1000 hosts x
// 10000 VMs), executed twice — the default manager (live-set memo)
// against the replan_every_tick reference, which runs a from-scratch
// place_ffd on every tick — with byte-identity between the two ALWAYS
// gated: the memo is an optimization, never a behavior change. Planner
// wall time is metered inside the manager (planner_ns / planning ticks)
// and lands in the `scale{...}` JSON block; --require-scale-rate puts a
// sim-s/wall-s floor on the scale run, --require-planner-speedup a floor
// on replan-vs-memo planner time, and --require-scale-planner-ns a
// ceiling on the default run's planner ns per manager tick (all full runs
// only — --smoke is exempt, scale needs scale).
//
// Every invocation also reports the sparse driver's dispatch counters in
// the `engine{...}` JSON block (segments / dispatches / bulk_skips /
// catch_ups / refills_collapsed / active_fraction, taken from
// the scale run when present, else the 8x64 fast run);
// --require-active-fraction=X turns the fraction into a CI ceiling on the
// scale tier (full runs only, --smoke exempt).
//
// --federation=K adds the FEDERATION tier: K hosting-cluster shards (the
// same per-shard recipe, shard 0 skew-loaded with a quarter of the last
// shard's tenants) under one fed::Federation — a global planner balancing
// per-shard aggregate books with bounded cross-shard WAN migrations. The
// federated run is executed slow-path, fast-path, and (at --threads > 1)
// on the parallel engine; every shard must be byte-identical across all
// of them AND the cross-shard migration ledgers must match — gated
// always, smoke included. With K = 1 the federation must degrade
// byte-exactly to the bench's own single-cluster fast run (it schedules
// no federation events at all). Shard count, the shard-internal and
// cross-shard migration census and sim-s/wall-s land in the
// `federation{...}` JSON block; --require-federation-rate puts a floor
// on the federated rate (full runs only, --smoke exempt).
//
// Identity verdicts are tri-state throughout: a `*_identical` JSON field
// is true/false only when its comparison actually executed, and null when
// it never ran (e.g. `parallel_identical` with --threads=1) — a gate that
// "passes" because nothing was compared is a vacuous gate, and the gates
// below skip null verdicts instead of defaulting them to true. Every
// verdict comes from check::first_divergence; a false one prints the first
// divergent observable it found.
//
// Structure: a table of tiers (kTiers), each a function that builds its
// configs, runs them through the one differential harness (reference, fast
// and — at --threads > 1 — parallel variants), records what its gates read
// and returns its JSON block, which the loop prints as a one-line digest
// and nests (or merges) into the file; then one table of gates (kGates).
// Exit codes: 0 pass, 1 a gate failed, 2 bad usage or input.
//
// Usage: bench_cluster_consolidation [--smoke] [--horizon=SECONDS]
//          [--hosts=8] [--vms=64] [--out=BENCH_cluster.json]
//          [--require-rate=RATE] [--threads=N]
//          [--require-parallel-speedup=X]
//          [--fleet=uniform|mixed] [--fleet-seed=N] [--require-hetero-saving]
//          [--trace=DIR] [--chaos-seed=N] [--commands=FILE]
//          [--scale-hosts=N] [--scale-vms=N] [--scale-horizon=SECONDS]
//          [--require-scale-rate=RATE] [--require-planner-speedup=X]
//          [--require-scale-planner-ns=NS] [--require-active-fraction=X]
//          [--federation=K] [--require-federation-rate=RATE]
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/divergence.hpp"
#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "fault/fault.hpp"
#include "federation/federation.hpp"
#include "platform/host_class.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "workload/trace_replay.hpp"
#include "differential.hpp"
#include "json.hpp"
#include "machine.hpp"

namespace {

using pas::bench::Factory;
using pas::bench::differential;
using pas::bench::Json;
using pas::bench::timing;
using pas::bench::Verdict;
using pas::check::first_divergence;
using pas::cluster::Cluster;
using pas::common::seconds;
using pas::common::SimTime;
using pas::scenario::FederationScenarioConfig;
using pas::scenario::HostingClusterConfig;

// --- the engine variants -----------------------------------------------------

std::unique_ptr<Cluster> build(const HostingClusterConfig& c) {
  return pas::scenario::build_hosting_cluster(c);
}
std::unique_ptr<pas::fed::Federation> build(const FederationScenarioConfig& c) {
  return pas::scenario::build_federation(c);
}
HostingClusterConfig& hosting(HostingClusterConfig& c) { return c; }
HostingClusterConfig& hosting(FederationScenarioConfig& c) { return c.base; }

template <class Config>
auto run(const Config& cfg, SimTime horizon) {
  auto sim = build(cfg);
  sim->run_until(horizon);
  return sim;
}

double rate(SimTime horizon, double wall_s) {
  return static_cast<double>(horizon.us() / 1'000'000) / wall_s;
}

/// The engine variants of one config: the slow-stepped reference loop,
/// the event-driven fast path, and — at threads > 1 — the fast path on the
/// pooled parallel engine.
template <class Config>
auto engines(const Config& cfg, std::size_t threads, SimTime horizon) {
  using Sim = typename decltype(build(cfg))::element_type;
  const auto variant = [&cfg](bool fast_path, std::size_t executors) -> Factory<Sim> {
    return [&cfg, fast_path, executors] {
      Config c = cfg;
      hosting(c).fast_path = fast_path;
      if (executors > 1) hosting(c).threads = executors;
      return build(c);
    };
  };
  return differential<Sim>(variant(false, 1), variant(true, 1),
                           threads > 1 ? variant(true, threads) : nullptr, horizon);
}

// --- tiers -----------------------------------------------------------------

/// Everything the gates read; a metric stays nullopt when its tier never
/// ran.
struct Results {
  Verdict traces, parallel, replay, chaos, control, scale, federation;
  std::optional<double> fast_rate, parallel_speedup, dvfs_saving, hetero_saving;
  std::optional<double> scale_rate, planner_speedup, planner_ns_per_tick, active_fraction;
  std::optional<double> federation_rate;
};

struct Bench {
  explicit Bench(const pas::common::Flags& f) : flags(f) {}
  const pas::common::Flags& flags;
  HostingClusterConfig base;
  SimTime horizon{};
  std::size_t threads = 1;
  bool mixed = false;
  /// The base tier's fast run: (c) of the §2.3 figure, the hetero split,
  /// the federation K = 1 oracle and the default engine telemetry.
  std::unique_ptr<Cluster> fast;
  pas::cluster::EngineStats engine;
  Results r;
};

// Throughput + exactness at 8x64: fast path vs reference loop, manager on,
// plus the parallel engine at --threads > 1.
Json base_tier(Bench& b) {
  auto d = engines(b.base, b.threads, b.horizon);
  b.r.traces = d.reference;
  b.r.parallel = d.parallel;
  b.r.fast_rate = rate(b.horizon, d.fast_wall);
  b.engine = d.fast->engine_stats();
  b.fast = std::move(d.fast);
  Json j;
  j.obj("slow", timing(d.ref_wall, rate(b.horizon, d.ref_wall)))
      .obj("fast", timing(d.fast_wall, *b.r.fast_rate))
      .num("speedup", d.ref_wall / d.fast_wall, 3)
      .verdict("traces_identical", d.reference.identical);
  // The parallel A/B only exists at --threads > 1: without it the whole
  // block is null — numbers from a run that never happened are as vacuous
  // as a defaulted identity verdict.
  if (d.parallel.identical) {
    b.r.parallel_speedup = d.fast_wall / d.par_wall;
    j.obj("parallel", timing(d.par_wall, rate(b.horizon, d.par_wall),
                             Json{}.count("threads", b.threads)))
        .num("parallel_speedup", *b.r.parallel_speedup, 3);
  } else {
    j.raw("parallel", "null").raw("parallel_speedup", "null");
  }
  return std::move(j.verdict("parallel_identical", d.parallel.identical));
}

// The dynamic §2.3 figure: (c) consolidation + PAS is the base fast run;
// (a) and (b) rerun the same tenants under the other policies.
Json policies_tier(Bench& b) {
  HostingClusterConfig spread_cfg = b.base;
  spread_cfg.install_manager = false;
  HostingClusterConfig consol_cfg = b.base;
  consol_cfg.manager.dvfs = pas::cluster::ClusterManagerConfig::Dvfs::kPinnedMax;
  const auto spread = run(spread_cfg, b.horizon);
  const auto consol = run(consol_cfg, b.horizon);
  const double w_spread = spread->average_watts();
  const double w_consol = consol->average_watts();
  const double w_pas = b.fast->average_watts();
  b.r.dvfs_saving = w_consol - w_pas;

  std::printf("\n  policy                      mean W   hosts on   migrations\n");
  const std::pair<const char*, const Cluster*> rows[] = {
      {"static spread           ", spread.get()},
      {"consolidation only      ", consol.get()},
      {"consolidation + PAS DVFS", b.fast.get()}};
  for (const auto& [name, c] : rows)
    std::printf("  %s  %8.1f   %8zu   %10zu\n", name, c->average_watts(), c->powered_on_count(),
                c->migrations().size());
  std::printf("  consolidation saves %.1f W; DVFS reclaims another %.1f W on top (§2.3)\n",
              w_spread - w_consol, *b.r.dvfs_saving);
  return std::move(Json{}
                       .num("watts_static_spread", w_spread, 3)
                       .num("watts_consolidation_only", w_consol, 3)
                       .num("watts_consolidation_pas", w_pas, 3)
                       .num("consolidation_saving_watts", w_spread - w_consol, 3)
                       .num("dvfs_saving_watts", *b.r.dvfs_saving, 3));
}

// Mixed fleet: per-class energy split, and the PAS policy rerun with the
// planner's efficient-first host ordering off (index-order FFD) — the watt
// gap prices the heterogeneity-aware cost term.
Json hetero_tier(Bench& b) {
  HostingClusterConfig naive_cfg = b.base;
  naive_cfg.manager.efficient_first = false;
  const double naive = run(naive_cfg, b.horizon)->average_watts();
  b.r.hetero_saving = naive - b.fast->average_watts();
  std::map<std::string, std::pair<std::size_t, double>> classes;  // ordered -> stable JSON
  for (pas::cluster::HostId h = 0; h < b.fast->host_count(); ++h) {
    auto& [hosts, joules] = classes[b.fast->host_class(h).name];
    ++hosts;
    joules += b.fast->host_energy_joules(h);
  }
  Json js;
  for (const auto& [name, c] : classes)
    js.obj(name, Json{}.count("hosts", c.first).num("energy_joules", c.second, 3));
  return std::move(Json{}
                       .obj("classes", std::move(js))
                       .num("watts_naive_order", naive, 3)
                       .num("efficient_first_saving_watts", *b.r.hetero_saving, 3));
}

/// Reads an input a flag names. An unreadable or malformed one is bad
/// usage, like a malformed flag: exit 2, not a failed gate.
template <class Read>
auto read_input(const Read& read) {
  try {
    return read();
  } catch (const std::exception& err) {
    throw pas::common::UsageError(err.what());
  }
}

// Recorded-demand tenants (every one a wl::TraceReplay over --trace=DIR)
// on the same fleet, across every engine.
Json trace_tier(Bench& b) {
  HostingClusterConfig cfg = b.base;
  cfg.workload = pas::scenario::WorkloadPreset::kTrace;
  cfg.traces = read_input([&] { return pas::wl::Trace::load_dir(b.flags.get_or("trace", "")); });
  const auto d = engines(cfg, b.threads, b.horizon);
  b.r.replay = d.both();
  return std::move(Json{}
                       .str("dir", b.flags.get_or("trace", ""))
                       .count("files", cfg.traces.size())
                       .verdict("replay_identical", b.r.replay.identical)
                       .num("sim_per_wall", rate(b.horizon, d.fast_wall), 1)
                       .num("speedup", d.ref_wall / d.fast_wall, 3)
                       .num("watts", d.fast->average_watts(), 3)
                       .count("migrations", d.fast->migrations().size()));
}

// The same scenario under a seeded fault schedule (crashes, aborts,
// degraded links, brownouts) — separate runs, so the policy numbers above
// stay fault-free.
Json chaos_tier(Bench& b) {
  HostingClusterConfig cfg = b.base;
  cfg.chaos_seed = b.flags.get_count("chaos-seed", 0);
  const auto d = engines(cfg, b.threads, b.horizon);
  b.r.chaos = d.both();
  const Cluster& c = *d.fast;
  const pas::fault::FaultInjector& inj = *c.faults();
  const pas::cluster::ClusterManager* mgr = c.manager();
  // Recovery-latency SLO stats (orphan -> running again).
  const pas::cluster::RecoveryStats rec = pas::cluster::summarize_recoveries(c.recoveries());
  return std::move(Json{}
                       .count("seed", cfg.chaos_seed)
                       .count("faults_drawn", inj.plan().events.size())
                       .count("crashes", inj.crashes_fired())
                       .count("migration_aborts", inj.aborts_fired())
                       .count("link_degrades", inj.link_degrades_fired())
                       .count("brownout_ticks_skipped", mgr ? mgr->ticks_skipped() : 0)
                       .count("vms", c.vm_count())
                       .count("vms_survived", c.running_vm_count())
                       .count("vms_lost", c.lost_vm_count())
                       .count("recovery_restarts", rec.count)
                       .count("recovery_abandoned", mgr ? mgr->restarts_abandoned() : 0)
                       .num("recovery_latency_p50_s", rec.p50.sec(), 6)
                       .num("recovery_latency_mean_s", rec.mean_s, 3)
                       .num("recovery_latency_max_s", rec.max.sec(), 6)
                       .count("restarts_issued", mgr ? mgr->restarts_issued() : 0)
                       .verdict("chaos_identical", b.r.chaos.identical));
}

// An external command stream (ctl::parse_tasks over --commands=FILE) held
// to the trace-replay contract: cluster state and result log identical on
// every engine (the comparator covers both), a fresh re-record identical
// to the first, and the result log re-injected as a no-op annotation
// stream re-recording itself verbatim (ctl::results_to_annotations).
Json control_tier(Bench& b) {
  const std::string file = b.flags.get_or("commands", "");
  const pas::ctl::FleetDims dims{b.base.hosts, b.base.vms};
  HostingClusterConfig cfg = b.base;
  cfg.commands = read_input([&] {
    std::ifstream in(file, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + file);
    std::ostringstream text;
    text << in.rdbuf();
    return pas::ctl::parse_tasks(text.str(), file, dims);
  });
  const auto d = engines(cfg, b.threads, b.horizon);
  b.r.control = d.both();
  b.r.control.add("re-record", first_divergence(*d.fast, *run(cfg, b.horizon)));
  const pas::ctl::ControlPlane& plane = *d.fast->control();
  const std::string notes = pas::ctl::results_to_annotations(plane.results());
  HostingClusterConfig notes_cfg = b.base;
  notes_cfg.commands = pas::ctl::parse_tasks(notes, "<annotations>", dims);
  const std::string renotes =
      pas::ctl::results_to_annotations(run(notes_cfg, b.horizon)->control()->results());
  b.r.control.add("annotation round trip",
                  renotes == notes ? "" : "re-recorded annotations differ");
  return std::move(Json{}
                       .str("file", file)
                       .count("tasks", cfg.commands.size())
                       .count("fired", plane.results().size())
                       .count("accepted", plane.accepted())
                       .count("rejected", plane.rejected())
                       .count("superseded", plane.superseded())
                       .verdict("replay_identical", b.r.control.identical));
}

// The memoized planner at fleet size: the default manager (live-set memo)
// against the replan_every_tick reference, both
// on the full engine at --threads. The memo is an optimization, never a
// behavior change: byte-identity is the whole contract.
Json scale_tier(Bench& b) {
  HostingClusterConfig cfg = b.base;
  cfg.hosts = b.flags.get_count("scale-hosts", 0);
  cfg.vms = b.flags.get_count("scale-vms", cfg.hosts * 10);
  const long horizon_s = b.flags.get_int("scale-horizon", b.flags.has("smoke") ? 120 : 600);
  cfg.horizon = seconds(horizon_s);
  cfg.threads = b.threads;
  HostingClusterConfig replan_cfg = cfg;
  replan_cfg.manager.replan_every_tick = true;
  const auto d = differential<Cluster>([&] { return build(replan_cfg); },
                                       [&] { return build(cfg); }, nullptr, cfg.horizon);
  b.r.scale = d.reference;
  b.engine = d.fast->engine_stats();

  const pas::cluster::ClusterManager& memo = *d.fast->manager();
  const pas::cluster::ClusterManager& replan = *d.ref->manager();
  const pas::cluster::PlanStats& ps = memo.book_stats();
  // Planner cost per manager tick: every live tick runs a planning pass.
  const std::size_t ticks = memo.planning_ticks();
  const auto memo_ns = static_cast<double>(memo.planner_ns());
  b.r.scale_rate = rate(cfg.horizon, d.fast_wall);
  b.r.planner_ns_per_tick = ticks > 0 ? memo_ns / static_cast<double>(ticks) : 0.0;
  b.r.planner_speedup = memo_ns > 0 ? static_cast<double>(replan.planner_ns()) / memo_ns : 0.0;
  b.r.active_fraction = b.engine.active_fraction();
  return std::move(
      Json{}
          .count("hosts", cfg.hosts)
          .count("vms", cfg.vms)
          .count("simulated_seconds", static_cast<std::uint64_t>(horizon_s))
          .obj("memo", timing(d.fast_wall, *b.r.scale_rate)
                           .count("planner_ns", memo.planner_ns())
                           .count("planning_ticks", memo.planning_ticks())
                           .num("planner_ns_per_tick", *b.r.planner_ns_per_tick, 1))
          .obj("replan", Json{}
                             .num("wall_seconds", d.ref_wall, 6)
                             .count("planner_ns", replan.planner_ns())
                             .count("planning_ticks", replan.planning_ticks()))
          .num("planner_speedup", *b.r.planner_speedup, 3)
          .obj("book", Json{}
                           .count("cached", ps.cached_plans)
                           .count("full_rebuilds", ps.full_rebuilds)
                           .count("vms_scanned", ps.vms_scanned))
          .verdict("scale_identical", b.r.scale.identical));
}

// K hosting-cluster shards (shard 0 skew-loaded) under one fed::Federation
// across every engine: each shard and the cross-shard ledger identical.
// K = 1 must also reproduce the base fast run byte-exactly — a single-shard
// federation schedules no events at all.
Json federation_tier(Bench& b) {
  FederationScenarioConfig fc;
  fc.base = b.base;
  fc.shards = b.flags.get_count("federation", 0);
  const auto d = engines(fc, b.threads, b.horizon);
  b.r.federation = d.both();
  if (fc.shards == 1)
    b.r.federation.add("K=1 vs bare cluster", first_divergence(*b.fast, d.fast->shard(0)));
  b.r.federation_rate = rate(b.horizon, d.fast_wall);
  // Migration census: the shards' own moves beside the cross-shard ones.
  std::size_t shard_moves = 0;
  std::size_t vms = 0;
  for (pas::fed::ShardId s = 0; s < d.fast->shard_count(); ++s) {
    shard_moves += d.fast->shard(s).migrations().size();
    vms += d.fast->shard(s).vm_count();
  }
  return std::move(Json{}
                       .count("shards", fc.shards)
                       .count("vms", vms)
                       .count("planner_ticks", d.fast->planner_ticks())
                       .count("shard_migrations", shard_moves)
                       .count("cross_shard_migrations", d.fast->cross_shard_records().size())
                       .num("wall_seconds", d.fast_wall, 6)
                       .num("sim_per_wall", *b.r.federation_rate, 1)
                       .verdict("federation_identical", b.r.federation.identical));
}

// The sparse engine's dispatch counters, from the scale run when present
// (consolidation parks most of a big fleet), else the base fast run.
// active_fraction = dispatches / (dispatches + bulk_skips).
Json engine_tier(Bench& b) {
  const pas::cluster::EngineStats& e = b.engine;
  return std::move(Json{}
                       .count("segments", e.segments)
                       .count("dispatches", e.dispatches)
                       .count("bulk_skips", e.bulk_skips)
                       .count("catch_ups", e.catch_ups)
                       .count("refills_collapsed", e.refills_collapsed)
                       .num("active_fraction", e.active_fraction(), 6));
}

struct Tier {
  const char* name;
  bool nested;  // its own JSON block, or keys merged into the top level
  bool (*enabled)(const Bench&);
  Json (*run)(Bench&);
};

// In JSON order.
const Tier kTiers[] = {
    {"base", false, [](const Bench&) { return true; }, base_tier},
    {"policies", false, [](const Bench&) { return true; }, policies_tier},
    {"hetero", true, [](const Bench& b) { return b.mixed; }, hetero_tier},
    {"trace", true, [](const Bench& b) { return !b.flags.get_or("trace", "").empty(); },
     trace_tier},
    {"chaos", true, [](const Bench& b) { return b.flags.get_count("chaos-seed", 0) != 0; },
     chaos_tier},
    {"control", true, [](const Bench& b) { return !b.flags.get_or("commands", "").empty(); },
     control_tier},
    {"scale", true, [](const Bench& b) { return b.flags.get_count("scale-hosts", 0) > 0; },
     scale_tier},
    {"federation", true, [](const Bench& b) { return b.flags.get_count("federation", 0) > 0; },
     federation_tier},
    {"engine", true, [](const Bench&) { return true; }, engine_tier},
};

// --- gates -----------------------------------------------------------------

enum class Bound { kFloor, kCeiling, kPositive };

/// One gate: an identity verdict that must not be false, or a bound on a
/// metric. A flagged gate is armed by its --require-* flag (a positive
/// value, or the bare switch for kPositive); an armed gate whose tier never
/// ran fails with `needs`, while an unflagged gate skips a tier that never
/// ran — a null verdict is neither a pass nor a failure.
struct Gate {
  const char* flag = nullptr;
  bool smoke_exempt = false;
  const char* needs = nullptr;
  Verdict Results::*verdict = nullptr;
  std::optional<double> Results::*metric = nullptr;
  Bound bound = Bound::kFloor;
  const char* fail = "";  // printf format over (metric, limit)
};

const Gate kGates[] = {
    {.verdict = &Results::traces, .fail = "fast path diverged from the reference loop"},
    {.verdict = &Results::parallel, .fail = "parallel engine diverged from the serial engine"},
    {.verdict = &Results::replay, .fail = "trace replay diverged between engine variants"},
    {.verdict = &Results::chaos, .fail = "engines diverged under injected faults"},
    {.verdict = &Results::control,
     .fail = "control-plane replay diverged (state, result log, or annotation round trip)"},
    {.verdict = &Results::scale,
     .fail = "memoized planner diverged from the replan-every-tick reference"},
    {.verdict = &Results::federation,
     .fail = "federated shards or cross-shard ledgers diverged"},
    {"require-federation-rate", true, "--federation > 0", nullptr, &Results::federation_rate,
     Bound::kFloor, "federated rate %.0f sim-s/wall-s below the %.0f floor"},
    {"require-scale-rate", true, "--scale-hosts > 0", nullptr, &Results::scale_rate,
     Bound::kFloor, "scale rate %.0f sim-s/wall-s below the %.0f floor"},
    {"require-planner-speedup", true, "--scale-hosts > 0", nullptr, &Results::planner_speedup,
     Bound::kFloor, "planner speedup %.2fx below the %.2fx floor"},
    {"require-scale-planner-ns", true, "--scale-hosts > 0", nullptr,
     &Results::planner_ns_per_tick, Bound::kCeiling,
     "planner %.0f ns/tick above the %.0f ceiling"},
    {"require-active-fraction", true, "--scale-hosts > 0", nullptr, &Results::active_fraction,
     Bound::kCeiling, "engine active fraction %.3f above the %.3f ceiling"},
    {"require-parallel-speedup", true, "--threads > 1", nullptr, &Results::parallel_speedup,
     Bound::kFloor, "parallel speedup %.2fx below the %.2fx floor"},
    {nullptr, false, nullptr, nullptr, &Results::dvfs_saving, Bound::kPositive,
     "DVFS reclaimed nothing on top of consolidation"},
    {"require-hetero-saving", true, "--fleet=mixed", nullptr, &Results::hetero_saving,
     Bound::kPositive, "efficient-first packing saved nothing (%.2f W) vs naive order"},
    {"require-rate", false, nullptr, nullptr, &Results::fast_rate, Bound::kFloor,
     "fast rate %.0f sim-s/wall-s below the %.0f floor"},
};

/// 0 when every armed gate holds, else 1 after naming the first failure.
int apply_gates(const pas::common::Flags& flags, const Results& r) {
  for (const Gate& g : kGates) {
    double limit = 0.0;
    if (g.flag != nullptr) {
      if (g.smoke_exempt && flags.has("smoke")) continue;
      if (g.bound == Bound::kPositive ? !flags.has(g.flag)
                                      : (limit = flags.get_double(g.flag, 0.0)) <= 0.0)
        continue;
    }
    if (g.verdict != nullptr) {
      const Verdict& v = r.*g.verdict;
      if (v.identical != false) continue;
      std::printf("  FAIL: %s\n  first divergence: %s\n", g.fail, v.divergence.c_str());
      return 1;
    }
    const std::optional<double>& m = r.*g.metric;
    if (!m) {
      if (g.flag == nullptr) continue;
      std::printf("  FAIL: --%s needs %s\n", g.flag, g.needs);
      return 1;
    }
    const bool holds = g.bound == Bound::kFloor     ? *m >= limit
                       : g.bound == Bound::kCeiling ? *m <= limit
                                                    : *m > 0.0;
    if (holds) continue;
    std::printf("  FAIL: ");
    std::printf(g.fail, *m, limit);
    std::printf("\n");
    return 1;
  }
  return 0;
}

int run_bench(const pas::common::Flags& flags) {
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 64) throw std::invalid_argument("--horizon must be >= 64");
  const std::string fleet = flags.get_or("fleet", "uniform");
  if (fleet != "uniform" && fleet != "mixed")
    throw std::invalid_argument("--fleet must be uniform or mixed");
  const std::string out = flags.get_or("out", "BENCH_cluster.json");

  Bench b{flags};
  b.mixed = fleet == "mixed";
  b.horizon = seconds(horizon_s);
  b.base.hosts = flags.get_count("hosts", 8);
  b.base.vms = flags.get_count("vms", 64);
  b.base.horizon = b.horizon;
  if (b.mixed) {
    b.base.fleet = pas::scenario::FleetPreset::kMixed;
    b.base.fleet_seed = flags.get_count("fleet-seed", 0);
  }
  // --threads follows ExecutionPolicy semantics: 1 (the default) = serial
  // only, no parallel measurement; 0 = hardware concurrency; N > 1 = N.
  b.threads = flags.get_count("threads", 1);
  if (b.threads == 0) b.threads = pas::common::ThreadPool::hardware_threads();

  std::printf("=== cluster consolidation: %zu hosts x %zu VMs, %ld simulated s, %s fleet ===\n",
              b.base.hosts, b.base.vms, horizon_s, fleet.c_str());
  Json json;
  json.str("bench", "cluster_consolidation")
      .raw("machine", pas::bench::machine_json())
      .str("scenario",
           "hosting_cluster_" + std::to_string(b.base.hosts) + "x" + std::to_string(b.base.vms))
      .str("fleet", fleet)
      .count("hosts", b.base.hosts)
      .count("vms", b.base.vms)
      .count("simulated_seconds", static_cast<std::uint64_t>(horizon_s));
  for (const Tier& tier : kTiers) {
    if (!tier.enabled(b)) continue;
    Json block = tier.run(b);
    std::printf("\n  %s: %s\n", tier.name, block.line().c_str());
    if (tier.nested)
      json.obj(tier.name, std::move(block));
    else
      json.merge(std::move(block));
  }
  json.count("migrations", b.fast->migrations().size())
      .count("hosts_on_final", b.fast->powered_on_count());

  std::ofstream js{out};
  if (!js) throw pas::common::UsageError("cannot write " + out);
  js << json.render() << "\n";
  std::printf("  written to %s\n", out.c_str());
  return apply_gates(flags, b.r);
}

}  // namespace

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run_bench); }
