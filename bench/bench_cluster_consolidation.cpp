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
// 10000 VMs), executed twice — the default manager (live-set memo plus
// unchanged-tick early-out) against the replan_every_tick reference, which
// runs a from-scratch place_ffd on every tick — with byte-identity between
// the two ALWAYS gated: the memo and the early-out are optimizations,
// never a behavior change. Planner wall time is metered inside the
// manager (planner_ns / planning ticks / plans skipped) and lands in the
// `scale{...}` JSON block; --require-scale-rate puts a sim-s/wall-s floor
// on the scale run, --require-planner-speedup a floor on replan-vs-memo
// planner time, and --require-scale-planner-ns a ceiling on the default
// run's planner ns per manager tick (all full runs only — --smoke is
// exempt, scale needs scale).
//
// Every invocation also reports the sparse driver's dispatch counters in
// the `engine{...}` JSON block (segments / dispatches / bulk_skips /
// catch_ups / refills_collapsed / active_fraction / pool_grain, taken from
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
// no federation events at all). Shard count, cross-shard census per link
// kind and sim-s/wall-s land in the `federation{...}` JSON block;
// --require-federation-rate puts a floor on the federated rate (full
// runs only, --smoke exempt).
//
// Identity verdicts are tri-state throughout: a `*_identical` JSON field
// is true/false only when its comparison actually executed, and null when
// it never ran (e.g. `parallel_identical` with --threads=1) — a gate that
// "passes" because nothing was compared is a vacuous gate, and the gates
// below skip null verdicts instead of defaulting them to true.
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
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "federation/federation.hpp"
#include "platform/host_class.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "workload/trace_replay.hpp"
#include "machine.hpp"

namespace {

using pas::common::seconds;
using pas::common::SimTime;
using pas::scenario::HostingClusterConfig;

// Minimal JSON string escaping for user-supplied values (the --trace
// path): quotes, backslashes and control characters.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

double run_timed(pas::cluster::Cluster& cluster, SimTime horizon) {
  const auto start = std::chrono::steady_clock::now();
  cluster.run_until(horizon);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

bool clusters_identical(pas::cluster::Cluster& a, pas::cluster::Cluster& b) {
  for (pas::cluster::HostId h = 0; h < a.host_count(); ++h) {
    const auto sa = a.host(h).trace().samples();
    const auto sb = b.host(h).trace().samples();
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      const auto ra = sa[i];
      const auto rb = sb[i];
      if (ra.t != rb.t || ra.freq_mhz != rb.freq_mhz ||
          ra.global_load_pct != rb.global_load_pct ||
          ra.absolute_load_pct != rb.absolute_load_pct)
        return false;
      for (std::size_t v = 0; v < ra.vm_global_pct.size(); ++v) {
        if (ra.vm_global_pct[v] != rb.vm_global_pct[v] ||
            ra.vm_absolute_pct[v] != rb.vm_absolute_pct[v] ||
            ra.vm_credit_pct[v] != rb.vm_credit_pct[v] ||
            ra.vm_saturated[v] != rb.vm_saturated[v])
          return false;
      }
    }
    if (a.host(h).idle_time() != b.host(h).idle_time()) return false;
    // Energy integrates per-P-state integer time: exact across engines.
    if (a.host_energy_joules(h) != b.host_energy_joules(h)) return false;
  }
  if (a.migrations().size() != b.migrations().size()) return false;
  for (std::size_t i = 0; i < a.migrations().size(); ++i) {
    if (a.migrations()[i].vm != b.migrations()[i].vm ||
        a.migrations()[i].start != b.migrations()[i].start ||
        a.migrations()[i].end != b.migrations()[i].end ||
        a.migrations()[i].outcome != b.migrations()[i].outcome)
      return false;
  }
  for (pas::cluster::GlobalVmId g = 0; g < a.vm_count(); ++g)
    if (a.vm_state(g) != b.vm_state(g)) return false;
  for (pas::cluster::GlobalVmId g = 0; g < a.vm_count(); ++g)
    if (a.residence(g) != b.residence(g)) return false;
  return true;
}

// The cluster identity contract lifted to the federation: every shard
// byte-identical, plus matching cross-shard ledgers (same flights over the
// same links at the same instants) and VM registries.
bool federations_identical(pas::fed::Federation& a, pas::fed::Federation& b) {
  if (a.shard_count() != b.shard_count()) return false;
  for (pas::fed::ShardId s = 0; s < a.shard_count(); ++s)
    if (!clusters_identical(a.shard(s), b.shard(s))) return false;
  if (a.planner_ticks() != b.planner_ticks() || a.moves_issued() != b.moves_issued() ||
      a.cross_shard_in_flight() != b.cross_shard_in_flight())
    return false;
  const auto& ra = a.cross_shard_records();
  const auto& rb = b.cross_shard_records();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].vm != rb[i].vm || ra[i].from_shard != rb[i].from_shard ||
        ra[i].to_shard != rb[i].to_shard || ra[i].from_host != rb[i].from_host ||
        ra[i].to_host != rb[i].to_host || ra[i].src_vm != rb[i].src_vm ||
        ra[i].dst_vm != rb[i].dst_vm || ra[i].link != rb[i].link ||
        ra[i].record.start != rb[i].record.start ||
        ra[i].record.stop != rb[i].record.stop || ra[i].record.end != rb[i].record.end ||
        ra[i].record.downtime != rb[i].record.downtime ||
        ra[i].record.rounds != rb[i].record.rounds ||
        ra[i].record.transferred_mb != rb[i].record.transferred_mb ||
        ra[i].record.outcome != rb[i].record.outcome)
      return false;
  }
  if (a.vm_count() != b.vm_count()) return false;
  for (pas::fed::FedVmId v = 0; v < a.vm_count(); ++v)
    if (a.locate(v).shard != b.locate(v).shard || a.locate(v).vm != b.locate(v).vm)
      return false;
  return true;
}

// Tri-state identity verdict for JSON: a comparison that never ran is
// null, never a vacuous true.
const char* json_verdict(const std::optional<bool>& v) {
  return v.has_value() ? (*v ? "true" : "false") : "null";
}

}  // namespace

int main(int argc, char** argv) {
  const pas::common::Flags flags{argc, argv};
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 64) {
    std::fprintf(stderr, "bench_cluster_consolidation: --horizon must be >= 64\n");
    return 2;
  }
  const auto hosts = static_cast<std::size_t>(flags.get_int("hosts", 8));
  const auto vms = static_cast<std::size_t>(flags.get_int("vms", 64));
  const std::string out = flags.get_or("out", "BENCH_cluster.json");
  const std::string fleet = flags.get_or("fleet", "uniform");
  if (fleet != "uniform" && fleet != "mixed") {
    std::fprintf(stderr, "bench_cluster_consolidation: --fleet must be uniform or mixed\n");
    return 2;
  }
  const bool mixed = fleet == "mixed";
  const SimTime horizon = seconds(horizon_s);

  HostingClusterConfig base;
  base.hosts = hosts;
  base.vms = vms;
  base.horizon = horizon;
  if (mixed) {
    base.fleet = pas::scenario::FleetPreset::kMixed;
    base.fleet_seed = static_cast<std::uint64_t>(flags.get_int("fleet-seed", 0));
  }

  std::printf("=== cluster consolidation: %zu hosts x %zu VMs, %ld simulated s, %s fleet ===\n",
              hosts, vms, horizon_s, fleet.c_str());

  // --- throughput + exactness: fast path vs reference loop, manager on ---
  auto cfg_slow = base;
  cfg_slow.fast_path = false;
  auto slow = pas::scenario::build_hosting_cluster(cfg_slow);
  const double slow_wall = run_timed(*slow, horizon);
  const double slow_rate = static_cast<double>(horizon_s) / slow_wall;
  std::printf("  slow-stepped loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              slow_wall * 1e3, slow_rate);

  auto cfg_fast = base;
  cfg_fast.fast_path = true;
  auto fast = pas::scenario::build_hosting_cluster(cfg_fast);
  const double fast_wall = run_timed(*fast, horizon);
  const double fast_rate = static_cast<double>(horizon_s) / fast_wall;
  std::printf("  event-driven loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              fast_wall * 1e3, fast_rate);

  const bool identical = clusters_identical(*slow, *fast);
  const double speedup = slow_wall / fast_wall;
  std::printf("  speedup: %.2fx   traces identical: %s\n", speedup,
              identical ? "yes" : "NO — BUG");

  // Sparse-driver telemetry comes from the most representative fleet this
  // invocation runs: the scale tier when present (consolidation parks most
  // of a big fleet, which is what the active-fraction gate is about),
  // otherwise the 8x64 fast run. Overwritten in the scale block below.
  pas::cluster::EngineStats engine_stats = fast->engine_stats();
  std::size_t engine_grain = fast->config().execution.pool_grain;

  // --- the parallel engine: same scenario, host segments on a pool ---
  // --threads follows ExecutionPolicy semantics: 1 (the default) = serial
  // only, no parallel measurement; 0 = hardware concurrency; N > 1 = N.
  auto threads = static_cast<std::size_t>(flags.get_int("threads", 1));
  if (threads == 0) threads = pas::common::ThreadPool::hardware_threads();
  double par_wall = 0.0;
  double par_rate = 0.0;
  double parallel_speedup = 0.0;
  // No parallel run, no verdict: with --threads=1 this stays nullopt and
  // the JSON says null — previously it defaulted to true and the gate
  // "passed" a comparison that never executed.
  std::optional<bool> parallel_identical;
  if (threads > 1) {
    auto cfg_par = base;
    cfg_par.fast_path = true;
    cfg_par.threads = threads;
    auto par = pas::scenario::build_hosting_cluster(cfg_par);
    par_wall = run_timed(*par, horizon);
    par_rate = static_cast<double>(horizon_s) / par_wall;
    parallel_speedup = fast_wall / par_wall;
    parallel_identical = clusters_identical(*fast, *par);
    std::printf("  parallel (%zu thr)  : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs serial   identical: %s\n",
                threads, par_wall * 1e3, par_rate, parallel_speedup,
                *parallel_identical ? "yes" : "NO — BUG");
  }

  // --- the dynamic §2.3 figure ---
  // (c) consolidation + PAS is the fast run above; (a) and (b) rerun the
  // same tenants under the other policies.
  auto cfg_spread = base;
  cfg_spread.install_manager = false;
  auto spread = pas::scenario::build_hosting_cluster(cfg_spread);
  spread->run_until(horizon);

  auto cfg_consol = base;
  cfg_consol.manager.dvfs = pas::cluster::ClusterManagerConfig::Dvfs::kPinnedMax;
  auto consol = pas::scenario::build_hosting_cluster(cfg_consol);
  consol->run_until(horizon);

  const double watts_spread = spread->average_watts();
  const double watts_consol = consol->average_watts();
  const double watts_pas = fast->average_watts();
  const double consolidation_saving = watts_spread - watts_consol;
  const double dvfs_saving = watts_consol - watts_pas;

  std::printf("\n  policy                      mean W   hosts on   migrations\n");
  std::printf("  static spread             %8.1f   %8zu   %10zu\n", watts_spread,
              spread->powered_on_count(), spread->migrations().size());
  std::printf("  consolidation only        %8.1f   %8zu   %10zu\n", watts_consol,
              consol->powered_on_count(), consol->migrations().size());
  std::printf("  consolidation + PAS DVFS  %8.1f   %8zu   %10zu\n", watts_pas,
              fast->powered_on_count(), fast->migrations().size());
  std::printf("  consolidation saves %.1f W; DVFS reclaims another %.1f W on top (§2.3)\n",
              consolidation_saving, dvfs_saving);

  // --- heterogeneity: per-class split + the efficient-first A/B ---
  // The naive baseline reruns the PAS policy with the planner's
  // heterogeneity-aware host ordering disabled (index-order FFD): the watt
  // gap prices the cost term on the mixed fleet.
  double watts_naive_order = 0.0;
  double hetero_saving = 0.0;
  std::string hetero_json;
  if (mixed) {
    auto cfg_naive = base;
    cfg_naive.manager.efficient_first = false;
    auto naive = pas::scenario::build_hosting_cluster(cfg_naive);
    naive->run_until(horizon);
    watts_naive_order = naive->average_watts();
    hetero_saving = watts_naive_order - watts_pas;

    struct ClassStat {
      std::size_t hosts = 0;
      double energy_joules = 0.0;
    };
    std::map<std::string, ClassStat> classes;  // ordered -> stable JSON
    for (pas::cluster::HostId h = 0; h < fast->host_count(); ++h) {
      ClassStat& s = classes[fast->host_class(h).name];
      ++s.hosts;
      s.energy_joules += fast->host_energy_joules(h);
    }

    std::printf("\n  heterogeneous fleet (efficient-first vs naive index order):\n");
    std::printf("  naive-order manager       %8.1f W   efficient-first saves %.1f W\n",
                watts_naive_order, hetero_saving);
    hetero_json = "  \"hetero\": {\n    \"classes\": {";
    bool first = true;
    char buf[256];
    for (const auto& [name, s] : classes) {
      std::printf("    class %-16s %zu host(s)   %.0f J\n", name.c_str(), s.hosts,
                  s.energy_joules);
      std::snprintf(buf, sizeof(buf), "%s\n      \"%s\": {\"hosts\": %zu, \"energy_joules\": %.3f}",
                    first ? "" : ",", name.c_str(), s.hosts, s.energy_joules);
      hetero_json += buf;
      first = false;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n    },\n    \"watts_naive_order\": %.3f,\n"
                  "    \"efficient_first_saving_watts\": %.3f\n  },\n",
                  watts_naive_order, hetero_saving);
    hetero_json += buf;
  }

  // --- trace replay: recorded-demand tenants on the same fleet ---
  // Fast vs slow (and vs parallel when --threads > 1) must stay
  // byte-identical with every tenant a TraceReplay; that identity is a
  // gated contract like the synthetic ones, smoke included.
  const std::string trace_dir = flags.get_or("trace", "");
  std::optional<bool> replay_identical;  // nullopt until the replay A/B runs
  std::string trace_json;
  if (!trace_dir.empty()) {
    const std::vector<pas::wl::Trace> traces = pas::wl::Trace::load_dir(trace_dir);
    auto cfg_trace = base;
    cfg_trace.workload = pas::scenario::WorkloadPreset::kTrace;
    cfg_trace.traces = traces;

    auto tr_slow_cfg = cfg_trace;
    tr_slow_cfg.fast_path = false;
    auto tr_slow = pas::scenario::build_hosting_cluster(tr_slow_cfg);
    const double tr_slow_wall = run_timed(*tr_slow, horizon);

    auto tr_fast = pas::scenario::build_hosting_cluster(cfg_trace);
    const double tr_fast_wall = run_timed(*tr_fast, horizon);
    const double tr_rate = static_cast<double>(horizon_s) / tr_fast_wall;
    replay_identical = clusters_identical(*tr_slow, *tr_fast);

    if (threads > 1) {
      auto tr_par_cfg = cfg_trace;
      tr_par_cfg.threads = threads;
      auto tr_par = pas::scenario::build_hosting_cluster(tr_par_cfg);
      (void)run_timed(*tr_par, horizon);
      replay_identical = *replay_identical && clusters_identical(*tr_fast, *tr_par);
    }

    std::printf("\n  trace replay (%zu trace(s) from %s):\n", traces.size(),
                trace_dir.c_str());
    std::printf("  replay fast path  : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs slow   identical: %s\n",
                tr_fast_wall * 1e3, tr_rate, tr_slow_wall / tr_fast_wall,
                *replay_identical ? "yes" : "NO — BUG");
    std::printf("  replay fleet      : %8.1f mean W   %zu migrations\n",
                tr_fast->average_watts(), tr_fast->migrations().size());

    // The dir is user-supplied and unbounded: compose around it with
    // std::string so a long path cannot truncate the JSON.
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    \"files\": %zu,\n"
                  "    \"replay_identical\": %s,\n"
                  "    \"sim_per_wall\": %.1f,\n"
                  "    \"speedup\": %.3f,\n"
                  "    \"watts\": %.3f,\n"
                  "    \"migrations\": %zu\n  },\n",
                  traces.size(), json_verdict(replay_identical), tr_rate,
                  tr_slow_wall / tr_fast_wall, tr_fast->average_watts(),
                  tr_fast->migrations().size());
    trace_json = "  \"trace\": {\n    \"dir\": \"" + json_escape(trace_dir) + "\",\n" + buf;
  }

  // --- chaos: the same scenario under a seeded fault schedule ---
  // Separate runs so the policy numbers above stay fault-free; the gate is
  // the standing byte-identity contract, now under crashes/aborts/degraded
  // links/brownouts.
  const auto chaos_seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 0));
  std::optional<bool> chaos_identical;  // nullopt until the chaos A/B runs
  std::string chaos_json;
  if (chaos_seed != 0) {
    auto cfg_chaos = base;
    cfg_chaos.chaos_seed = chaos_seed;

    auto ch_slow_cfg = cfg_chaos;
    ch_slow_cfg.fast_path = false;
    auto ch_slow = pas::scenario::build_hosting_cluster(ch_slow_cfg);
    ch_slow->run_until(horizon);

    auto ch_fast = pas::scenario::build_hosting_cluster(cfg_chaos);
    ch_fast->run_until(horizon);
    chaos_identical = clusters_identical(*ch_slow, *ch_fast);

    if (threads > 1) {
      auto ch_par_cfg = cfg_chaos;
      ch_par_cfg.threads = threads;
      auto ch_par = pas::scenario::build_hosting_cluster(ch_par_cfg);
      ch_par->run_until(horizon);
      chaos_identical = *chaos_identical && clusters_identical(*ch_fast, *ch_par);
    }

    const pas::fault::FaultInjector& inj = *ch_fast->faults();
    std::size_t brownout_skipped = 0;
    std::size_t restarts = 0;
    std::size_t abandoned = 0;
    if (auto* mgr = ch_fast->manager()) {
      brownout_skipped = mgr->ticks_skipped();
      restarts = mgr->restarts_issued();
      abandoned = mgr->restarts_abandoned();
    }
    // Recovery-latency SLO stats (orphan → running again): p50/mean/max
    // over the run's VmRecovery records.
    const pas::cluster::RecoveryStats rec =
        pas::cluster::summarize_recoveries(ch_fast->recoveries());

    std::printf("\n  chaos (seed %llu): %zu fault(s) drawn — %zu crash(es), "
                "%zu abort(s), %zu degrade(s), %zu brownout(s)\n",
                static_cast<unsigned long long>(chaos_seed), inj.plan().events.size(),
                inj.plan().count(pas::fault::FaultKind::kHostCrash),
                inj.plan().count(pas::fault::FaultKind::kMigrationAbort),
                inj.plan().count(pas::fault::FaultKind::kLinkDegrade),
                inj.plan().count(pas::fault::FaultKind::kBrownout));
    std::printf("  fired: %zu crash(es), %zu abort(s), %zu degrade(s); "
                "%zu tick(s) browned out\n",
                inj.crashes_fired(), inj.aborts_fired(), inj.link_degrades_fired(),
                brownout_skipped);
    std::printf("  VMs: %zu/%zu survived, %zu lost; %zu recovery restart(s) "
                "(p50 %.1f s, mean %.1f s, max %.1f s), %zu abandoned\n",
                ch_fast->running_vm_count(), static_cast<std::size_t>(ch_fast->vm_count()),
                ch_fast->lost_vm_count(), rec.count, rec.p50.sec(), rec.mean_s,
                rec.max.sec(), abandoned);
    std::printf("  identity under faults (fast/slow%s): %s\n",
                threads > 1 ? "/parallel" : "",
                *chaos_identical ? "yes" : "NO — BUG");

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"chaos\": {\n"
                  "    \"seed\": %llu,\n"
                  "    \"faults_drawn\": %zu,\n"
                  "    \"crashes\": %zu,\n"
                  "    \"migration_aborts\": %zu,\n"
                  "    \"link_degrades\": %zu,\n"
                  "    \"brownout_ticks_skipped\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"vms_survived\": %zu,\n"
                  "    \"vms_lost\": %zu,\n"
                  "    \"recovery_restarts\": %zu,\n"
                  "    \"recovery_abandoned\": %zu,\n"
                  "    \"recovery_latency_p50_s\": %.6f,\n"
                  "    \"recovery_latency_mean_s\": %.3f,\n"
                  "    \"recovery_latency_max_s\": %.6f,\n"
                  "    \"restarts_issued\": %zu,\n"
                  "    \"chaos_identical\": %s\n  },\n",
                  static_cast<unsigned long long>(chaos_seed), inj.plan().events.size(),
                  inj.crashes_fired(), inj.aborts_fired(), inj.link_degrades_fired(),
                  brownout_skipped, static_cast<std::size_t>(ch_fast->vm_count()),
                  ch_fast->running_vm_count(), ch_fast->lost_vm_count(), rec.count,
                  abandoned, rec.p50.sec(), rec.mean_s, rec.max.sec(), restarts,
                  json_verdict(chaos_identical));
    chaos_json = buf;
  }

  // --- control plane: an external command stream over the same fleet ---
  // --commands=FILE parses a JSON task log (ctl::parse_tasks, strict), runs
  // the scenario under it fast-vs-slow (and at --threads if > 1), and holds
  // the control plane to the PR 5 trace contract: cluster state AND the
  // serialized result log must be byte-identical across engines, and the
  // record→replay→re-record loop must close byte-exactly — re-running the
  // same file reproduces the same result log, and re-injecting the result
  // log as a no-op annotation stream re-records itself verbatim. The
  // combined verdict is `control.replay_identical`, gated always (smoke
  // included) like every identity contract.
  const std::string commands_file = flags.get_or("commands", "");
  std::optional<bool> control_replay_identical;  // nullopt until the A/B runs
  std::string control_json;
  if (!commands_file.empty()) {
    std::ifstream cmd_in(commands_file, std::ios::binary);
    if (!cmd_in) {
      std::fprintf(stderr, "bench_cluster_consolidation: cannot open %s\n",
                   commands_file.c_str());
      return 2;
    }
    std::ostringstream cmd_text;
    cmd_text << cmd_in.rdbuf();
    const std::vector<pas::ctl::Task> tasks =
        pas::ctl::parse_tasks(cmd_text.str(), commands_file, {hosts, vms});

    auto cfg_ctl = base;
    cfg_ctl.commands = tasks;

    auto ct_slow_cfg = cfg_ctl;
    ct_slow_cfg.fast_path = false;
    auto ct_slow = pas::scenario::build_hosting_cluster(ct_slow_cfg);
    ct_slow->run_until(horizon);

    auto ct_fast = pas::scenario::build_hosting_cluster(cfg_ctl);
    ct_fast->run_until(horizon);
    const std::string result_log = ct_fast->control()->result_log();
    control_replay_identical = clusters_identical(*ct_slow, *ct_fast) &&
                               ct_slow->control()->result_log() == result_log;

    if (threads > 1) {
      auto ct_par_cfg = cfg_ctl;
      ct_par_cfg.threads = threads;
      auto ct_par = pas::scenario::build_hosting_cluster(ct_par_cfg);
      ct_par->run_until(horizon);
      control_replay_identical = *control_replay_identical &&
                                 clusters_identical(*ct_fast, *ct_par) &&
                                 ct_par->control()->result_log() == result_log;
    }

    // Re-record: the same file through a fresh cluster must reproduce the
    // result log byte-for-byte.
    {
      auto ct_re = pas::scenario::build_hosting_cluster(cfg_ctl);
      ct_re->run_until(horizon);
      control_replay_identical = *control_replay_identical &&
                                 ct_re->control()->result_log() == result_log;
    }

    // Close the loop: the result log re-injected as a no-op annotation
    // stream must re-record itself verbatim (annotation streams are a
    // fixed point of record→re-inject — ctl::results_to_annotations).
    {
      const std::string notes =
          pas::ctl::results_to_annotations(ct_fast->control()->results());
      auto cfg_notes = base;
      cfg_notes.commands = pas::ctl::parse_tasks(notes, "<annotations>", {hosts, vms});
      auto ct_notes = pas::scenario::build_hosting_cluster(cfg_notes);
      ct_notes->run_until(horizon);
      control_replay_identical =
          *control_replay_identical &&
          pas::ctl::results_to_annotations(ct_notes->control()->results()) == notes;
    }

    const pas::ctl::ControlPlane& plane = *ct_fast->control();
    std::printf("\n  control plane (%zu task(s) from %s):\n", tasks.size(),
                commands_file.c_str());
    std::printf("  fired %zu: %zu ok, %zu rejected, %zu superseded   "
                "replay identical: %s\n",
                plane.results().size(), plane.accepted(), plane.rejected(),
                plane.superseded(),
                *control_replay_identical ? "yes" : "NO — BUG");

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"tasks\": %zu,\n"
                  "    \"fired\": %zu,\n"
                  "    \"accepted\": %zu,\n"
                  "    \"rejected\": %zu,\n"
                  "    \"superseded\": %zu,\n"
                  "    \"replay_identical\": %s\n  },\n",
                  tasks.size(), plane.results().size(), plane.accepted(),
                  plane.rejected(), plane.superseded(),
                  json_verdict(control_replay_identical));
    control_json =
        "  \"control\": {\n    \"file\": \"" + json_escape(commands_file) + "\",\n" + buf;
  }

  // --- scale: the memoized planner at fleet size ---
  // Same scenario recipe at --scale-hosts x --scale-vms, run twice: the
  // default manager (live-set memo + unchanged-tick early-out) against the
  // replan_every_tick reference. Byte-identity between the two is the
  // whole contract — the memo is an optimization, never a behavior
  // change — so that gate is always on, smoke included. The planner-time floors/ceilings only bind
  // on full runs: a smoke horizon barely plans at all.
  const auto scale_hosts = static_cast<std::size_t>(flags.get_int("scale-hosts", 0));
  std::optional<bool> scale_identical;  // nullopt until the scale A/B runs
  double scale_rate = 0.0;
  double planner_speedup = 0.0;
  double memo_ns_per_tick = 0.0;
  std::string scale_json;
  if (scale_hosts > 0) {
    const auto scale_vms = static_cast<std::size_t>(
        flags.get_int("scale-vms", static_cast<long>(scale_hosts * 10)));
    const long scale_horizon_s =
        flags.get_int("scale-horizon", flags.has("smoke") ? 120 : 600);
    const SimTime scale_horizon = seconds(scale_horizon_s);

    auto cfg_scale = base;
    cfg_scale.hosts = scale_hosts;
    cfg_scale.vms = scale_vms;
    cfg_scale.horizon = scale_horizon;
    cfg_scale.fast_path = true;
    // The scale tier exercises the full engine: sparse partition on the
    // coordinating thread, pooled dispatch of the active remainder at
    // --threads. Both sides of the replan/memo A/B get the same
    // executors, so the planner comparison stays apples-to-apples.
    cfg_scale.threads = threads;

    std::printf("\n  scale tier: %zu hosts x %zu VMs, %ld simulated s\n",
                scale_hosts, scale_vms, scale_horizon_s);

    auto cfg_replan = cfg_scale;
    cfg_replan.manager.replan_every_tick = true;
    auto sc_replan = pas::scenario::build_hosting_cluster(cfg_replan);
    const double replan_wall = run_timed(*sc_replan, scale_horizon);

    auto sc_memo = pas::scenario::build_hosting_cluster(cfg_scale);
    const double memo_wall = run_timed(*sc_memo, scale_horizon);
    scale_rate = static_cast<double>(scale_horizon_s) / memo_wall;
    engine_stats = sc_memo->engine_stats();
    engine_grain = sc_memo->config().execution.pool_grain;

    scale_identical = clusters_identical(*sc_replan, *sc_memo);

    const pas::cluster::ClusterManager& memo_mgr = *sc_memo->manager();
    const pas::cluster::ClusterManager& replan_mgr = *sc_replan->manager();
    const pas::cluster::PlanStats& ps = memo_mgr.book_stats();
    // Amortized planner cost per manager tick: skipped ticks count — the
    // early-out is exactly what buys the amortization.
    const std::size_t memo_ticks = memo_mgr.planning_ticks() + memo_mgr.plans_skipped();
    memo_ns_per_tick = memo_ticks > 0
                           ? static_cast<double>(memo_mgr.planner_ns()) /
                                 static_cast<double>(memo_ticks)
                           : 0.0;
    planner_speedup = memo_mgr.planner_ns() > 0
                          ? static_cast<double>(replan_mgr.planner_ns()) /
                                static_cast<double>(memo_mgr.planner_ns())
                          : 0.0;

    std::printf("  replan every tick : %8.2f wall s   planner %8.1f ms over %zu tick(s)\n",
                replan_wall, static_cast<double>(replan_mgr.planner_ns()) * 1e-6,
                replan_mgr.planning_ticks());
    std::printf("  memoized          : %8.2f wall s   planner %8.1f ms over %zu tick(s), "
                "%zu skipped\n",
                memo_wall, static_cast<double>(memo_mgr.planner_ns()) * 1e-6,
                memo_mgr.planning_ticks(), memo_mgr.plans_skipped());
    std::printf("  planner speedup: %.2fx   %.0f ns/tick amortized   "
                "sim rate %.0f sim-s/wall-s\n",
                planner_speedup, memo_ns_per_tick, scale_rate);
    std::printf("  memo: %zu hit(s), %zu miss(es) placing %zu VM(s)\n",
                ps.cached_plans, ps.full_rebuilds, ps.vms_scanned);
    std::printf("  identical to replan every tick: %s\n",
                *scale_identical ? "yes" : "NO — BUG");

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": {\n"
                  "    \"hosts\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"simulated_seconds\": %ld,\n"
                  "    \"memo\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f,\n"
                  "      \"planner_ns\": %llu, \"planning_ticks\": %zu, "
                  "\"plans_skipped\": %zu,\n"
                  "      \"planner_ns_per_tick\": %.1f},\n"
                  "    \"replan\": {\"wall_seconds\": %.6f, \"planner_ns\": %llu, "
                  "\"planning_ticks\": %zu},\n"
                  "    \"planner_speedup\": %.3f,\n"
                  "    \"book\": {\"cached\": %zu, \"full_rebuilds\": %zu, "
                  "\"vms_scanned\": %zu},\n"
                  "    \"scale_identical\": %s\n  },\n",
                  scale_hosts, scale_vms, scale_horizon_s, memo_wall, scale_rate,
                  static_cast<unsigned long long>(memo_mgr.planner_ns()),
                  memo_mgr.planning_ticks(), memo_mgr.plans_skipped(), memo_ns_per_tick,
                  replan_wall, static_cast<unsigned long long>(replan_mgr.planner_ns()),
                  replan_mgr.planning_ticks(), planner_speedup, ps.cached_plans,
                  ps.full_rebuilds, ps.vms_scanned, json_verdict(scale_identical));
    scale_json = buf;
  }

  // --- federation: K shards under the global planner, per-link WAN moves ---
  // The same per-shard recipe, shard 0 skew-loaded, run slow-path vs
  // fast-path (and vs the parallel engine at --threads > 1). Identity is
  // the lifted cluster contract — every shard byte-identical AND the
  // cross-shard ledgers equal — gated always, smoke included. K = 1 must
  // additionally reproduce the bench's own single-cluster fast run
  // byte-exactly: a single-shard federation schedules no events at all.
  const auto fed_shards = static_cast<std::size_t>(flags.get_int("federation", 0));
  std::optional<bool> federation_identical;  // nullopt until the tier runs
  double fed_rate = 0.0;
  std::string federation_json;
  if (fed_shards > 0) {
    pas::scenario::FederationScenarioConfig fc;
    fc.base = base;
    fc.shards = fed_shards;

    auto fc_slow = fc;
    fc_slow.base.fast_path = false;
    auto fd_slow = pas::scenario::build_federation(fc_slow);
    const auto slow_start = std::chrono::steady_clock::now();
    fd_slow->run_until(horizon);
    const double fd_slow_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - slow_start)
            .count();

    auto fd_fast = pas::scenario::build_federation(fc);
    const auto fast_start = std::chrono::steady_clock::now();
    fd_fast->run_until(horizon);
    const double fd_fast_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - fast_start)
            .count();
    fed_rate = static_cast<double>(horizon_s) / fd_fast_wall;
    federation_identical = federations_identical(*fd_slow, *fd_fast);

    if (threads > 1) {
      auto fc_par = fc;
      fc_par.base.threads = threads;
      auto fd_par = pas::scenario::build_federation(fc_par);
      fd_par->run_until(horizon);
      federation_identical =
          *federation_identical && federations_identical(*fd_fast, *fd_par);
    }
    // K = 1 degradation: byte-exact to the single-cluster fast run above
    // (same config, same seed, no skew, no federation events).
    if (fed_shards == 1)
      federation_identical =
          *federation_identical && clusters_identical(*fast, fd_fast->shard(0));

    // Cross-shard census by link kind; the intra-rack tier is the shards'
    // own internal migrations.
    std::size_t wan_moves = 0;
    std::size_t cross_rack_moves = 0;
    for (const pas::fed::FedMigrationRecord& r : fd_fast->cross_shard_records()) {
      if (r.link == pas::fed::LinkKind::kWan)
        ++wan_moves;
      else
        ++cross_rack_moves;
    }
    std::size_t intra_moves = 0;
    std::size_t fed_vms = 0;
    for (pas::fed::ShardId s = 0; s < fd_fast->shard_count(); ++s) {
      intra_moves += fd_fast->shard(s).migrations().size();
      fed_vms += fd_fast->shard(s).vm_count();
    }

    std::printf("\n  federation tier: %zu shard(s) x %zu hosts, %zu VMs total\n",
                fed_shards, hosts, fed_vms);
    std::printf("  federated run     : %8.2f wall ms   %10.0f sim-s/wall-s   "
                "%.2fx vs slow\n",
                fd_fast_wall * 1e3, fed_rate, fd_slow_wall / fd_fast_wall);
    std::printf("  migrations: %zu intra-rack (shard-internal), %zu cross-rack, "
                "%zu wan   planner ticks %zu   identical: %s\n",
                intra_moves, cross_rack_moves, wan_moves, fd_fast->planner_ticks(),
                *federation_identical ? "yes" : "NO — BUG");

    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "  \"federation\": {\n"
                  "    \"shards\": %zu,\n"
                  "    \"vms\": %zu,\n"
                  "    \"planner_ticks\": %zu,\n"
                  "    \"cross_shard_migrations\": %zu,\n"
                  "    \"links\": {\"intra_rack\": %zu, \"cross_rack\": %zu, "
                  "\"wan\": %zu},\n"
                  "    \"wall_seconds\": %.6f,\n"
                  "    \"sim_per_wall\": %.1f,\n"
                  "    \"federation_identical\": %s\n  },\n",
                  fed_shards, fed_vms, fd_fast->planner_ticks(),
                  fd_fast->cross_shard_records().size(), intra_moves, cross_rack_moves,
                  wan_moves, fd_fast_wall, fed_rate, json_verdict(federation_identical));
    federation_json = buf;
  }

  // --- engine telemetry: the sparse driver's dispatch counters ---
  // active_fraction = dispatches / (dispatches + bulk_skips): how much of
  // the fleet the engine really had to step. On a consolidated scale fleet
  // it should sit well below 1 — --require-active-fraction turns that into
  // a CI ceiling (scale tier only; --smoke exempt, a short horizon barely
  // consolidates).
  std::string engine_json;
  {
    std::printf("\n  engine: %llu segment(s), %llu dispatch(es), %llu bulk skip(s), "
                "%llu catch-up(s), %llu refill(s) collapsed   active fraction %.3f   "
                "pool grain %zu\n",
                static_cast<unsigned long long>(engine_stats.segments),
                static_cast<unsigned long long>(engine_stats.dispatches),
                static_cast<unsigned long long>(engine_stats.bulk_skips),
                static_cast<unsigned long long>(engine_stats.catch_ups),
                static_cast<unsigned long long>(engine_stats.refills_collapsed),
                engine_stats.active_fraction(), engine_grain);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"engine\": {\n"
                  "    \"segments\": %llu,\n"
                  "    \"dispatches\": %llu,\n"
                  "    \"bulk_skips\": %llu,\n"
                  "    \"catch_ups\": %llu,\n"
                  "    \"refills_collapsed\": %llu,\n"
                  "    \"active_fraction\": %.6f,\n"
                  "    \"pool_grain\": %zu\n  },\n",
                  static_cast<unsigned long long>(engine_stats.segments),
                  static_cast<unsigned long long>(engine_stats.dispatches),
                  static_cast<unsigned long long>(engine_stats.bulk_skips),
                  static_cast<unsigned long long>(engine_stats.catch_ups),
                  static_cast<unsigned long long>(engine_stats.refills_collapsed),
                  engine_stats.active_fraction(), engine_grain);
    engine_json = buf;
  }

  // The parallel A/B only exists at --threads > 1: without it the whole
  // block is null — numbers from a run that never happened are as vacuous
  // as a defaulted identity verdict.
  std::string parallel_json;
  if (threads > 1) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"parallel\": {\"threads\": %zu, \"wall_seconds\": %.6f, "
                  "\"sim_per_wall\": %.1f},\n"
                  "  \"parallel_speedup\": %.3f,\n"
                  "  \"parallel_identical\": %s,\n",
                  threads, par_wall, par_rate, parallel_speedup,
                  json_verdict(parallel_identical));
    parallel_json = buf;
  } else {
    parallel_json =
        "  \"parallel\": null,\n"
        "  \"parallel_speedup\": null,\n"
        "  \"parallel_identical\": null,\n";
  }

  {
    std::ofstream js{out};
    if (!js) {
      std::fprintf(stderr, "bench_cluster_consolidation: cannot write %s\n", out.c_str());
      return 2;
    }
    char buf[4096];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"cluster_consolidation\",\n"
                  "%s"
                  "  \"scenario\": \"hosting_cluster_%zux%zu\",\n"
                  "  \"fleet\": \"%s\",\n"
                  "  \"hosts\": %zu,\n"
                  "  \"vms\": %zu,\n"
                  "  \"simulated_seconds\": %ld,\n"
                  "  \"slow\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"fast\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"traces_identical\": %s,\n",
                  pas::bench::machine_json().c_str(), hosts, vms, fleet.c_str(), hosts, vms,
                  horizon_s, slow_wall, slow_rate,
                  fast_wall, fast_rate, speedup, identical ? "true" : "false");
    js << buf;
    js << parallel_json;
    std::snprintf(buf, sizeof(buf),
                  "  \"watts_static_spread\": %.3f,\n"
                  "  \"watts_consolidation_only\": %.3f,\n"
                  "  \"watts_consolidation_pas\": %.3f,\n"
                  "  \"consolidation_saving_watts\": %.3f,\n"
                  "  \"dvfs_saving_watts\": %.3f,\n",
                  watts_spread, watts_consol, watts_pas, consolidation_saving,
                  dvfs_saving);
    js << buf;
    // The optional blocks embed unbounded strings (class names, the
    // --trace path): streamed, not snprintf'd, so they cannot truncate.
    js << hetero_json << trace_json << chaos_json << control_json << scale_json
       << federation_json << engine_json;
    std::snprintf(buf, sizeof(buf),
                  "  \"migrations\": %zu,\n"
                  "  \"hosts_on_final\": %zu\n"
                  "}\n",
                  fast->migrations().size(), fast->powered_on_count());
    js << buf;
    std::printf("  written to %s\n", out.c_str());
  }

  // Identity gates. The optional verdicts fail only on an EXECUTED
  // comparison that came back false; a nullopt (the tier never ran) is
  // skipped — failing it would be as wrong as the old vacuous pass.
  if (!identical) {
    std::printf("  FAIL: fast path diverged from the reference loop\n");
    return 1;
  }
  if (parallel_identical && !*parallel_identical) {
    std::printf("  FAIL: parallel engine diverged from the serial engine\n");
    return 1;
  }
  if (replay_identical && !*replay_identical) {
    std::printf("  FAIL: trace replay diverged between engine variants\n");
    return 1;
  }
  if (chaos_identical && !*chaos_identical) {
    std::printf("  FAIL: engines diverged under injected faults\n");
    return 1;
  }
  if (control_replay_identical && !*control_replay_identical) {
    std::printf("  FAIL: control-plane replay diverged (state, result log, or "
                "annotation round trip)\n");
    return 1;
  }
  if (scale_identical && !*scale_identical) {
    std::printf("  FAIL: memoized planner diverged from the replan-every-tick reference\n");
    return 1;
  }
  if (federation_identical && !*federation_identical) {
    std::printf("  FAIL: federated shards or cross-shard ledgers diverged\n");
    return 1;
  }
  const double fed_floor = flags.get_double("require-federation-rate", 0.0);
  if (fed_floor > 0.0 && !flags.has("smoke")) {
    if (fed_shards == 0) {
      std::printf("  FAIL: --require-federation-rate needs --federation > 0\n");
      return 1;
    }
    if (fed_rate < fed_floor) {
      std::printf("  FAIL: federated rate %.0f sim-s/wall-s below the %.0f floor\n",
                  fed_rate, fed_floor);
      return 1;
    }
  }
  const double scale_floor = flags.get_double("require-scale-rate", 0.0);
  if (scale_floor > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-scale-rate needs --scale-hosts > 0\n");
      return 1;
    }
    if (scale_rate < scale_floor) {
      std::printf("  FAIL: scale rate %.0f sim-s/wall-s below the %.0f floor\n",
                  scale_rate, scale_floor);
      return 1;
    }
  }
  const double planner_floor = flags.get_double("require-planner-speedup", 0.0);
  if (planner_floor > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-planner-speedup needs --scale-hosts > 0\n");
      return 1;
    }
    if (planner_speedup < planner_floor) {
      std::printf("  FAIL: planner speedup %.2fx below the %.2fx floor\n",
                  planner_speedup, planner_floor);
      return 1;
    }
  }
  const double ns_ceiling = flags.get_double("require-scale-planner-ns", 0.0);
  if (ns_ceiling > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-scale-planner-ns needs --scale-hosts > 0\n");
      return 1;
    }
    if (memo_ns_per_tick > ns_ceiling) {
      std::printf("  FAIL: planner %.0f ns/tick above the %.0f ceiling\n",
                  memo_ns_per_tick, ns_ceiling);
      return 1;
    }
  }
  const double af_ceiling = flags.get_double("require-active-fraction", 0.0);
  if (af_ceiling > 0.0 && !flags.has("smoke")) {
    if (scale_hosts == 0) {
      std::printf("  FAIL: --require-active-fraction needs --scale-hosts > 0\n");
      return 1;
    }
    if (engine_stats.active_fraction() > af_ceiling) {
      std::printf("  FAIL: engine active fraction %.3f above the %.3f ceiling\n",
                  engine_stats.active_fraction(), af_ceiling);
      return 1;
    }
  }
  const double par_floor = flags.get_double("require-parallel-speedup", 0.0);
  if (par_floor > 0.0 && !flags.has("smoke")) {
    if (threads <= 1) {
      std::printf("  FAIL: --require-parallel-speedup needs --threads > 1\n");
      return 1;
    }
    if (parallel_speedup < par_floor) {
      std::printf("  FAIL: parallel speedup %.2fx below the %.2fx floor\n",
                  parallel_speedup, par_floor);
      return 1;
    }
  }
  if (dvfs_saving <= 0.0) {
    std::printf("  FAIL: DVFS reclaimed nothing on top of consolidation\n");
    return 1;
  }
  if (flags.has("require-hetero-saving") && !flags.has("smoke")) {
    if (!mixed) {
      std::printf("  FAIL: --require-hetero-saving needs --fleet=mixed\n");
      return 1;
    }
    if (hetero_saving <= 0.0) {
      std::printf("  FAIL: efficient-first packing saved nothing (%.2f W) vs naive order\n",
                  hetero_saving);
      return 1;
    }
  }
  const double floor = flags.get_double("require-rate", 0.0);
  if (floor > 0.0 && fast_rate < floor) {
    std::printf("  FAIL: fast rate %.0f sim-s/wall-s below the %.0f floor\n", fast_rate,
                floor);
    return 1;
  }
  return 0;
}
