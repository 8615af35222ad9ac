// The differential oracle: one comparator for every byte-identity contract
// the simulator makes — fast ≡ slow host paths, parallel ≡ serial cluster
// engines, memoized ≡ replanned manager, federation K = 1 ≡ bare cluster.
// Tests assert `first_divergence(a, b) == ""`; the benches turn it into
// their `*_identical` verdicts and print the message when one fails.
//
// Each overload walks its observables in the fixed order documented below
// and stops at the first mismatch, returning a message that names it:
//
//   host 3 trace row 17 vm 2 absolute_pct: 12.5 vs 12.375
//
// Values compare with `==` (doubles included: every compared quantity is
// produced by the same arithmetic in the same order, so "identical" means
// bit-equal up to the sign of zero). Shape mismatches — host, VM, row or
// record counts — are reported as divergences before anything is indexed.
#pragma once

#include <string>

namespace pas::metrics {
class TraceRecorder;
}
namespace pas::hv {
class Host;
}
namespace pas::cluster {
class Cluster;
}
namespace pas::fed {
class Federation;
}

namespace pas::check {

/// Trace order: `row count`, `vm columns`, then per `row i`: t, freq_mhz,
/// global_pct, absolute_pct, and per `vm v`: global_pct, absolute_pct,
/// credit_pct, saturated.
[[nodiscard]] std::string first_divergence(const metrics::TraceRecorder& a,
                                           const metrics::TraceRecorder& b);

/// Host order: now, vm count, `trace ...` (the trace order above),
/// idle_time, freq transitions, then per `vm v`: total_busy, total_work,
/// window_wanting, saturated_last_window; finally energy_joules.
[[nodiscard]] std::string first_divergence(const hv::Host& a, const hv::Host& b);

/// Cluster order: host count, vm count; per `host h`: the host order above,
/// then metered_joules (VOVO-gated), powered_on, crashed; migration count
/// and per `migration i`: vm, from, to, start, stop, end, rounds,
/// transferred_mb, downtime, outcome, credit_exported, credit_imported;
/// recovery count and per `recovery i`: vm, crashed_at, restarted_at; per
/// `vm g`: state, residence, sla_violation, sla_observed, busy, work,
/// downtime, migrations; energy_joules; finally, when both runs carry a
/// control plane, its result log by `control result log line n`.
[[nodiscard]] std::string first_divergence(const cluster::Cluster& a, const cluster::Cluster& b);

/// Federation order: shard count; the cross-shard ledger — record count
/// and per `cross-shard record i`: vm, from_shard, to_shard, from_host,
/// to_host, src_vm, dst_vm, link, then the migration fields above; then
/// planner_ticks, moves_issued, in_flight; the registry — vm count and per
/// `vm v`: shard, shard_vm; finally each `shard s` in the cluster order.
/// The ledger comes first: a flight that went differently is the cause,
/// the shard traces it perturbs are the symptom.
[[nodiscard]] std::string first_divergence(const fed::Federation& a, const fed::Federation& b);

}  // namespace pas::check
