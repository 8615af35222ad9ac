// Pure helpers of the repository benchmark: sample statistics, fleet-wide
// SLA aggregation, the metric tables and their naming rules, the seeded
// operator-stream generator and the digest of simulated outputs. Kept
// apart from the runner so tests/helpers_test.cpp can pin each one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "metrics/sla_checker.hpp"

namespace perfbench {

// --- sample statistics -----------------------------------------------------

/// Middle value (mean of the middle pair for an even count), as Python's
/// statistics.median. Throws on an empty sample.
[[nodiscard]] double median(std::vector<double> xs);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// The three cut points of statistics.quantiles(xs, n=4) with Python's
/// default "exclusive" method, so the spread this benchmark reports is the
/// spread a Python check of the same values computes. A single sample
/// yields that sample for all three. Throws on an empty sample.
[[nodiscard]] Quartiles quartiles(std::vector<double> xs);

/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that still has at
/// least ten of `n` samples beyond it (rank-wise: n − ceil(p·n) ≥ 10), as a
/// fraction; nullopt when even the median has fewer than ten beyond.
[[nodiscard]] std::optional<double> tail_percentile(std::size_t n);

// --- fleet-wide SLA --------------------------------------------------------

/// Violated and saturated VM-time summed over every VM of every cluster.
/// The fleet figure is violated time over saturated time — NOT a mean of
/// per-VM fractions, which would weigh a VM saturated for one window like
/// one saturated all day.
struct SlaTotals {
  std::int64_t violated_us = 0;
  std::int64_t saturated_us = 0;

  /// Adds VMs [0, vms) of one cluster's checker.
  void add(const pas::metrics::SlaChecker& sla, std::size_t vms);
  /// Violated share of saturated VM-time in percent; 0 when nothing saturated.
  [[nodiscard]] double violation_pct() const;
};

// --- metric tables ---------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "higher" / "lower"; empty for per-layer metrics
};

/// Printed with --trace 0; BENCHMARK.json "end_to_end" lists the same names.
[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
/// Printed with --trace 1; BENCHMARK.json "per_layer" lists the same names.
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

inline constexpr std::size_t kMaxEndToEnd = 16;
inline constexpr std::size_t kMaxPerLayer = 128;

/// 1–64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// 1–16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_metric_unit(std::string_view unit);

// --- operator stream -------------------------------------------------------

/// A seeded day of operator traffic in the ctl::parse_tasks JSON format:
/// `count` tasks at non-decreasing times in [3 %, 95 %] of `horizon`, mixing
/// migrations, stop/start pairs (every stop is followed by a start of the
/// same VM), crash drills with later restart attempts, and link-bandwidth
/// changes. Ids and hosts are in range for (hosts, vms); whether a task is
/// accepted still depends on cluster state when it fires. A pure function
/// of its arguments.
[[nodiscard]] std::string generate_commands(std::uint64_t seed, std::size_t hosts,
                                            std::size_t vms, pas::common::SimTime horizon,
                                            std::size_t count);

// --- digest ----------------------------------------------------------------

/// FNV-1a 64 over the bytes of what is fed to it: two runs whose simulated
/// statistics are byte-identical have equal digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(std::int64_t v) { bytes(&v, sizeof v); }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void add(pas::common::SimTime t) { add(t.us()); }

  [[nodiscard]] std::uint64_t value() const { return h_; }
  /// 16 lower-case hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
