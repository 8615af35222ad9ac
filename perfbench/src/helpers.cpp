#include "helpers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/random.hpp"

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("quartiles: empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t ld = xs.size();
  if (ld == 1) return {xs[0], xs[0], xs[0]};
  // statistics.quantiles(method="exclusive"): m = len + 1, cut i at i·m/n
  // with the integer part clamped into [1, len − 1].
  constexpr std::size_t n = 4;
  const std::size_t m = ld + 1;
  std::array<double, 3> cut{};
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = std::clamp<std::size_t>(i * m / n, 1, ld - 1);
    const auto delta = static_cast<double>(static_cast<std::int64_t>(i * m) -
                                           static_cast<std::int64_t>(j * n));
    cut[i - 1] = (xs[j - 1] * (static_cast<double>(n) - delta) + xs[j] * delta) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

std::optional<double> tail_percentile(std::size_t n) {
  constexpr std::array<double, 6> kLadder{0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  for (const double p : kLadder) {
    const auto at = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n >= at && n - at >= 10) return p;
  }
  return std::nullopt;
}

void SlaTotals::add(const pas::metrics::SlaChecker& sla, std::size_t vms) {
  for (std::size_t v = 0; v < vms; ++v) {
    const auto id = static_cast<pas::common::VmId>(v);
    violated_us += sla.violation_time(id).us();
    saturated_us += sla.observed_time(id).us();
  }
}

double SlaTotals::violation_pct() const {
  return saturated_us > 0
             ? 100.0 * static_cast<double>(violated_us) / static_cast<double>(saturated_us)
             : 0.0;
}

namespace {

constexpr std::array<MetricDef, 6> kEndToEnd{{
    {"sim_rate", "sim-s/wall-s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"fleet_mean_w", "W", "lower"},
    {"sla_violation_pct", "%", "lower"},
    {"vms_kept_pct", "%", "higher"},
}};

constexpr std::array<MetricDef, 39> kPerLayer{{
    {"cluster.segments", "count", ""},
    {"cluster.dispatches", "count", ""},
    {"cluster.bulk_skips", "count", ""},
    {"cluster.active_fraction", "ratio", ""},
    {"cluster.restarts_issued", "count", ""},
    {"cluster.restarts_abandoned", "count", ""},
    {"cluster.recovery_p50_s", "s", ""},
    {"hypervisor.step_ms", "ms", ""},
    {"hypervisor.us_per_host_segment", "us", ""},
    {"workload.calls", "count", ""},
    {"workload.self_ms", "ms", ""},
    {"consolidation.planner_ms", "ms", ""},
    {"consolidation.planning_ticks", "count", ""},
    {"consolidation.plans_skipped", "count", ""},
    {"consolidation.cached_plans", "count", ""},
    {"consolidation.delta_plans", "count", ""},
    {"consolidation.full_rebuilds", "count", ""},
    {"consolidation.vms_scanned", "count", ""},
    {"consolidation.ffd_ms", "ms", ""},
    {"migration.started", "count", ""},
    {"migration.completed", "count", ""},
    {"migration.useful_ratio", "ratio", ""},
    {"migration.rounds", "count", ""},
    {"migration.transferred_gb", "GB", ""},
    {"migration.downtime_s", "s", ""},
    {"fault.crashes_fired", "count", ""},
    {"fault.aborts_fired", "count", ""},
    {"fault.link_degrades_fired", "count", ""},
    {"control.tasks_fired", "count", ""},
    {"control.accepted", "count", ""},
    {"control.rejected", "count", ""},
    {"control.superseded", "count", ""},
    {"control.accept_ratio", "ratio", ""},
    {"federation.planner_ticks", "count", ""},
    {"federation.moves_issued", "count", ""},
    {"federation.cross_shard_done", "count", ""},
    {"federation.useful_ratio", "ratio", ""},
    {"metrics.trace_rows", "count", ""},
    {"bench.trace_overhead_pct", "%", ""},
}};

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

bool valid_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
  });
}

std::string generate_commands(std::uint64_t seed, std::size_t hosts, std::size_t vms,
                              pas::common::SimTime horizon, std::size_t count) {
  if (hosts < 3 || vms < 1) throw std::invalid_argument("generate_commands: fleet too small");
  pas::common::Rng rng = pas::common::substream(seed, "perfbench-ctl");
  const double horizon_s = horizon.sec();

  std::vector<double> times(count);
  for (double& t : times) t = rng.uniform(0.03, 0.95) * horizon_s;
  std::sort(times.begin(), times.end());

  std::vector<std::uint64_t> stopped;  // VMs awaiting their start_vm
  std::size_t drills = 0;
  const std::size_t max_drills = std::max<std::size_t>(1, hosts / 100);
  std::string out = "[\n";
  char buf[192];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t id = i + 1;
    const double at = times[i];
    const std::uint64_t vm = rng.next_below(vms);
    const std::uint64_t host = rng.next_below(hosts);
    const double roll = rng.next_double();
    // A stop is issued only while a later task can still close it, and
    // once the tasks left only just cover the open pairs each one closes a
    // pair, so the generator leaves no VM stopped.
    const std::size_t left = count - i;  // this task included
    if (!stopped.empty() && (left <= stopped.size() || roll < 0.2)) {
      std::snprintf(buf, sizeof buf,
                    R"({"id": %zu, "at_s": %.6f, "task": "start_vm", "vm": %llu, "host": %llu})",
                    id, at, static_cast<unsigned long long>(stopped.front()),
                    static_cast<unsigned long long>(host));
      stopped.erase(stopped.begin());
    } else if (roll < 0.5) {
      std::snprintf(buf, sizeof buf,
                    R"({"id": %zu, "at_s": %.6f, "task": "migrate", "vm": %llu, "host": %llu})",
                    id, at, static_cast<unsigned long long>(vm),
                    static_cast<unsigned long long>(host));
    } else if (roll < 0.7 && left > stopped.size() + 1) {
      std::snprintf(buf, sizeof buf, R"({"id": %zu, "at_s": %.6f, "task": "stop_vm", "vm": %llu})",
                    id, at, static_cast<unsigned long long>(vm));
      stopped.push_back(vm);
    } else if (roll < 0.76 && drills < max_drills) {
      std::snprintf(buf, sizeof buf,
                    R"({"id": %zu, "at_s": %.6f, "task": "crash_host", "host": %llu, )"
                    R"("restart": %s})",
                    id, at, static_cast<unsigned long long>(host),
                    rng.chance(0.75) ? "true" : "false");
      ++drills;
    } else if (roll < 0.84 && drills > 0) {
      std::snprintf(buf, sizeof buf,
                    R"({"id": %zu, "at_s": %.6f, "task": "restart_vm", "vm": %llu, "host": %llu})",
                    id, at, static_cast<unsigned long long>(vm),
                    static_cast<unsigned long long>(host));
    } else {
      std::snprintf(buf, sizeof buf,
                    R"({"id": %zu, "at_s": %.6f, "task": "set_link_bandwidth", "mb_per_s": %.3f})",
                    id, at, rng.uniform(40.0, 160.0));
    }
    out += buf;
    out += i + 1 < count ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
