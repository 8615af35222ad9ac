#include "check/divergence.hpp"

#include <charconv>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "control/control_plane.hpp"
#include "federation/federation.hpp"
#include "hypervisor/host.hpp"
#include "metrics/trace_recorder.hpp"

namespace pas::check {
namespace {

std::string show(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;  // shortest round trip
  return {buf, end};
}
std::string show(common::SimTime t) { return std::to_string(t.us()) + " us"; }
std::string show(common::Work w) { return show(w.mfus()) + " mf-us"; }
std::string show(bool b) { return b ? "true" : "false"; }
std::string show(const std::string& s) { return std::string{"\""}.append(s).append("\""); }
template <class T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
std::string show(T v) {
  return std::to_string(v);
}
template <class E>
  requires std::is_enum_v<E>
std::string show(E e) {
  return std::to_string(static_cast<long long>(e));
}

/// First-mismatch recorder. `same` costs one comparison while everything
/// matches; only the first miss builds its message (path, field, both
/// values), and every check after it short-circuits to false — so a chain
/// `d.same(..) && d.same(..)` stops at the first divergence.
class Diff {
 public:
  static constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

  /// Pushes one path component (`host 3`, `trace`) for the checks made in
  /// its lifetime.
  class Scope {
   public:
    Scope(Diff& d, const char* name, std::size_t index = kNoIndex) : d_(d) {
      d_.path_.emplace_back(name, index);
    }
    ~Scope() { d_.path_.pop_back(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Diff& d_;
  };

  [[nodiscard]] bool ok() const { return msg_.empty(); }
  [[nodiscard]] std::string take() { return std::move(msg_); }

  template <class T>
  bool same(const char* field, const T& a, const T& b) {
    if (!ok()) return false;
    if (a == b) return true;
    fail(field, show(a), show(b));
    return false;
  }

 private:
  void fail(const char* field, const std::string& a, const std::string& b) {
    for (const auto& [name, index] : path_) {
      msg_.append(name).append(" ");
      if (index != kNoIndex) msg_.append(std::to_string(index)).append(" ");
    }
    msg_.append(field).append(": ").append(a).append(" vs ").append(b);
  }

  std::string msg_;
  std::vector<std::pair<const char*, std::size_t>> path_;
};

void compare(Diff& d, const metrics::TraceRecorder& a, const metrics::TraceRecorder& b) {
  if (!(d.same("row count", a.size(), b.size()) &&
        d.same("vm columns", a.vm_count(), b.vm_count())))
    return;
  for (std::size_t i = 0; i < a.size() && d.ok(); ++i) {
    const Diff::Scope row{d, "row", i};
    const auto ra = a.sample(i);
    const auto rb = b.sample(i);
    (void)(d.same("t", ra.t, rb.t) && d.same("freq_mhz", ra.freq_mhz, rb.freq_mhz) &&
           d.same("global_pct", ra.global_load_pct, rb.global_load_pct) &&
           d.same("absolute_pct", ra.absolute_load_pct, rb.absolute_load_pct));
    for (std::size_t v = 0; v < a.vm_count() && d.ok(); ++v) {
      const Diff::Scope vm{d, "vm", v};
      (void)(d.same("global_pct", ra.vm_global_pct[v], rb.vm_global_pct[v]) &&
             d.same("absolute_pct", ra.vm_absolute_pct[v], rb.vm_absolute_pct[v]) &&
             d.same("credit_pct", ra.vm_credit_pct[v], rb.vm_credit_pct[v]) &&
             d.same("saturated", ra.vm_saturated[v], rb.vm_saturated[v]));
    }
  }
}

void compare(Diff& d, const hv::Host& a, const hv::Host& b) {
  if (!(d.same("now", a.now(), b.now()) && d.same("vm count", a.vm_count(), b.vm_count())))
    return;
  {
    const Diff::Scope trace{d, "trace"};
    compare(d, a.trace(), b.trace());
  }
  (void)(d.same("idle_time", a.idle_time(), b.idle_time()) &&
         d.same("freq transitions", a.cpufreq().transition_count(),
                b.cpufreq().transition_count()));
  for (common::VmId v = 0; v < a.vm_count() && d.ok(); ++v) {
    const Diff::Scope vm{d, "vm", v};
    (void)(d.same("total_busy", a.vm(v).total_busy, b.vm(v).total_busy) &&
           d.same("total_work", a.vm(v).total_work, b.vm(v).total_work) &&
           d.same("window_wanting", a.vm(v).window_wanting, b.vm(v).window_wanting) &&
           d.same("saturated_last_window", a.vm_saturated_last_window(v),
                  b.vm_saturated_last_window(v)));
  }
  (void)d.same("energy_joules", a.energy().joules(), b.energy().joules());
}

void compare(Diff& d, const cluster::MigrationRecord& a, const cluster::MigrationRecord& b) {
  (void)(d.same("vm", a.vm, b.vm) && d.same("from", a.from, b.from) &&
         d.same("to", a.to, b.to) && d.same("start", a.start, b.start) &&
         d.same("stop", a.stop, b.stop) && d.same("end", a.end, b.end) &&
         d.same("rounds", a.rounds, b.rounds) &&
         d.same("transferred_mb", a.transferred_mb, b.transferred_mb) &&
         d.same("downtime", a.downtime, b.downtime) && d.same("outcome", a.outcome, b.outcome) &&
         d.same("credit_exported", a.credit_exported, b.credit_exported) &&
         d.same("credit_imported", a.credit_imported, b.credit_imported));
}

/// Result logs compare line by line, so a divergence names the first task
/// result that differs rather than dumping both logs.
void compare_result_logs(Diff& d, const std::string& a, const std::string& b) {
  std::istringstream la{a};
  std::istringstream lb{b};
  std::string ra;
  std::string rb;
  for (std::size_t line = 0; d.ok(); ++line) {
    const bool more_a = static_cast<bool>(std::getline(la, ra));
    const bool more_b = static_cast<bool>(std::getline(lb, rb));
    if (!more_a && !more_b) return;
    const Diff::Scope at{d, "line", line};
    (void)d.same("text", more_a ? ra : std::string{"<end>"}, more_b ? rb : std::string{"<end>"});
  }
}

void compare(Diff& d, const cluster::Cluster& a, const cluster::Cluster& b) {
  if (!(d.same("host count", a.host_count(), b.host_count()) &&
        d.same("vm count", a.vm_count(), b.vm_count())))
    return;
  for (cluster::HostId h = 0; h < a.host_count() && d.ok(); ++h) {
    const Diff::Scope host{d, "host", h};
    compare(d, a.host(h), b.host(h));
    (void)(d.same("metered_joules", a.host_energy_joules(h), b.host_energy_joules(h)) &&
           d.same("powered_on", a.powered_on(h), b.powered_on(h)) &&
           d.same("crashed", a.crashed(h), b.crashed(h)));
  }

  const auto& ma = a.migrations();
  const auto& mb = b.migrations();
  if (!d.same("migration count", ma.size(), mb.size())) return;
  for (std::size_t i = 0; i < ma.size() && d.ok(); ++i) {
    const Diff::Scope migration{d, "migration", i};
    compare(d, ma[i], mb[i]);
  }

  const auto& ra = a.recoveries();
  const auto& rb = b.recoveries();
  if (!d.same("recovery count", ra.size(), rb.size())) return;
  for (std::size_t i = 0; i < ra.size() && d.ok(); ++i) {
    const Diff::Scope recovery{d, "recovery", i};
    (void)(d.same("vm", ra[i].vm, rb[i].vm) &&
           d.same("crashed_at", ra[i].crashed_at, rb[i].crashed_at) &&
           d.same("restarted_at", ra[i].restarted_at, rb[i].restarted_at));
  }

  for (cluster::GlobalVmId g = 0; g < a.vm_count() && d.ok(); ++g) {
    const Diff::Scope vm{d, "vm", g};
    const cluster::ClusterVmStats sa = a.vm_stats(g);
    const cluster::ClusterVmStats sb = b.vm_stats(g);
    (void)(d.same("state", a.vm_state(g), b.vm_state(g)) &&
           d.same("residence", a.residence(g), b.residence(g)) &&
           d.same("sla_violation", a.sla().violation_time(g), b.sla().violation_time(g)) &&
           d.same("sla_observed", a.sla().observed_time(g), b.sla().observed_time(g)) &&
           d.same("busy", sa.total_busy, sb.total_busy) &&
           d.same("work", sa.total_work, sb.total_work) &&
           d.same("downtime", sa.downtime, sb.downtime) &&
           d.same("migrations", sa.migrations, sb.migrations));
  }
  (void)d.same("energy_joules", a.energy_joules(), b.energy_joules());

  // Only runs that both carry a control plane have logs to compare: a
  // command stream and the same commands hand-scheduled as raw hooks must
  // still agree on everything above.
  if (a.control() == nullptr || b.control() == nullptr) return;
  const Diff::Scope log{d, "control result log"};
  compare_result_logs(d, a.control()->result_log(), b.control()->result_log());
}

void compare(Diff& d, const fed::Federation& a, const fed::Federation& b) {
  if (!d.same("shard count", a.shard_count(), b.shard_count())) return;
  const auto& ra = a.cross_shard_records();
  const auto& rb = b.cross_shard_records();
  if (!d.same("cross-shard record count", ra.size(), rb.size())) return;
  for (std::size_t i = 0; i < ra.size() && d.ok(); ++i) {
    const Diff::Scope record{d, "cross-shard record", i};
    (void)(d.same("vm", ra[i].vm, rb[i].vm) &&
           d.same("from_shard", ra[i].from_shard, rb[i].from_shard) &&
           d.same("to_shard", ra[i].to_shard, rb[i].to_shard) &&
           d.same("from_host", ra[i].from_host, rb[i].from_host) &&
           d.same("to_host", ra[i].to_host, rb[i].to_host) &&
           d.same("src_vm", ra[i].src_vm, rb[i].src_vm) &&
           d.same("dst_vm", ra[i].dst_vm, rb[i].dst_vm));
    compare(d, ra[i].record, rb[i].record);
  }
  if (!(d.same("planner_ticks", a.planner_ticks(), b.planner_ticks()) &&
        d.same("moves_issued", a.moves_issued(), b.moves_issued()) &&
        d.same("in_flight", a.cross_shard_in_flight(), b.cross_shard_in_flight()) &&
        d.same("vm count", a.vm_count(), b.vm_count())))
    return;
  for (fed::FedVmId v = 0; v < a.vm_count() && d.ok(); ++v) {
    const Diff::Scope vm{d, "vm", v};
    (void)(d.same("shard", a.locate(v).shard, b.locate(v).shard) &&
           d.same("shard_vm", a.locate(v).vm, b.locate(v).vm));
  }
  for (fed::ShardId s = 0; s < a.shard_count() && d.ok(); ++s) {
    const Diff::Scope shard{d, "shard", s};
    compare(d, a.shard(s), b.shard(s));
  }
}

template <class T>
std::string run(const T& a, const T& b) {
  Diff d;
  compare(d, a, b);
  return d.take();
}

}  // namespace

std::string first_divergence(const metrics::TraceRecorder& a, const metrics::TraceRecorder& b) {
  return run(a, b);
}
std::string first_divergence(const hv::Host& a, const hv::Host& b) { return run(a, b); }
std::string first_divergence(const cluster::Cluster& a, const cluster::Cluster& b) {
  return run(a, b);
}
std::string first_divergence(const fed::Federation& a, const fed::Federation& b) {
  return run(a, b);
}

}  // namespace pas::check
