// Core-throughput bench: simulated-seconds-per-wall-second on a 32-VM
// hosting-center scenario, with the event-driven fast path A/B'd against
// the reference slow-stepped loop.
//
// The scenario models a hosting center at moderate load: a few dozen
// tenants whose web servers, batch jobs and thrashing loads come and go
// across the day while most capacity sits reserved-but-idle — exactly the
// long-horizon regime the dynamic-reconfiguration studies need. The bench
// asserts the fast path produces byte-identical traces, then records both
// rates and the speedup in BENCH_core.json.
//
// Usage: bench_core_throughput [--smoke] [--horizon=SECONDS]
//                              [--out=BENCH_core.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"
#include "machine.hpp"

namespace {

using pas::common::mf_seconds;
using pas::common::seconds;
using pas::common::SimTime;

constexpr std::size_t kVmCount = 32;

std::unique_ptr<pas::hv::Host> build_host(bool fast_path, SimTime horizon) {
  pas::hv::HostConfig hc;
  hc.trace_stride = seconds(10);
  hc.event_driven_fast_path = fast_path;
  auto host = std::make_unique<pas::hv::Host>(
      hc, std::make_unique<pas::sched::CreditScheduler>());
  host->set_governor(pas::gov::make_governor("stable-ondemand"));

  const auto horizon_s = horizon.us() / 1'000'000;
  // A day-cycle hosting center: the business "day" (first half of the
  // horizon) sees staggered web traffic, thrashing loads and batch jobs
  // contending under their caps; the "night" (second half) is the
  // reserved-but-idle regime where a long-horizon study spends most of its
  // simulated time.
  //
  // 8 web tenants (2 % credit each): request pulses over 1/8 of the day.
  for (int i = 0; i < 8; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "web" + std::to_string(i);
    cfg.credit = 2.0;
    pas::wl::WebAppConfig wc;
    wc.queue_capacity = 500;
    wc.seed = 100 + static_cast<std::uint64_t>(i);
    const double rate = pas::wl::WebApp::rate_for_demand(cfg.credit, wc.request_cost);
    const auto from = seconds(horizon_s * i / 32);
    const auto until = seconds(horizon_s * i / 32 + horizon_s / 8);
    host->add_vm(cfg, std::make_unique<pas::wl::WebApp>(
                          pas::wl::LoadProfile::pulse(from, until, rate), wc));
  }
  // 6 thrashing tenants (3 % credit): gated CPU hogs — the all-over-cap
  // idle path while the gate is open.
  for (int i = 0; i < 6; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "hog" + std::to_string(i);
    cfg.credit = 3.0;
    const auto from = seconds(horizon_s / 8 + horizon_s * i / 32);
    const auto until = seconds(horizon_s / 8 + horizon_s * i / 32 + horizon_s / 12);
    host->add_vm(cfg, std::make_unique<pas::wl::GatedBusyLoop>(
                          pas::wl::LoadProfile::pulse(from, until, 1.0)));
  }
  // 6 batch tenants (5 % credit): short pi-app jobs with staggered starts
  // through the day.
  for (int i = 0; i < 6; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "batch" + std::to_string(i);
    cfg.credit = 5.0;
    host->add_vm(cfg, std::make_unique<pas::wl::PiApp>(
                          mf_seconds(static_cast<double>(horizon_s) / 400.0),
                          seconds(horizon_s * i / 16)));
  }
  // 12 reserved-but-idle tenants.
  for (int i = 0; i < 12; ++i) {
    pas::hv::VmConfig cfg;
    cfg.name = "idle" + std::to_string(i);
    cfg.credit = 2.0;
    host->add_vm(cfg, std::make_unique<pas::wl::IdleGuest>());
  }
  return host;
}

bool traces_identical(const pas::hv::Host& a, const pas::hv::Host& b) {
  const auto sa = a.trace().samples();
  const auto sb = b.trace().samples();
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
  if (a.idle_time() != b.idle_time()) return false;
  // Energy integrates per-P-state integer time: exact across loops.
  if (a.energy().joules() != b.energy().joules()) return false;
  for (pas::common::VmId v = 0; v < a.vm_count(); ++v) {
    if (a.vm(v).total_busy != b.vm(v).total_busy ||
        a.vm(v).total_work != b.vm(v).total_work)
      return false;
  }
  return true;
}

double run_timed(pas::hv::Host& host, SimTime horizon) {
  const auto start = std::chrono::steady_clock::now();
  host.run_until(horizon);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const pas::common::Flags flags{argc, argv};
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 32) {  // shorter horizons make the staggered windows empty
    std::fprintf(stderr, "bench_core_throughput: --horizon must be >= 32 (got %ld)\n",
                 horizon_s);
    return 2;
  }
  const std::string out = flags.get_or("out", "BENCH_core.json");
  const SimTime horizon = seconds(horizon_s);

  std::printf("=== core throughput: 32-VM hosting center, %ld simulated s ===\n",
              horizon_s);

  // --only=fast / --only=slow runs a single mode (profiling); no JSON then.
  const std::string only = flags.get_or("only", "");
  if (!only.empty()) {
    if (only != "fast" && only != "slow") {
      std::fprintf(stderr, "bench_core_throughput: --only takes 'fast' or 'slow'\n");
      return 2;
    }
    auto host = build_host(/*fast_path=*/only == "fast", horizon);
    const double wall = run_timed(*host, horizon);
    std::printf("  %s loop: %8.2f wall ms   %10.0f sim-s/wall-s\n", only.c_str(),
                wall * 1e3, static_cast<double>(horizon_s) / wall);
    return 0;
  }

  auto slow_host = build_host(/*fast_path=*/false, horizon);
  const double slow_wall = run_timed(*slow_host, horizon);
  const double slow_rate = static_cast<double>(horizon_s) / slow_wall;
  std::printf("  slow-stepped loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              slow_wall * 1e3, slow_rate);

  auto fast_host = build_host(/*fast_path=*/true, horizon);
  const double fast_wall = run_timed(*fast_host, horizon);
  const double fast_rate = static_cast<double>(horizon_s) / fast_wall;
  std::printf("  event-driven loop : %8.2f wall ms   %10.0f sim-s/wall-s\n",
              fast_wall * 1e3, fast_rate);

  const bool identical = traces_identical(*slow_host, *fast_host);
  const double speedup = slow_wall / fast_wall;
  std::printf("  speedup: %.2fx   traces identical: %s\n", speedup,
              identical ? "yes" : "NO — BUG");

  {
    std::ofstream js{out};
    if (!js) {
      std::fprintf(stderr, "bench_core_throughput: cannot write %s\n", out.c_str());
      return 2;
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"core_throughput\",\n"
                  "%s"
                  "  \"scenario\": \"hosting_center_32vm\",\n"
                  "  \"vms\": %zu,\n"
                  "  \"simulated_seconds\": %ld,\n"
                  "  \"slow\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"fast\": {\"wall_seconds\": %.6f, \"sim_per_wall\": %.1f},\n"
                  "  \"speedup\": %.3f,\n"
                  "  \"traces_identical\": %s\n"
                  "}\n",
                  pas::bench::machine_json().c_str(), kVmCount, horizon_s, slow_wall,
                  slow_rate, fast_wall, fast_rate,
                  speedup, identical ? "true" : "false");
    js << buf;
    std::printf("  written to %s\n", out.c_str());
  }

  if (!identical) return 1;
  if (flags.has("require-speedup") && speedup < 3.0) {
    std::printf("  FAIL: speedup %.2fx below the 3x bar\n", speedup);
    return 1;
  }
  return 0;
}
