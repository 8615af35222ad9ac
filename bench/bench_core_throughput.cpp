// Core-throughput bench: simulated-seconds-per-wall-second on a 32-VM
// hosting-center scenario, with the event-driven fast path A/B'd against
// the reference slow-stepped loop.
//
// The scenario models a hosting center at moderate load: a few dozen
// tenants whose web servers, batch jobs and thrashing loads come and go
// across the day while most capacity sits reserved-but-idle — exactly the
// long-horizon regime the dynamic-reconfiguration studies need. The bench
// asserts the fast path is byte-identical to the reference loop
// (check::first_divergence, host order — printed when it fails), then
// records both rates and the speedup in BENCH_core.json. Exit codes: 0
// pass, 1 a gate failed, 2 bad usage.
//
// Usage: bench_core_throughput [--smoke] [--horizon=SECONDS]
//                              [--out=BENCH_core.json]
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/flags.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"
#include "differential.hpp"
#include "json.hpp"
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

int run_bench(const pas::common::Flags& flags) {
  const long horizon_s = flags.get_int("horizon", flags.has("smoke") ? 400 : 4000);
  if (horizon_s < 32)  // shorter horizons make the staggered windows empty
    throw pas::common::UsageError("--horizon must be >= 32 (got " +
                                  std::to_string(horizon_s) + ")");
  const std::string out = flags.get_or("out", "BENCH_core.json");
  const SimTime horizon = seconds(horizon_s);
  const auto rate = [horizon_s](double wall) { return static_cast<double>(horizon_s) / wall; };

  std::printf("=== core throughput: 32-VM hosting center, %ld simulated s ===\n",
              horizon_s);

  // --only=fast / --only=slow runs a single mode (profiling); no JSON then.
  const std::string only = flags.get_or("only", "");
  if (!only.empty()) {
    if (only != "fast" && only != "slow")
      throw pas::common::UsageError("--only takes 'fast' or 'slow'");
    auto host = build_host(/*fast_path=*/only == "fast", horizon);
    const double wall = pas::bench::timed(*host, horizon);
    std::printf("  %s loop: %8.2f wall ms   %10.0f sim-s/wall-s\n", only.c_str(), wall * 1e3,
                rate(wall));
    return 0;
  }

  const auto d = pas::bench::differential<pas::hv::Host>(
      [&] { return build_host(/*fast_path=*/false, horizon); },
      [&] { return build_host(/*fast_path=*/true, horizon); }, nullptr, horizon);
  const double speedup = d.ref_wall / d.fast_wall;
  std::printf("  slow-stepped loop : %8.2f wall ms   %10.0f sim-s/wall-s\n", d.ref_wall * 1e3,
              rate(d.ref_wall));
  std::printf("  event-driven loop : %8.2f wall ms   %10.0f sim-s/wall-s\n", d.fast_wall * 1e3,
              rate(d.fast_wall));
  std::printf("  speedup: %.2fx   traces identical: %s\n", speedup,
              d.reference.identical == true ? "yes" : "NO");

  std::ofstream js{out};
  if (!js) throw pas::common::UsageError("cannot write " + out);
  js << pas::bench::Json{}
            .str("bench", "core_throughput")
            .raw("machine", pas::bench::machine_json())
            .str("scenario", "hosting_center_32vm")
            .count("vms", kVmCount)
            .count("simulated_seconds", static_cast<std::uint64_t>(horizon_s))
            .obj("slow", pas::bench::timing(d.ref_wall, rate(d.ref_wall)))
            .obj("fast", pas::bench::timing(d.fast_wall, rate(d.fast_wall)))
            .num("speedup", speedup, 3)
            .verdict("traces_identical", d.reference.identical)
            .render()
     << "\n";
  std::printf("  written to %s\n", out.c_str());

  if (d.reference.identical != true) {
    std::printf("  FAIL: fast path diverged from the reference loop\n"
                "  first divergence: %s\n",
                d.reference.divergence.c_str());
    return 1;
  }
  if (flags.has("require-speedup") && speedup < 3.0) {
    std::printf("  FAIL: speedup %.2fx below the 3x bar\n", speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run_bench); }
