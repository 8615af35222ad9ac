// Ablation A — the §4.1 implementation choices.
//
// The paper considered three designs and shipped the in-hypervisor one
// because a user-level implementation "can be quite intrusive ... and it
// may lack reactivity". This bench quantifies that: after a step from idle
// to full thrash, how long until the controller has rescaled credits and
// frequency, and how much SLA-relevant capacity V20 loses across repeated
// load steps under each design.
#include <cstdio>
#include <memory>

#include "common/flags.hpp"
#include "core/pas_controller.hpp"
#include "core/user_level_managers.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace pas;

struct Design {
  const char* name;
  bool governor;  // design 1 keeps the stock governor
  int kind;       // 0 = PAS, 1 = user-level credit, 2 = user-level credit+DVFS
};

std::unique_ptr<hv::Controller> make_controller(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<core::PasController>();
    case 1:
      return std::make_unique<core::UserLevelCreditManager>();
    default:
      return std::make_unique<core::UserLevelDvfsCreditManager>();
  }
}

struct StepResult {
  double settle_sec = 0.0;     // time to settle caps after the load step
  double work_deficit = 0.0;   // mf-seconds V20 lost vs its SLA during steps
};

/// Square-wave load on V20 (90 % credit): 60 s idle / 60 s thrash, repeated.
StepResult run_design(const Design& d, int cycles) {
  hv::HostConfig hc;
  hc.trace_stride = common::SimTime{};
  hv::Host host{hc, std::make_unique<sched::CreditScheduler>()};
  if (d.governor) host.set_governor(std::make_unique<gov::StableOndemandGovernor>());
  host.set_controller(make_controller(d.kind));

  std::vector<wl::LoadProfile::Step> steps;
  for (int c = 0; c < cycles; ++c) {
    steps.push_back({common::seconds(120 * c + 60), 1.0});
    steps.push_back({common::seconds(120 * c + 120), 0.0});
  }
  hv::VmConfig v;
  v.name = "V90";
  v.credit = 90.0;
  host.add_vm(v, std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile{steps}));

  StepResult res;
  int settled_cycles = 0;
  for (int c = 0; c < cycles; ++c) {
    const common::SimTime step_at = common::seconds(120 * c + 60);
    host.run_until(step_at);
    const double work0 = host.vm(0).total_work.mf_seconds();
    // Poll until the cap reflects full frequency (90 % +- 5) or phase ends.
    bool settled = false;
    while (host.now() < step_at + common::seconds(60)) {
      host.run_until(host.now() + common::msec(100));
      if (!settled && host.scheduler().cap(0) < 95.0 &&
          host.cpufreq().current_index() == host.cpu().ladder().max_index()) {
        res.settle_sec += (host.now() - step_at).sec();
        settled = true;
        ++settled_cycles;
      }
    }
    host.run_until(step_at + common::seconds(60));
    const double work = host.vm(0).total_work.mf_seconds() - work0;
    res.work_deficit += std::max(0.0, 0.90 * 60.0 - work);
  }
  if (settled_cycles > 0) res.settle_sec /= settled_cycles;
  return res;
}

}  // namespace

static int run(const pas::common::Flags& flags) {
  const int cycles = static_cast<int>(flags.get_count("cycles", 5));

  std::printf("=== Ablation A: PAS implementation choices (paper §4.1) ===\n");
  std::printf("square-wave thrash on a 90%%-credit VM, %d idle/thrash cycles;\n", cycles);
  std::printf("settle = time from load step until caps+frequency are correct.\n\n");
  std::printf("  %-34s %12s %18s\n", "design", "settle (s)", "work deficit (mf-s)");

  const Design designs[] = {
      {"in-hypervisor PAS (shipped)", false, 0},
      {"user-level credit (design 1)", true, 1},
      {"user-level credit+DVFS (design 2)", false, 2},
  };
  for (const auto& d : designs) {
    const StepResult r = run_design(d, cycles);
    std::printf("  %-34s %12.2f %18.2f\n", d.name, r.settle_sec, r.work_deficit);
  }
  std::printf("\nexpected: the in-hypervisor design settles fastest and loses the least "
              "capacity;\ndesign 1 chases the governor; design 2 is limited by its "
              "daemon period.\n");
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
