// Energy study: what PAS is worth in joules across consolidation levels.
//
// Sweeps the host's aggregate demand from 10 % to 90 % (two customer VMs
// with proportional credits, thrashing) and prints energy + delivered-SLA
// for three policies. Shows the paper's §2.3 point: consolidation rarely
// fills hosts completely (memory-bound), so the DVFS headroom PAS exploits
// exists at every realistic operating point.
//
// Run: ./examples/energy_study [--minutes=20]
#include <cstdio>
#include <memory>

#include "common/flags.hpp"
#include "core/pas.hpp"

using namespace pas;

namespace {

struct Outcome {
  double energy_kj = 0.0;
  double delivered_pct = 0.0;  // total absolute capacity received by the VMs
};

Outcome run(double total_demand_pct, const std::string& policy, common::SimTime span) {
  hv::HostConfig hc;
  hc.trace_stride = common::SimTime{};
  std::unique_ptr<hv::Scheduler> sched;
  if (policy == "sedf") {
    sched = std::make_unique<sched::SedfScheduler>();
  } else {
    sched = std::make_unique<sched::CreditScheduler>();
  }
  hv::Host host{hc, std::move(sched)};
  if (policy == "pas") {
    host.set_controller(std::make_unique<core::PasController>());
  } else {
    host.set_governor(std::make_unique<gov::StableOndemandGovernor>());
  }

  // Two thrashing customers splitting the demand 1:2.
  for (const double share : {1.0 / 3.0, 2.0 / 3.0}) {
    hv::VmConfig v;
    v.credit = total_demand_pct * share;
    host.add_vm(v, std::make_unique<wl::BusyLoop>());
  }
  host.run_until(span);

  Outcome o;
  o.energy_kj = host.energy().joules() / 1000.0;
  o.delivered_pct = 100.0 *
                    (host.vm(0).total_work.mf_seconds() + host.vm(1).total_work.mf_seconds()) /
                    span.sec();
  return o;
}

}  // namespace

static int run_study(const pas::common::Flags& flags) {
  const auto span = common::seconds(flags.get_int("minutes", 20) * 60);

  std::printf("Energy vs consolidation level (two thrashing VMs, credits = demand).\n");
  std::printf("'delivered' should equal the aggregate credit; energy is the bill.\n\n");
  std::printf("  %8s | %21s | %21s | %21s\n", "", "credit + governor", "SEDF + governor",
              "PAS");
  std::printf("  %8s | %9s %11s | %9s %11s | %9s %11s\n", "demand %", "energy kJ", "delivered",
              "energy kJ", "delivered", "energy kJ", "delivered");

  for (const double demand : {10.0, 30.0, 50.0, 70.0, 90.0}) {
    const Outcome credit = run(demand, "credit", span);
    const Outcome sedf = run(demand, "sedf", span);
    const Outcome pas = run(demand, "pas", span);
    std::printf("  %8.0f | %9.0f %10.1f%% | %9.0f %10.1f%% | %9.0f %10.1f%%\n", demand,
                credit.energy_kj, credit.delivered_pct, sedf.energy_kj, sedf.delivered_pct,
                pas.energy_kj, pas.delivered_pct);
  }

  std::printf("\nreading: credit+governor under-delivers at every partial load (the\n"
              "governor parks low and the caps stay nominal); SEDF delivers by burning\n"
              "the whole host; PAS delivers the exact aggregate credit at the lowest\n"
              "frequency that can carry it.\n");
  return 0;
}

int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run_study); }
