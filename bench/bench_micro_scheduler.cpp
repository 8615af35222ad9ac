// Microbenchmarks (google-benchmark): the hot paths a real hypervisor would
// care about — scheduler pick/charge/account, the PAS per-tick recompute,
// governor decisions, and end-to-end simulation throughput.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/compensation.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace pas;

hv::VmConfig vm_cfg(double credit) {
  hv::VmConfig c;
  c.credit = credit;
  return c;
}

template <typename Sched>
void BM_SchedulerPickChargeAccount(benchmark::State& state) {
  Sched sched;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<common::VmId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    sched.add_vm(static_cast<common::VmId>(i), vm_cfg(100.0 / static_cast<double>(n)));
    ids.push_back(static_cast<common::VmId>(i));
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    const common::VmId v = sched.pick(common::usec(t), ids);
    if (v != common::kInvalidVm) sched.charge(v, common::msec(1));
    t += 1000;
    if (t % 30'000 == 0) sched.account(common::usec(t));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SchedulerPickChargeAccount, sched::CreditScheduler)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32);
BENCHMARK_TEMPLATE(BM_SchedulerPickChargeAccount, sched::SedfScheduler)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32);

void BM_PasCompensationTick(benchmark::State& state) {
  const auto ladder = cpu::FrequencyLadder::paper_default();
  const auto n = static_cast<std::size_t>(state.range(0));
  double absolute = 0.0;
  for (auto _ : state) {
    const std::size_t idx = core::compute_new_freq_index(ladder, absolute);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += core::compensated_credit(100.0 / static_cast<double>(n), ladder, idx);
    }
    benchmark::DoNotOptimize(sum);
    absolute += 7.3;
    if (absolute > 100.0) absolute -= 100.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PasCompensationTick)->Arg(2)->Arg(8)->Arg(32);

void BM_GovernorDecide(benchmark::State& state) {
  const auto ladder = cpu::FrequencyLadder::paper_default();
  gov::StableOndemandGovernor stable;
  gov::OndemandGovernor ondemand;
  gov::Sample s;
  double u = 0.0;
  for (auto _ : state) {
    s.util = u;
    s.avg_util = u;
    s.current_index = 2;
    benchmark::DoNotOptimize(stable.decide(s, ladder));
    benchmark::DoNotOptimize(ondemand.decide(s, ladder));
    u += 0.013;
    if (u > 1.0) u -= 1.0;
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_GovernorDecide);

/// End-to-end: simulated seconds per wall second for a loaded two-VM host.
void BM_HostSimulationThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    hv::HostConfig hc;
    hc.trace_stride = common::SimTime{};
    hv::Host host{hc, std::make_unique<sched::CreditScheduler>()};
    host.add_vm(vm_cfg(20.0), std::make_unique<wl::BusyLoop>());
    host.add_vm(vm_cfg(70.0), std::make_unique<wl::BusyLoop>());
    state.ResumeTiming();
    host.run_until(common::seconds(100));
    benchmark::DoNotOptimize(host.idle_time());
  }
  state.SetItemsProcessed(state.iterations() * 100);  // simulated seconds
}
BENCHMARK(BM_HostSimulationThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

// Google Benchmark parses its own flags; one it does not recognize (or
// cannot parse) is a usage error, exit 2, like every other binary here.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
