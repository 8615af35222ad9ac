// Cross-scheduler properties, parameterized over credit splits and
// frequencies:
//   * fixed-credit: a thrashing VM's time share converges to its cap;
//   * SEDF: every VM receives at least its guaranteed slice under full
//     contention;
//   * neither scheduler ever lets total busy time exceed wall time.
#include <gtest/gtest.h>

#include "hypervisor/host.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::sched {
namespace {

using common::seconds;
using common::SimTime;

struct ShareCase {
  double credit_a;
  double credit_b;
  std::size_t freq_index;
};

std::string case_name(const ::testing::TestParamInfo<ShareCase>& info) {
  std::string name = "a";
  name.append(std::to_string(static_cast<int>(info.param.credit_a)))
      .append("_b")
      .append(std::to_string(static_cast<int>(info.param.credit_b)))
      .append("_f")
      .append(std::to_string(info.param.freq_index));
  return name;
}

class CreditShareProperty : public ::testing::TestWithParam<ShareCase> {};

TEST_P(CreditShareProperty, ThrashingVmsGetTheirCapsRegardlessOfFrequency) {
  const auto& p = GetParam();
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<CreditScheduler>()};
  hv::VmConfig a;
  a.credit = p.credit_a;
  host.add_vm(a, std::make_unique<wl::BusyLoop>());
  hv::VmConfig b;
  b.credit = p.credit_b;
  host.add_vm(b, std::make_unique<wl::BusyLoop>());
  host.cpufreq().request(p.freq_index);
  host.run_until(seconds(60));

  // Fixed credit: time share equals cap, at ANY frequency (that is exactly
  // the paper's problem — the time share is preserved, the work is not).
  EXPECT_NEAR(host.vm(0).total_busy.sec(), 60.0 * p.credit_a / 100.0,
              0.02 * 60.0 * p.credit_a / 100.0 + 0.5);
  EXPECT_NEAR(host.vm(1).total_busy.sec(), 60.0 * p.credit_b / 100.0,
              0.02 * 60.0 * p.credit_b / 100.0 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Grid, CreditShareProperty,
                         ::testing::Values(ShareCase{20, 70, 4}, ShareCase{20, 70, 0},
                                           ShareCase{10, 90, 2}, ShareCase{50, 50, 1},
                                           ShareCase{30, 30, 3}, ShareCase{5, 95, 4},
                                           ShareCase{40, 20, 0}),
                         case_name);

class SedfGuaranteeProperty : public ::testing::TestWithParam<ShareCase> {};

TEST_P(SedfGuaranteeProperty, GuaranteedSliceHeldUnderContention) {
  const auto& p = GetParam();
  hv::HostConfig hc;
  hc.trace_stride = SimTime{};
  hv::Host host{hc, std::make_unique<SedfScheduler>()};
  hv::VmConfig a;
  a.credit = p.credit_a;
  host.add_vm(a, std::make_unique<wl::BusyLoop>());
  hv::VmConfig b;
  b.credit = p.credit_b;
  host.add_vm(b, std::make_unique<wl::BusyLoop>());
  host.cpufreq().request(p.freq_index);
  host.run_until(seconds(60));

  EXPECT_GE(host.vm(0).total_busy.sec(), 60.0 * p.credit_a / 100.0 - 1.0);
  EXPECT_GE(host.vm(1).total_busy.sec(), 60.0 * p.credit_b / 100.0 - 1.0);
  // Work conserving: no idle while both thrash.
  EXPECT_LT(host.idle_time().sec(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Grid, SedfGuaranteeProperty,
                         ::testing::Values(ShareCase{20, 70, 4}, ShareCase{20, 70, 0},
                                           ShareCase{10, 90, 2}, ShareCase{50, 50, 1},
                                           ShareCase{45, 45, 3}),
                         case_name);

TEST(SchedulerPropertyTest, BusyNeverExceedsWallTime) {
  for (const bool sedf : {false, true}) {
    hv::HostConfig hc;
    hc.trace_stride = SimTime{};
    std::unique_ptr<hv::Scheduler> s;
    if (sedf) {
      s = std::make_unique<SedfScheduler>();
    } else {
      s = std::make_unique<CreditScheduler>();
    }
    hv::Host host{hc, std::move(s)};
    for (int i = 0; i < 4; ++i) {
      hv::VmConfig c;
      c.credit = 25.0;
      host.add_vm(c, std::make_unique<wl::BusyLoop>());
    }
    host.run_until(seconds(30));
    SimTime busy{};
    for (common::VmId i = 0; i < 4; ++i) busy += host.vm(i).total_busy;
    EXPECT_LE(busy.us(), seconds(30).us());
  }
}

}  // namespace
}  // namespace pas::sched
