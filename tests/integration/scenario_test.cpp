// Harness-level tests of scenario::run_two_vm itself.
#include <gtest/gtest.h>

#include "check/divergence.hpp"
#include "scenario/two_vm.hpp"

namespace pas::scenario {
namespace {

using common::seconds;

TwoVmConfig tiny() {
  TwoVmConfig cfg;
  cfg.total = seconds(800);
  cfg.v20_from = seconds(50);
  cfg.v20_until = seconds(700);
  cfg.v70_from = seconds(250);
  cfg.v70_until = seconds(500);
  cfg.trace_stride = seconds(5);
  return cfg;
}

TEST(ScenarioTest, ProducesFivePhases) {
  const TwoVmResult r = run_two_vm(tiny());
  ASSERT_EQ(r.phases.size(), 5u);
  EXPECT_EQ(r.phases[0].name, "warmup (idle)");
  EXPECT_EQ(r.phases[2].name, "phase2 V20+V70");
  EXPECT_EQ(r.phases[4].name, "tail (idle)");
}

TEST(ScenarioTest, TraceCoversWholeRun) {
  const TwoVmResult r = run_two_vm(tiny());
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.samples().size(), 160u);  // 800 s / 5 s
  EXPECT_NEAR(r.trace.samples().back().t.sec(), 800.0, 5.1);
}

TEST(ScenarioTest, EnergyAndTransitionsPopulated) {
  const TwoVmResult r = run_two_vm(tiny());
  EXPECT_GT(r.energy_joules, 0.0);
  EXPECT_GT(r.average_watts, 40.0);
  EXPECT_LT(r.average_watts, 110.0);
}

TEST(ScenarioTest, RejectsNonNestedPhases) {
  TwoVmConfig cfg = tiny();
  cfg.v70_until = seconds(750);  // V70 outlives V20: not the paper profile
  EXPECT_THROW((void)run_two_vm(cfg), std::invalid_argument);
}

TEST(ScenarioTest, RenderChartsNonEmpty) {
  const TwoVmResult r = run_two_vm(tiny());
  const std::string global = render_loads_chart(r, /*absolute=*/false, "global");
  const std::string abs = render_loads_chart(r, /*absolute=*/true, "absolute");
  EXPECT_NE(global.find("V20"), std::string::npos);
  EXPECT_NE(global.find("legend"), std::string::npos);
  EXPECT_NE(abs.find("absolute load %"), std::string::npos);
  const std::string table = render_phase_table(r);
  EXPECT_NE(table.find("phase2 V20+V70"), std::string::npos);
  EXPECT_NE(table.find("SLA violations"), std::string::npos);
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  const TwoVmResult a = run_two_vm(tiny());
  const TwoVmResult b = run_two_vm(tiny());
  EXPECT_EQ(check::first_divergence(a.trace, b.trace), "");
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.freq_transitions, b.freq_transitions);
}

TEST(ScenarioTest, SeedChangesStochasticDetails) {
  TwoVmConfig cfg = tiny();
  const TwoVmResult a = run_two_vm(cfg);
  cfg.seed = 1234;
  const TwoVmResult b = run_two_vm(cfg);
  // Same physics, different Poisson arrivals: energies differ slightly.
  EXPECT_NE(a.energy_joules, b.energy_joules);
  EXPECT_NEAR(a.energy_joules, b.energy_joules, 0.05 * a.energy_joules);
}

TEST(ScenarioTest, ControllerVariantsRun) {
  for (const ControllerKind kind :
       {ControllerKind::kUserLevelCredit, ControllerKind::kUserLevelDvfsCredit}) {
    TwoVmConfig cfg = tiny();
    cfg.controller = kind;
    cfg.governor = kind == ControllerKind::kUserLevelCredit ? "stable-ondemand" : "";
    cfg.load = LoadKind::kThrashing;
    const TwoVmResult r = run_two_vm(cfg);
    // Both user-level designs must roughly deliver the SLA on steady phases.
    EXPECT_NEAR(r.phases[1].v20_absolute_pct, 20.0, 3.0);
  }
}

}  // namespace
}  // namespace pas::scenario
