// Regression suite for memoized planning: the live-set memo must be a
// pure optimization — every cluster
// observable (migration records, traces, SLA counters, energy)
// byte-identical to the replan_every_tick reference, which runs a
// from-scratch place_ffd on every tick — while the memo counters prove
// the cheap paths actually ran: a plan is recomputed exactly when the
// live set (running VMs, non-crashed hosts) changes, and reused
// otherwise.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster_fuzz_common.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

using common::seconds;
using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

TEST(ClusterIncrementalTest, MemoMatchesReplanEveryTickAcrossFuzzSeeds) {
  std::size_t total_migrations = 0;
  std::size_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ScenarioSpec s = draw_scenario(seed, /*hetero=*/seed % 2 == 0);
    if (!s.use_manager) {
      s.use_manager = true;  // the comparison is about the manager
      s.mgr = ClusterManagerConfig{};
      s.mgr.period = seconds(15);
    }
    ScenarioSpec memo = s;
    memo.mgr.replan_every_tick = false;
    ScenarioSpec replan = s;
    replan.mgr.replan_every_tick = true;

    auto a = build_cluster(memo, /*fast_path=*/true);
    run_spec(*a, memo);
    auto b = build_cluster(replan, /*fast_path=*/true);
    run_spec(*b, replan);
    expect_identical(*a, *b, seed, "memo vs replan every tick");
    if (::testing::Test::HasFatalFailure()) return;

    total_migrations += a->manager()->migrations_issued();
    total_hits += a->manager()->book_stats().cached_plans;
    // The reference plans from scratch on every tick by definition.
    const ClusterManager& ref = *b->manager();
    EXPECT_EQ(ref.book_stats().cached_plans, 0u) << "seed " << seed;
    EXPECT_EQ(ref.book_stats().full_rebuilds, ref.planning_ticks()) << "seed " << seed;
  }
  // Vacuity guards: the sweep exercised real consolidation, and the memo
  // earned its keep somewhere.
  EXPECT_GT(total_migrations, 10u);
  EXPECT_GT(total_hits, 0u);
}

TEST(ClusterIncrementalTest, UnchangedTicksReuseThePlanAndChangeNothing) {
  // Regression for the per-tick full replan: once the fleet matches the
  // plan and nothing moves, consolidation passes must reuse the stored
  // plan — and reusing it must be invisible in every observable. The
  // replan_every_tick reference is the control group.
  ScenarioSpec s = draw_scenario(11);
  s.use_manager = true;
  s.mgr = ClusterManagerConfig{};
  s.mgr.period = seconds(10);
  s.script.clear();  // manager-only: every migration is the planner's
  ScenarioSpec dbg = s;
  dbg.mgr.replan_every_tick = true;

  auto memo = build_cluster(s, /*fast_path=*/true);
  run_spec(*memo, s);
  auto replanning = build_cluster(dbg, /*fast_path=*/true);
  run_spec(*replanning, dbg);

  expect_identical(*memo, *replanning, 11, "memo vs replan-every-tick");
  const ClusterManager& m = *memo->manager();
  EXPECT_EQ(m.planning_ticks(), replanning->manager()->planning_ticks());
  // The memo is strictly cheaper, not just equal: most passes reuse.
  EXPECT_GT(m.book_stats().cached_plans, 0u);
  EXPECT_LT(m.book_stats().full_rebuilds, replanning->manager()->book_stats().full_rebuilds);
  // Every pass that ran was either a memo hit or a miss.
  EXPECT_EQ(m.book_stats().cached_plans + m.book_stats().full_rebuilds, m.planning_ticks());
  EXPECT_EQ(m.book_stats().delta_plans, 0u);
}

/// Three 2 GB hosts: a 1800 MB giant on host 0 and two 600 MB VMs on hosts
/// 1 and 2, planned every 5 s over a slow (100 MB/s) link.
std::unique_ptr<Cluster> build_small_fleet(const ClusterManagerConfig& mc) {
  platform::HostClass small = platform::optiplex_755();
  small.memory_mb = 2048.0;
  ClusterConfig cc;
  cc.host_classes = {small, small, small};
  cc.migration.link_mb_per_s = 100.0;
  ClusterVmConfig giant;
  giant.vm.name = "giant";
  giant.vm.credit = 10.0;
  giant.memory_mb = 1800.0;
  giant.dirty_mb_per_s = 1.0;
  ClusterVmConfig mid = giant;
  mid.vm.name = "mid";
  mid.memory_mb = 600.0;
  auto cluster = std::make_unique<Cluster>(std::move(cc));
  cluster->add_vm(giant, std::make_unique<wl::IdleGuest>(), 0);
  cluster->add_vm(mid, std::make_unique<wl::IdleGuest>(), 1);
  cluster->add_vm(mid, std::make_unique<wl::IdleGuest>(), 2);
  cluster->install_manager(std::make_unique<ClusterManager>(mc));
  return cluster;
}

ClusterManagerConfig small_fleet_manager(bool replan_every_tick) {
  ClusterManagerConfig mc;
  mc.period = seconds(5);
  mc.max_restart_attempts = 3;
  mc.restart_backoff = seconds(5);
  mc.replan_every_tick = replan_every_tick;
  return mc;
}

TEST(ClusterIncrementalTest, CrashAndRestartEachForceExactlyOneMiss) {
  // Timeline engineering: the tick-5 plan consolidates midB onto host 1
  // over the slow link (~6 s in flight), host 0 crashes at t=7, so at
  // tick 10 no host has 1800 MB free (midB still counts on host 2 until
  // its attach at ~11 s) and the orphan's first restart attempt fails.
  // The backoff retry at t=15 lands on the now-empty host 2. The crash
  // (host set shrinks) and the restart (VM set grows) each change the
  // live set, on separate ticks, so each must cost exactly one miss.
  auto memo = build_small_fleet(small_fleet_manager(false));
  auto replan = build_small_fleet(small_fleet_manager(true));
  const PlanStats& st = memo->manager()->book_stats();

  memo->run_until(seconds(7));
  ASSERT_EQ(st.full_rebuilds, 1u) << "the first plan is a miss";
  ASSERT_TRUE(memo->apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  memo->run_until(seconds(10));
  EXPECT_EQ(st.full_rebuilds, 2u) << "the crash forces one miss at tick 10";
  EXPECT_TRUE(memo->recoveries().empty()) << "the first restart attempt must fail";
  memo->run_until(seconds(15));
  EXPECT_EQ(st.full_rebuilds, 3u) << "the restart forces one miss at tick 15";
  ASSERT_EQ(memo->recoveries().size(), 1u);
  EXPECT_EQ(memo->vm_state(0), VmState::kRunning);
  EXPECT_EQ(st.vms_scanned, 3u + 2u + 3u) << "each miss places the whole live set";
  const std::size_t hits_at_restart = st.cached_plans;
  memo->run_until(seconds(60));
  // The quiet tail only moves residency (the restart's consolidation
  // migrations): every planning pass in it is a memo hit.
  EXPECT_EQ(st.full_rebuilds, 3u);
  EXPECT_GT(st.cached_plans, hits_at_restart);

  replan->run_until(seconds(7));
  ASSERT_TRUE(replan->apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  replan->run_until(seconds(60));
  expect_identical(*memo, *replan, 0, "crash recovery: memo vs replan every tick");
}

TEST(ClusterIncrementalTest, ResidencyChurnHitsAndStopStartEachMiss) {
  auto memo = build_small_fleet(small_fleet_manager(false));
  auto replan = build_small_fleet(small_fleet_manager(true));
  const ClusterManager& m = *memo->manager();
  const PlanStats& st = m.book_stats();

  // Identical operator command stream on both; the memo's ledger is
  // checked after each step.
  const auto step = [&](auto&& command, long until_s) {
    for (Cluster* c : {memo.get(), replan.get()}) {
      command(*c);
      c->run_until(seconds(until_s));
    }
  };
  step([](Cluster&) {}, 30);
  ASSERT_EQ(st.full_rebuilds, 1u);
  ASSERT_GT(m.migrations_issued(), 0u) << "the first plan must move something";
  EXPECT_GT(st.cached_plans, 0u) << "the plan's own migrations re-plan as hits";

  // An operator migration moves residency only: the next pass must run
  // and reuse the plan.
  const std::size_t ticks_before = m.planning_ticks();
  const std::size_t hits_before = st.cached_plans;
  step([](Cluster& c) { ASSERT_TRUE(c.apply(Command::migrate(1, 2)).ok()); }, 35);
  EXPECT_GT(m.planning_ticks(), ticks_before);
  EXPECT_GT(st.cached_plans, hits_before);
  EXPECT_EQ(st.full_rebuilds, 1u);

  step([](Cluster&) {}, 60);  // let the manager undo the detour
  step([](Cluster& c) { ASSERT_TRUE(c.apply(Command::stop_vm(2)).ok()); }, 65);
  EXPECT_EQ(st.full_rebuilds, 2u) << "a stop forces exactly one miss";
  step([](Cluster&) {}, 80);
  EXPECT_EQ(st.full_rebuilds, 2u);
  step([](Cluster& c) { ASSERT_TRUE(c.apply(Command::start_vm(2, 2)).ok()); }, 85);
  EXPECT_EQ(st.full_rebuilds, 3u) << "a start forces exactly one miss";
  step([](Cluster&) {}, 120);
  EXPECT_EQ(st.full_rebuilds, 3u);
  EXPECT_EQ(st.delta_plans, 0u);

  expect_identical(*memo, *replan, 0, "operator churn: memo vs replan every tick");
}

TEST(ClusterIncrementalTest, MarkLostLeavesTheLiveSetAndHits) {
  // Two 2 GB hosts, each holding an 1800 MB giant: when host 0 crashes,
  // its giant can never fit anywhere. The crash is the miss; the orphan
  // is already outside the live set, so abandoning it (mark_lost after
  // the second failed attempt) forces a planning pass that reuses the
  // plan.
  platform::HostClass small = platform::optiplex_755();
  small.memory_mb = 2048.0;
  const auto build = [&](bool replan_every_tick) {
    ClusterConfig cc;
    cc.host_classes = {small, small};
    ClusterVmConfig giant;
    giant.vm.name = "giant";
    giant.vm.credit = 10.0;
    giant.memory_mb = 1800.0;
    auto cluster = std::make_unique<Cluster>(std::move(cc));
    cluster->add_vm(giant, std::make_unique<wl::IdleGuest>(), 0);
    cluster->add_vm(giant, std::make_unique<wl::IdleGuest>(), 1);
    ClusterManagerConfig mc = small_fleet_manager(replan_every_tick);
    mc.max_restart_attempts = 2;
    cluster->install_manager(std::make_unique<ClusterManager>(mc));
    return cluster;
  };
  auto memo = build(false);
  auto replan = build(true);
  const ClusterManager& m = *memo->manager();
  const PlanStats& st = m.book_stats();

  for (Cluster* c : {memo.get(), replan.get()}) {
    c->run_until(seconds(7));
    ASSERT_TRUE(c->apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
    c->run_until(seconds(10));
  }
  EXPECT_EQ(st.full_rebuilds, 2u) << "first plan + the crash";
  EXPECT_EQ(memo->vm_state(0), VmState::kOrphaned);
  const std::size_t hits_before = st.cached_plans;
  const std::size_t ticks_before = m.planning_ticks();
  for (Cluster* c : {memo.get(), replan.get()}) c->run_until(seconds(15));
  EXPECT_EQ(memo->vm_state(0), VmState::kLost);
  EXPECT_EQ(m.restarts_abandoned(), 1u);
  EXPECT_EQ(m.planning_ticks(), ticks_before + 1) << "one tick, one planning pass";
  EXPECT_EQ(st.cached_plans, hits_before + 1);
  EXPECT_EQ(st.full_rebuilds, 2u);

  for (Cluster* c : {memo.get(), replan.get()}) c->run_until(seconds(40));
  expect_identical(*memo, *replan, 0, "abandoned orphan: memo vs replan every tick");
}

}  // namespace
}  // namespace pas::cluster
