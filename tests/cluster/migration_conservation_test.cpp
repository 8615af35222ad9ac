// Conservation across live migration: the guest's consumed CPU work, its
// purchased credit balance, and the cluster's accumulated energy must be
// neither double-counted nor lost while state crosses host boundaries —
// including through the stop-and-copy pause, when the workload object
// exists on no host's schedule at all.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "core/compensation.hpp"
#include "platform/host_class.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"

namespace pas::cluster {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;

ClusterConfig two_host_config() {
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(2, platform::HostClass{"host"});
  cc.host.trace_stride = SimTime{};  // no tracing: pure accounting
  return cc;
}

ClusterVmConfig hog_vm(const char* name, double credit, double memory_mb) {
  ClusterVmConfig vc;
  vc.vm.name = name;
  vc.vm.credit = credit;
  vc.memory_mb = memory_mb;
  vc.dirty_mb_per_s = 50.0;
  return vc;
}

TEST(MigrationPlanTest, ConvergentGuestStopsEarly) {
  MigrationConfig cfg;  // 1000 MB/s link, 32 MB threshold
  const MigrationPlan plan = plan_migration(512.0, 50.0, cfg);
  // Round 0 pushes 512 MB in 0.512 s; the guest redirties 25.6 MB — under
  // the threshold, so stop-and-copy follows immediately.
  ASSERT_EQ(plan.round_mb.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.round_mb[0], 512.0);
  EXPECT_NEAR(plan.stop_copy_mb, 25.6, 1e-9);
  EXPECT_EQ(plan.precopy_duration, common::usec(512'000));
  EXPECT_EQ(plan.downtime, common::usec(25'600) + cfg.switch_latency);
  EXPECT_NEAR(plan.transferred_mb(), 537.6, 1e-9);
}

TEST(MigrationPlanTest, FastDirtierNeedsMoreRounds) {
  MigrationConfig cfg;
  const MigrationPlan slow_dirtier = plan_migration(1024.0, 50.0, cfg);
  const MigrationPlan fast_dirtier = plan_migration(1024.0, 400.0, cfg);
  EXPECT_GT(fast_dirtier.round_mb.size(), slow_dirtier.round_mb.size());
  EXPECT_GT(fast_dirtier.transferred_mb(), slow_dirtier.transferred_mb());
}

TEST(MigrationPlanTest, NonConvergentGuestHitsRoundBudget) {
  MigrationConfig cfg;
  // Dirtying faster than the link: rounds never shrink.
  const MigrationPlan plan = plan_migration(1024.0, 2000.0, cfg);
  EXPECT_EQ(plan.round_mb.size(), cfg.max_precopy_rounds);
  // The residue is the whole memory: downtime is a full-memory push.
  EXPECT_NEAR(plan.stop_copy_mb, 1024.0, 1e-9);
  EXPECT_EQ(plan.downtime, common::usec(1'024'000) + cfg.switch_latency);
}

TEST(MigrationPlanTest, DirtyRateAtLinkBandwidthNeverShrinks) {
  MigrationConfig cfg;
  // Exactly at the link rate: every round redirties exactly what it pushed,
  // so rounds never shrink and the budget is the only thing that stops the
  // loop — the boundary case between convergent and non-convergent guests.
  const MigrationPlan plan = plan_migration(1024.0, cfg.link_mb_per_s, cfg);
  ASSERT_EQ(plan.round_mb.size(), cfg.max_precopy_rounds);
  for (const double mb : plan.round_mb) EXPECT_DOUBLE_EQ(mb, 1024.0);
  EXPECT_NEAR(plan.stop_copy_mb, 1024.0, 1e-9);
}

TEST(MigrationPlanTest, ZeroDirtyRateHasSwitchOnlyDowntime) {
  MigrationConfig cfg;
  // An idle guest redirties nothing: one full-memory round, an empty
  // residue, and a pause that is pure switch latency (the zero-residue
  // branch must not charge a minimum transfer quantum).
  const MigrationPlan plan = plan_migration(512.0, 0.0, cfg);
  ASSERT_EQ(plan.round_mb.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.stop_copy_mb, 0.0);
  EXPECT_EQ(plan.downtime, cfg.switch_latency);
  EXPECT_DOUBLE_EQ(plan.transferred_mb(), 512.0);
}

TEST(MigrationPlanTest, ThresholdAboveMemoryStillPushesFirstRound) {
  MigrationConfig cfg;
  cfg.stop_copy_threshold_mb = 2048.0;  // larger than the guest itself
  // Round 0 is unconditional — pre-copy always ships the full image once —
  // and the redirtied set then trivially clears the oversized threshold.
  const MigrationPlan plan = plan_migration(512.0, 100.0, cfg);
  ASSERT_EQ(plan.round_mb.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.round_mb[0], 512.0);
  EXPECT_NEAR(plan.stop_copy_mb, 51.2, 1e-9);
  EXPECT_EQ(plan.downtime, common::usec(51'200) + cfg.switch_latency);
}

TEST(MigrationPlanTest, RejectsBadInputs) {
  MigrationConfig cfg;
  EXPECT_THROW((void)plan_migration(0.0, 50.0, cfg), std::invalid_argument);
  EXPECT_THROW((void)plan_migration(512.0, -1.0, cfg), std::invalid_argument);
  cfg.link_mb_per_s = 0.0;
  EXPECT_THROW((void)plan_migration(512.0, 50.0, cfg), std::invalid_argument);
}

TEST(MigrationConservationTest, WorkCreditAndEnergyConserved) {
  Cluster cluster{two_host_config()};
  auto hog = std::make_unique<wl::BusyLoop>();
  const wl::BusyLoop* hog_ptr = hog.get();
  const GlobalVmId vm = cluster.add_vm(hog_vm("hog", 20.0, 512.0), std::move(hog), 0);
  const common::VmId s = cluster.home_slot(vm);

  cluster.run_until(seconds(10));
  EXPECT_EQ(cluster.residence(vm), 0u);
  const common::Work work_on_source_before = cluster.host(0).vm(s).total_work;
  EXPECT_GT(work_on_source_before, common::Work{});
  EXPECT_FALSE(cluster.has_slot(1, vm)) << "slots are lazy: none until a migration";

  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  EXPECT_TRUE(cluster.migrating(vm));
  EXPECT_FALSE(cluster.apply(Command::migrate(vm, 1)).ok()) << "double-migrate must be refused";
  const common::VmId d = cluster.slot_on(1, vm);  // created by the migrate

  // Compute the expected timeline from the pure cost model and stop the
  // simulation at each phase edge.
  const MigrationPlan plan =
      plan_migration(512.0, 50.0, cluster.config().migration);
  const SimTime stop = seconds(10) + plan.precopy_duration;
  const SimTime end = stop + plan.downtime;

  // Pre-copy: the guest keeps running on the source.
  cluster.run_until(stop);
  const common::Work work_at_stop = cluster.host(0).vm(s).total_work;
  EXPECT_GT(work_at_stop, work_on_source_before);
  EXPECT_EQ(cluster.residence(vm), 0u);

  // Stop-and-copy: the guest runs nowhere; no work may appear anywhere.
  cluster.run_until(end);
  EXPECT_EQ(cluster.host(0).vm(s).total_work, work_at_stop);
  EXPECT_EQ(cluster.host(1).vm(d).total_work, common::Work{});
  EXPECT_EQ(cluster.residence(vm), 1u);  // attach fired exactly at `end`

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  EXPECT_EQ(rec.vm, vm);
  EXPECT_EQ(rec.from, 0u);
  EXPECT_EQ(rec.to, 1u);
  EXPECT_EQ(rec.start, seconds(10));
  EXPECT_EQ(rec.stop, stop);
  EXPECT_EQ(rec.end, end);
  EXPECT_EQ(rec.downtime, plan.downtime);

  // Credit conservation: what left the source arrived at the destination,
  // exactly, and the source slot was drained.
  EXPECT_EQ(rec.credit_exported, rec.credit_imported);
  auto& src_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(0).scheduler());
  auto& dst_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(1).scheduler());
  EXPECT_EQ(src_sched.balance(s), SimTime{});
  EXPECT_EQ(dst_sched.balance(d), rec.credit_exported);

  // Destination takes over; total work across the fleet equals what the
  // (single, moved) workload object consumed — nothing doubled or lost.
  cluster.run_until(seconds(30));
  EXPECT_GT(cluster.host(1).vm(d).total_work, common::Work{});
  EXPECT_EQ(cluster.host(0).vm(s).total_work, work_at_stop);
  const ClusterVmStats stats = cluster.vm_stats(vm);
  EXPECT_EQ(stats.total_work,
            cluster.host(0).vm(s).total_work + cluster.host(1).vm(d).total_work);
  EXPECT_EQ(stats.total_work, hog_ptr->total_consumed());
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.downtime, plan.downtime);

  // Energy: with every host powered on, the cluster meter is exactly the
  // sum of the per-host meters.
  EXPECT_DOUBLE_EQ(cluster.energy_joules(),
                   cluster.host(0).energy().joules() + cluster.host(1).energy().joules());
}

TEST(MigrationConservationTest, DowntimeChargedToSla) {
  Cluster cluster{two_host_config()};
  // An idle guest: its regular windows are never saturated, so the ONLY
  // SLA-visible time is the migration pause — which must be charged in
  // full, idle or not (the customer could not have used what they bought).
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("sleeper", 15.0, 256.0), std::make_unique<wl::IdleGuest>(), 0);
  cluster.run_until(seconds(5));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  cluster.run_until(seconds(20));

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const SimTime downtime = cluster.migrations().front().downtime;
  EXPECT_GT(downtime, SimTime{});
  EXPECT_EQ(cluster.sla().violation_time(vm), downtime);
  EXPECT_EQ(cluster.sla().observed_time(vm), downtime);
  EXPECT_DOUBLE_EQ(cluster.sla().worst_shortfall_pct(vm), 15.0);
}

TEST(MigrationConservationTest, HypervisorOverheadChargedToBothAgents) {
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 10.0, 512.0), std::make_unique<wl::BusyLoop>(), 0);
  cluster.run_until(seconds(5));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  cluster.run_until(seconds(20));

  const MigrationConfig& mc = cluster.config().migration;
  const double mb = cluster.migrations().front().transferred_mb;
  // Every transferred MB cost both hypervisors CPU; by t=20 the agents had
  // ample credit to absorb it all.
  EXPECT_DOUBLE_EQ(cluster.agent(0).total_performed().mfus(), mb * mc.source_cpu_us_per_mb);
  EXPECT_DOUBLE_EQ(cluster.agent(1).total_performed().mfus(), mb * mc.dest_cpu_us_per_mb);
  EXPECT_GT(cluster.host(0).vm(0).total_busy, SimTime{});
  EXPECT_GT(cluster.host(1).vm(0).total_busy, SimTime{});
}

TEST(MigrationConservationTest, VovoGatesEnergyExactly) {
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 20.0, 256.0), std::make_unique<wl::BusyLoop>(), 0);
  cluster.run_until(seconds(4));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  cluster.run_until(seconds(8));
  ASSERT_EQ(cluster.residence(vm), 1u);

  // Host 0 is empty now; powering it off freezes its cluster-counted
  // energy while its own meter keeps running (the host still follows the
  // clock).
  EXPECT_FALSE(cluster.apply(Command::power(1, false)).ok())
      << "must refuse: host 1 has a resident";
  ASSERT_TRUE(cluster.apply(Command::power(0, false)).ok());
  const double host0_at_off = cluster.host(0).energy().joules();
  cluster.run_until(seconds(16));
  EXPECT_GT(cluster.host(0).energy().joules(), host0_at_off) << "host meter keeps running";
  EXPECT_DOUBLE_EQ(cluster.energy_joules(),
                   host0_at_off + cluster.host(1).energy().joules());

  // Power back on: growth counts again, the off-interval stays excluded.
  const double host0_at_on = cluster.host(0).energy().joules();
  ASSERT_TRUE(cluster.apply(Command::power(0, true)).ok());
  cluster.run_until(seconds(20));
  EXPECT_DOUBLE_EQ(cluster.energy_joules(),
                   host0_at_off + (cluster.host(0).energy().joules() - host0_at_on) +
                       cluster.host(1).energy().joules());
}

TEST(MigrationConservationTest, ManagerTickDuringPauseDoesNotMintCredit) {
  // Regression: a manager pass landing inside the stop-and-copy pause must
  // not re-cap the drained source slot — that would let accounting refills
  // mint credit into a slot whose VM is in flight (credit existing in two
  // places once the attach imports the exported balance).
  Cluster cluster{two_host_config()};
  ClusterManagerConfig mc;
  mc.period = msec(200);      // many ticks inside the pause
  mc.consolidate = false;     // the migration below is scripted
  mc.vovo = false;
  cluster.install_manager(std::make_unique<ClusterManager>(mc));
  // Non-convergent dirtier: 8 rounds of 1024 MB, then a ~1.044 s pause.
  ClusterVmConfig vc = hog_vm("dirtier", 20.0, 1024.0);
  vc.dirty_mb_per_s = 2000.0;
  const GlobalVmId vm = cluster.add_vm(std::move(vc), std::make_unique<wl::BusyLoop>(), 0);
  const common::VmId s = cluster.home_slot(vm);

  cluster.run_until(seconds(2));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  const MigrationPlan plan =
      plan_migration(1024.0, 2000.0, cluster.config().migration);
  const SimTime stop = seconds(2) + plan.precopy_duration;
  ASSERT_GT(plan.downtime, msec(1000)) << "pause must span manager ticks";

  // Mid-pause, after at least one manager tick: the source slot stays
  // fully drained.
  cluster.run_until(stop + msec(500));
  auto& src_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(0).scheduler());
  EXPECT_DOUBLE_EQ(src_sched.cap(s), 0.0);
  EXPECT_EQ(src_sched.balance(s), SimTime{});

  cluster.run_until(stop + plan.downtime);
  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  auto& dst_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(1).scheduler());
  EXPECT_EQ(dst_sched.balance(s), rec.credit_exported);
  EXPECT_EQ(rec.credit_exported, rec.credit_imported);
}

TEST(MigrationConservationTest, AttachCompensatesForDestinationFrequency) {
  // A VM landing on a down-scaled host must resume at the eq.-4
  // compensated cap, not the raw purchased credit — otherwise the move
  // silently shrinks what the customer bought until the next manager pass.
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 20.0, 256.0), std::make_unique<wl::BusyLoop>(), 0);
  cluster.host(1).cpufreq().request(0);  // destination parked at the lowest P-state
  cluster.run_until(seconds(2));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  cluster.run_until(seconds(6));
  ASSERT_EQ(cluster.residence(vm), 1u);
  const cpu::FrequencyLadder& ladder = cluster.host(1).cpu().ladder();
  EXPECT_DOUBLE_EQ(cluster.host(1).scheduler().cap(cluster.slot_on(1, vm)),
                   core::compensated_credit(20.0, ladder, 0));
  EXPECT_GT(cluster.host(1).scheduler().cap(cluster.slot_on(1, vm)), 20.0);
}

TEST(MigrationConservationTest, OpenLoopArrivalsSurviveTheMove) {
  // A web tenant's open-loop injector keeps generating demand while the VM
  // is paused; every request must be delivered (queued) after attach, none
  // lost — the advance_to coarsening contract across the handoff.
  Cluster cluster{two_host_config()};
  ClusterVmConfig vc = hog_vm("web", 10.0, 512.0);
  wl::WebAppConfig wc;
  wc.seed = 99;
  const double rate = wl::WebApp::rate_for_demand(8.0, wc.request_cost);
  auto web = std::make_unique<wl::WebApp>(wl::LoadProfile::constant(rate), wc);
  const wl::WebApp* web_ptr = web.get();
  const GlobalVmId vm = cluster.add_vm(std::move(vc), std::move(web), 0);

  cluster.run_until(seconds(10));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  cluster.run_until(seconds(30));

  // ~8 req/s for 30 s minus boundary effects; served work equals the
  // fleet-wide accounting for the slot.
  EXPECT_NEAR(static_cast<double>(web_ptr->arrived()),
              rate * 30.0, rate * 1.0);
  EXPECT_EQ(web_ptr->dropped(), 0u);
  // Per-host accumulators sum in a different order than the workload's own
  // counter; equality holds up to floating-point associativity.
  EXPECT_NEAR(cluster.vm_stats(vm).total_work.mfus(), web_ptr->work_served().mfus(),
              1e-9 * web_ptr->work_served().mfus());
}

TEST(MigrationEngineTest, BeginRefusesDoubleFlightNamingTheVm) {
  // Engine-level precondition (the cluster's migrate() refuses politely
  // before ever reaching it): a second begin() for an in-flight VM is a
  // programming error, and the exception names the culprit.
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 10.0, 256.0), std::make_unique<wl::IdleGuest>(), 0);
  sim::EventQueue queue;
  MigrationEngine engine{MigrationConfig{}, queue};
  // Engine-level test below the Cluster API: no destination slot exists
  // (slots are lazy) and none is needed — begin() only schedules events,
  // and this test never advances the queue.
  const MigrationEngine::Endpoint src{&cluster.host(0), cluster.home_slot(vm),
                                      &cluster.agent(0)};
  const MigrationEngine::Endpoint dst{&cluster.host(1), cluster.home_slot(vm),
                                      &cluster.agent(1)};
  const auto noop = [](const MigrationRecord&) {};
  (void)engine.begin(vm, 0, 1, src, dst, 256.0, 10.0, SimTime{}, noop);
  try {
    (void)engine.begin(vm, 0, 1, src, dst, 256.0, 10.0, SimTime{}, noop);
    FAIL() << "double begin must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string{e.what()}.find("VM " + std::to_string(vm)), std::string::npos)
        << e.what();
  }
}

TEST(MigrationFaultTest, AbortMidPrecopyRollsBackCleanly) {
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 20.0, 512.0), std::make_unique<wl::BusyLoop>(), 0);
  const common::VmId s = cluster.home_slot(vm);

  cluster.run_until(seconds(5));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  // 512 MB at 1000 MB/s: round 0 runs until t = 5.512 s. Abort inside it.
  cluster.run_until(seconds(5) + msec(200));
  ASSERT_TRUE(cluster.apply(Command::abort_migration(vm)).ok());
  EXPECT_FALSE(cluster.migrating(vm));
  EXPECT_FALSE(cluster.apply(Command::abort_migration(vm)).ok()) << "nothing left to abort";

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  EXPECT_EQ(rec.outcome, MigrationOutcome::kAbortedPrecopy);
  EXPECT_TRUE(rec.aborted());
  EXPECT_EQ(rec.end, seconds(5) + msec(200));
  EXPECT_EQ(rec.downtime, SimTime{});
  // The guest never stopped; no credit ever moved.
  EXPECT_EQ(rec.credit_exported, SimTime{});
  EXPECT_EQ(rec.credit_imported, SimTime{});
  // Round 0 was already on the wire: its bytes (and agent overhead) stand.
  EXPECT_EQ(rec.rounds, 1u);
  EXPECT_DOUBLE_EQ(rec.transferred_mb, 512.0);
  EXPECT_EQ(cluster.residence(vm), 0u);
  EXPECT_EQ(cluster.vm_state(vm), VmState::kRunning);
  // No pause happened, so no SLA charge beyond the guest's own behavior —
  // and crucially the VM is still migratable.
  EXPECT_EQ(cluster.vm_stats(vm).downtime, SimTime{});

  const common::Work work_after_abort = cluster.host(0).vm(s).total_work;
  cluster.run_until(seconds(8));
  EXPECT_GT(cluster.host(0).vm(s).total_work, work_after_abort)
      << "guest must keep running on the source";

  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok()) << "aborted VM must be migratable again";
  cluster.run_until(seconds(20));
  ASSERT_EQ(cluster.migrations().size(), 2u);
  const MigrationRecord& redo = cluster.migrations().back();
  EXPECT_EQ(redo.outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(redo.credit_exported, redo.credit_imported);
  EXPECT_EQ(cluster.residence(vm), 1u);
}

TEST(MigrationFaultTest, AbortDuringPauseRollsBackWithCreditConserved) {
  Cluster cluster{two_host_config()};
  // Non-convergent dirtier: 8 rounds of 1024 MB (stop at t = 2 + 8.192 s),
  // then a 1.044 s pause — plenty of room to abort mid-pause.
  ClusterVmConfig vc = hog_vm("dirtier", 20.0, 1024.0);
  vc.dirty_mb_per_s = 2000.0;
  const GlobalVmId vm = cluster.add_vm(std::move(vc), std::make_unique<wl::BusyLoop>(), 0);
  const common::VmId s = cluster.home_slot(vm);

  cluster.run_until(seconds(2));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  const MigrationPlan plan = plan_migration(1024.0, 2000.0, cluster.config().migration);
  const SimTime stop = seconds(2) + plan.precopy_duration;
  const SimTime abort_at = stop + msec(300);
  ASSERT_LT(abort_at, stop + plan.downtime) << "abort instant must land inside the pause";

  cluster.run_until(abort_at);
  ASSERT_TRUE(cluster.engine().detached(vm)) << "guest must be in its pause";
  ASSERT_TRUE(cluster.apply(Command::abort_migration(vm)).ok());

  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  EXPECT_EQ(rec.outcome, MigrationOutcome::kAbortedStopCopy);
  EXPECT_EQ(rec.stop, stop);
  EXPECT_EQ(rec.end, abort_at);
  EXPECT_EQ(rec.downtime, msec(300)) << "record carries the pause actually experienced";
  // Rollback conservation: the exported balance landed back on the SOURCE.
  EXPECT_EQ(rec.credit_exported, rec.credit_imported);
  auto& src_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(0).scheduler());
  EXPECT_EQ(src_sched.balance(s), rec.credit_exported);
  // Cap re-established at the source's current P-state (max here, so the
  // compensated cap equals the purchased credit).
  EXPECT_DOUBLE_EQ(src_sched.cap(s), 20.0);
  EXPECT_EQ(cluster.residence(vm), 0u);
  EXPECT_EQ(cluster.vm_state(vm), VmState::kRunning);
  // The truncated pause is still real downtime: charged to the VM and SLA.
  EXPECT_EQ(cluster.vm_stats(vm).downtime, msec(300));
  EXPECT_GE(cluster.sla().violation_time(vm), msec(300));

  const common::Work work_at_abort = cluster.host(0).vm(s).total_work;
  cluster.run_until(seconds(15));
  EXPECT_GT(cluster.host(0).vm(s).total_work, work_at_abort)
      << "rolled-back guest must resume on the source";
  EXPECT_EQ(cluster.host(1).vm(cluster.slot_on(1, vm)).total_work, common::Work{});
}

TEST(MigrationFaultTest, CrashDuringPauseLosesGuest) {
  Cluster cluster{two_host_config()};
  ClusterVmConfig vc = hog_vm("dirtier", 20.0, 1024.0);
  vc.dirty_mb_per_s = 2000.0;
  const GlobalVmId vm = cluster.add_vm(std::move(vc), std::make_unique<wl::BusyLoop>(), 0);

  cluster.run_until(seconds(2));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  const MigrationPlan plan = plan_migration(1024.0, 2000.0, cluster.config().migration);
  const SimTime mid_pause = seconds(2) + plan.precopy_duration + msec(300);
  cluster.run_until(mid_pause);
  ASSERT_TRUE(cluster.engine().detached(vm));

  // Source crashes while the guest exists only in transit: the one
  // unrecoverable case — restart_orphans cannot save what no host holds.
  ASSERT_TRUE(cluster.apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  EXPECT_EQ(rec.outcome, MigrationOutcome::kLostSourceCrash);
  EXPECT_EQ(rec.end, mid_pause);
  EXPECT_EQ(rec.credit_imported, SimTime{}) << "the crash broke conservation, on record";
  EXPECT_EQ(cluster.vm_state(vm), VmState::kLost);
  EXPECT_EQ(cluster.lost_vm_count(), 1u);
  EXPECT_EQ(cluster.running_vm_count(), 0u);
  EXPECT_TRUE(cluster.orphaned_vms().empty()) << "lost, not orphaned: nothing to recover";
  EXPECT_TRUE(cluster.crashed(0));
  EXPECT_FALSE(cluster.powered_on(0));
  EXPECT_FALSE(cluster.apply(Command::crash_host(1, true)).ok())
      << "must refuse to crash the last live host";

  // The fleet keeps following the clock; a lost VM accrues nothing further.
  const SimTime observed = cluster.sla().observed_time(vm);
  cluster.run_until(seconds(20));
  EXPECT_EQ(cluster.sla().observed_time(vm), observed);
}

TEST(MigrationFaultTest, CrashWithRestartOrphansAndManagerRecovers) {
  Cluster cluster{two_host_config()};
  ClusterManagerConfig mc;
  mc.period = seconds(5);
  mc.consolidate = false;  // isolate the recovery path
  mc.vovo = false;
  mc.dvfs = ClusterManagerConfig::Dvfs::kPinnedMax;
  cluster.install_manager(std::make_unique<ClusterManager>(mc));
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 10.0, 512.0), std::make_unique<wl::BusyLoop>(), 0);

  cluster.run_until(seconds(12));
  ASSERT_TRUE(cluster.apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  EXPECT_EQ(cluster.vm_state(vm), VmState::kOrphaned);
  ASSERT_EQ(cluster.orphaned_vms().size(), 1u);
  EXPECT_EQ(cluster.orphaned_vms().front(), vm);
  EXPECT_FALSE(cluster.apply(Command::migrate(vm, 1)).ok()) << "an orphan cannot be live-migrated";

  cluster.run_until(seconds(30));  // manager tick at t=15 runs the recovery pass
  EXPECT_EQ(cluster.vm_state(vm), VmState::kRunning);
  EXPECT_EQ(cluster.residence(vm), 1u);
  ASSERT_EQ(cluster.recoveries().size(), 1u);
  const VmRecovery& rec = cluster.recoveries().front();
  EXPECT_EQ(rec.vm, vm);
  EXPECT_EQ(rec.crashed_at, seconds(12));
  EXPECT_EQ(rec.restarted_at, seconds(15));
  EXPECT_EQ(rec.latency(), seconds(3));
  EXPECT_EQ(cluster.manager()->restarts_issued(), 1u);
  EXPECT_EQ(cluster.manager()->restarts_abandoned(), 0u);

  // Restart contract: purchased cap back (max frequency → uncompensated),
  // balance empty — the crash burned whatever the dead slot held — and the
  // outage SLA-charged in full.
  auto& dst_sched = dynamic_cast<sched::CreditScheduler&>(cluster.host(1).scheduler());
  const common::VmId s = cluster.slot_on(1, vm);  // created by the restart
  EXPECT_DOUBLE_EQ(dst_sched.cap(s), 10.0);
  EXPECT_GE(cluster.sla().violation_time(vm), seconds(3));
  EXPECT_GT(cluster.host(1).vm(s).total_work, common::Work{})
      << "recovered guest must actually run";
}

TEST(MigrationFaultTest, RestartBackoffGivesUp) {
  // The only live host is too small for the orphan: every recovery attempt
  // fails placement, the backoff doubles, and after max_restart_attempts
  // the VM is abandoned as lost — recovery must terminate, not spin.
  ClusterConfig cc;
  cc.host.trace_stride = SimTime{};
  platform::HostClass big;
  big.name = "big";
  big.memory_mb = 8192.0;
  platform::HostClass small;
  small.name = "small";
  small.memory_mb = 256.0;  // < the orphan's 512 MB reservation
  cc.host_classes = {big, small};
  Cluster cluster{std::move(cc)};
  ClusterManagerConfig mc;
  mc.period = seconds(5);
  mc.consolidate = false;
  mc.vovo = false;
  mc.dvfs = ClusterManagerConfig::Dvfs::kPinnedMax;
  mc.max_restart_attempts = 2;
  mc.restart_backoff = seconds(5);
  cluster.install_manager(std::make_unique<ClusterManager>(mc));
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 10.0, 512.0), std::make_unique<wl::BusyLoop>(), 0);

  cluster.run_until(seconds(12));
  ASSERT_TRUE(cluster.apply(Command::crash_host(0, /*restart_orphans=*/true)).ok());
  // Tick t=15: attempt 1 fails, next retry at t=20. Tick t=20: attempt 2
  // fails and exhausts the budget.
  cluster.run_until(seconds(40));
  EXPECT_EQ(cluster.vm_state(vm), VmState::kLost);
  EXPECT_EQ(cluster.lost_vm_count(), 1u);
  EXPECT_TRUE(cluster.recoveries().empty());
  EXPECT_EQ(cluster.manager()->restarts_issued(), 0u);
  EXPECT_EQ(cluster.manager()->restarts_abandoned(), 1u);
}

TEST(MigrationFaultTest, BrownoutSkipsTicksAndRecovers) {
  Cluster cluster{two_host_config()};
  ClusterManagerConfig mc;
  mc.period = seconds(10);
  mc.dvfs = ClusterManagerConfig::Dvfs::kPinnedMax;
  cluster.install_manager(std::make_unique<ClusterManager>(mc));
  const GlobalVmId vm0 =
      cluster.add_vm(hog_vm("a", 10.0, 512.0), std::make_unique<wl::IdleGuest>(), 0);
  const GlobalVmId vm1 =
      cluster.add_vm(hog_vm("b", 10.0, 512.0), std::make_unique<wl::IdleGuest>(), 1);
  // Planner browned out for [15 s, 35 s): the ticks at 20 and 30 vanish.
  cluster.manager()->add_brownout(seconds(15), seconds(35));

  // Tick t=10 consolidates the spread pair onto one host. Then, inside the
  // blackout, un-consolidate by hand: the drift the absent planner cannot
  // correct until the window ends.
  cluster.run_until(seconds(25));
  EXPECT_EQ(cluster.residence(vm0), cluster.residence(vm1)) << "t=10 tick consolidated";
  const HostId packed = cluster.residence(vm1);
  const HostId other = packed == 0 ? 1 : 0;
  ASSERT_TRUE(cluster.apply(Command::migrate(vm1, other)).ok());
  cluster.run_until(seconds(33));
  EXPECT_NE(cluster.residence(vm0), cluster.residence(vm1))
      << "no tick inside the brownout undoes the drift";

  // First live tick (t=40) re-plans from the drifted state and re-packs.
  cluster.run_until(seconds(60));
  EXPECT_EQ(cluster.residence(vm0), cluster.residence(vm1));
  EXPECT_EQ(cluster.manager()->ticks_skipped(), 2u);  // t=20, t=30
  EXPECT_EQ(cluster.manager()->ticks(), 4u);          // t=10, 40, 50, 60
  EXPECT_GE(cluster.manager()->migrations_issued(), 2u);
}

TEST(MigrationFaultTest, LinkDegradeExtendsInFlightMigration) {
  Cluster cluster{two_host_config()};
  const GlobalVmId vm =
      cluster.add_vm(hog_vm("hog", 20.0, 1024.0), std::make_unique<wl::BusyLoop>(), 0);

  cluster.run_until(seconds(5));
  ASSERT_TRUE(cluster.apply(Command::migrate(vm, 1)).ok());
  const MigrationPlan orig = plan_migration(1024.0, 50.0, cluster.config().migration);
  const SimTime orig_end = seconds(5) + orig.precopy_duration + orig.downtime;

  // Degrade the link 10× mid round 0 (the 1024 MB push spans [5, 6.024]).
  cluster.run_until(seconds(5) + msec(500));
  (void)cluster.apply(Command::set_link_bandwidth(100.0));
  EXPECT_DOUBLE_EQ(cluster.link_bandwidth(), 100.0);

  cluster.run_until(seconds(60));
  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations().front();
  EXPECT_EQ(rec.outcome, MigrationOutcome::kCompleted);
  EXPECT_GT(rec.end, orig_end) << "a slower link must lengthen the migration";
  // Committed-round rule, exactly: round 0 finishes on its old schedule at
  // t=6.024; its 51.2 MB redirt pushes at 100 MB/s until t=6.536 (the
  // 25.6 MB redirt then clears the threshold), and the pause is
  // 25.6/100 s + 20 ms.
  EXPECT_EQ(rec.rounds, 2u);
  EXPECT_EQ(rec.stop, seconds(6) + common::usec(536'000));
  EXPECT_EQ(rec.downtime, msec(276));
  EXPECT_EQ(rec.end, seconds(6) + common::usec(812'000));
  EXPECT_NEAR(rec.transferred_mb, 1024.0 + 51.2 + 25.6, 1e-9);
  EXPECT_EQ(rec.credit_exported, rec.credit_imported);
  EXPECT_EQ(cluster.residence(vm), 1u);
  EXPECT_EQ(cluster.vm_state(vm), VmState::kRunning);
}

}  // namespace
}  // namespace pas::cluster
