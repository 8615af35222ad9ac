// Deferred catch-up of quiescent hosts: a host whose quiescence certificate
// covers a segment is not advanced at all — it lags behind the cluster
// clock, across any number of SLA samples, until it turns active, a
// cluster event may touch it, or run_until returns. Each way a lagging host
// can be woken is driven here on purpose:
//
//   * it receives a live migration (a schedule_at hook calling migrate);
//   * a fault plan crashes it, and a hook restarts its orphans on another
//     lagging host;
//   * control-plane tasks stop, start and migrate VMs onto it;
//   * a hook flips VOVO power on an empty lagging host (the energy
//     snapshot must see the caught-up meter) and rewrites a cap on it;
//   * run_until returns at odd instants (every host must be handed back
//     synced to the cluster clock).
//
// Each scenario must be byte-identical — traces, idle time, energy,
// migrations, SLA counters — to the reference slow-stepped loop
// (fast_path=false, which never lags: its certificate is never issued) and
// across executor thread counts {1, 2, 4}.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster_fuzz_common.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "fault/fault.hpp"

namespace pas::cluster {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;

enum class Poke { kMigration, kCrash, kControl, kHook };

const char* name(Poke p) {
  switch (p) {
    case Poke::kMigration: return "migration";
    case Poke::kCrash: return "crash";
    case Poke::kControl: return "control";
    case Poke::kHook: return "hook";
  }
  return "?";
}

constexpr std::size_t kHosts = 5;

// Host 0 runs a VM that is always busy; host 1 serves a short web pulse and
// then idles; host 2 holds two idle guests (quiescent from the first
// segment on); host 3 sleeps until its guest's own 50 s pulse wakes it;
// host 4 holds nothing but its hypervisor agent.
std::unique_ptr<Cluster> build(Poke poke, bool fast_path, std::size_t threads) {
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(kHosts, platform::HostClass{"host"});
  cc.host.trace_stride = seconds(1);
  cc.host.event_driven_fast_path = fast_path;
  cc.execution.threads = threads;
  auto c = std::make_unique<Cluster>(std::move(cc));

  const auto add = [&](double credit, std::unique_ptr<wl::Workload> w, HostId home) {
    ClusterVmConfig vc;
    vc.vm.name = "vm" + std::to_string(c->vm_count());
    vc.vm.credit = credit;
    vc.memory_mb = 256.0;
    return c->add_vm(std::move(vc), std::move(w), home);
  };
  wl::WebAppConfig wc;
  wc.seed = 11;
  add(30.0, std::make_unique<wl::BusyLoop>(), 0);  // vm 0
  add(20.0,
      std::make_unique<wl::WebApp>(
          wl::LoadProfile::pulse(seconds(2), seconds(6),
                                 wl::WebApp::rate_for_demand(15.0, wc.request_cost)),
          wc),
      1);                                           // vm 1
  add(10.0, std::make_unique<wl::IdleGuest>(), 2);  // vm 2
  add(10.0, std::make_unique<wl::IdleGuest>(), 2);  // vm 3
  add(25.0,
      std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile::pulse(seconds(50), seconds(55), 1.0)),
      3);                                           // vm 4

  Cluster* cp = c.get();
  switch (poke) {
    case Poke::kMigration:
      // The busy guest lands on host 2 after ~30 s of lag there.
      cp->schedule_at(seconds(30),
                      [cp](SimTime) { EXPECT_TRUE(cp->apply(Command::migrate(0, 2)).ok()); });
      break;
    case Poke::kCrash: {
      fault::FaultPlan plan;
      fault::FaultEvent crash;
      crash.kind = fault::FaultKind::kHostCrash;
      crash.at = seconds(40);
      crash.host = 2;
      crash.restart = true;
      plan.events.push_back(crash);
      c->install_faults(std::make_unique<fault::FaultInjector>(plan));
      // Recovery onto host 3, itself still lagging at 45 s.
      cp->schedule_at(seconds(45), [cp](SimTime) {
        EXPECT_TRUE(cp->apply(Command::restart_vm(2, 3)).ok());
        EXPECT_TRUE(cp->apply(Command::restart_vm(3, 4)).ok());
      });
      break;
    }
    case Poke::kControl: {
      std::vector<ctl::Task> tasks;
      const auto task = [&](SimTime at, ctl::TaskKind kind, std::uint32_t vm,
                            std::uint32_t host) {
        ctl::Task t;
        t.id = tasks.size() + 1;
        t.at = at;
        t.kind = kind;
        t.vm = vm;
        t.host = host;
        tasks.push_back(t);
      };
      task(seconds(20), ctl::TaskKind::kStopVm, 3, 0);
      task(seconds(25), ctl::TaskKind::kStartVm, 3, 3);
      task(msec(33'500), ctl::TaskKind::kMigrate, 0, 4);
      c->install_control(std::make_unique<ctl::ControlPlane>(std::move(tasks)));
      break;
    }
    case Poke::kHook:
      cp->schedule_at(seconds(12),
                      [cp](SimTime) { EXPECT_TRUE(cp->apply(Command::power(4, false)).ok()); });
      cp->schedule_at(msec(27'300), [cp](SimTime) {
        cp->host(2).scheduler().set_cap(2, 7.0);
        cp->host(2).notify_workload_changed(2);
      });
      cp->schedule_at(seconds(37),
                      [cp](SimTime) { EXPECT_TRUE(cp->apply(Command::power(4, true)).ok()); });
      break;
  }
  return c;
}

void run(Cluster& c) {
  for (const SimTime t : {seconds(7), msec(19'500), seconds(33), seconds(48), seconds(70)}) {
    c.run_until(t);
    for (HostId h = 0; h < c.host_count(); ++h)
      ASSERT_EQ(c.host(h).now(), t) << "host " << h << " handed back lagging";
  }
}

// The poke really happened (and did what the scenario says).
void expect_poked(const Cluster& c, Poke poke) {
  switch (poke) {
    case Poke::kMigration:
      ASSERT_EQ(c.migrations().size(), 1u);
      EXPECT_EQ(c.migrations()[0].outcome, MigrationOutcome::kCompleted);
      EXPECT_EQ(c.residence(0), 2u);
      break;
    case Poke::kCrash:
      EXPECT_TRUE(c.crashed(2));
      EXPECT_EQ(c.recoveries().size(), 2u);
      EXPECT_EQ(c.residence(2), 3u);
      EXPECT_EQ(c.residence(3), 4u);
      break;
    case Poke::kControl:
      EXPECT_EQ(c.vm_state(3), VmState::kRunning);
      EXPECT_EQ(c.residence(3), 3u);
      EXPECT_EQ(c.residence(0), 4u);
      break;
    case Poke::kHook:
      EXPECT_TRUE(c.powered_on(4));
      EXPECT_EQ(c.host(2).scheduler().cap(2), 7.0);
      // The 25 s powered-off stretch is excluded from host 4's energy.
      EXPECT_LT(c.host_energy_joules(4), c.host_energy_joules(2));
      break;
  }
}

void expect_deferral_identical(Poke poke) {
  auto reference = build(poke, /*fast_path=*/false, 1);
  run(*reference);
  if (::testing::Test::HasFatalFailure()) return;
  expect_poked(*reference, poke);
  for (const std::size_t threads : {1, 2, 4}) {
    auto fast = build(poke, /*fast_path=*/true, threads);
    run(*fast);
    if (::testing::Test::HasFatalFailure()) return;
    fuzz::expect_identical(*reference, *fast, 0,
                           std::string(name(poke)) + " reference vs fast, " +
                               std::to_string(threads) + " threads");
    if (::testing::Test::HasFatalFailure()) return;
    // Non-vacuity: the quiescent hosts really lagged, each catch-up
    // crossing many SLA-sampled segments at once.
    const EngineStats& es = fast->engine_stats();
    EXPECT_GT(es.bulk_skips, 150u) << name(poke);
    EXPECT_GT(es.catch_ups, 0u) << name(poke);
    EXPECT_GT(es.bulk_skips, 3 * es.catch_ups) << name(poke);
  }
}

TEST(ClusterDeferralTest, LaggingHostReceivesMigration) {
  expect_deferral_identical(Poke::kMigration);
}

TEST(ClusterDeferralTest, LaggingHostCrashedByFaultPlan) {
  expect_deferral_identical(Poke::kCrash);
}

TEST(ClusterDeferralTest, LaggingHostTouchedByControlTasks) {
  expect_deferral_identical(Poke::kControl);
}

TEST(ClusterDeferralTest, LaggingHostTouchedByScheduleAtHooks) {
  expect_deferral_identical(Poke::kHook);
}

// The sampler alone never forces a sync, so a fleet with no other cluster
// event lags all the way to the run_until return — and still matches.
TEST(ClusterDeferralTest, SamplerOnlyRunLagsUntilReturn) {
  auto reference = build(Poke::kHook, /*fast_path=*/false, 1);
  auto fast = build(Poke::kHook, /*fast_path=*/true, 1);
  reference->run_until(seconds(11));
  fast->run_until(seconds(11));
  fuzz::expect_identical(*reference, *fast, 0, "sampler-only");
  // Hosts 2 and 4 lag from their first quiescent segment to the return:
  // one catch-up each, however many samples they crossed.
  EXPECT_LE(fast->engine_stats().catch_ups, 4u);
  EXPECT_GT(fast->engine_stats().bulk_skips, 20u);
}

}  // namespace
}  // namespace pas::cluster
