// Fast-path regression tests: the event-driven loop (time skipping +
// incremental runnable tracking) must reproduce the slow-stepped reference
// loop exactly, and the quantum loop's edge paths (spurious wakeups,
// all-over-cap idling) must behave identically in both modes.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>

#include "check/divergence.hpp"
#include "core/pas_controller.hpp"
#include "governor/governors.hpp"
#include "hypervisor/host.hpp"
#include "sched/credit2_scheduler.hpp"
#include "sched/credit_scheduler.hpp"
#include "sched/scheduler_factory.hpp"
#include "sched/sedf_scheduler.hpp"
#include "workload/load_profile.hpp"
#include "workload/pi_app.hpp"
#include "workload/synthetic.hpp"
#include "workload/web_app.hpp"

namespace pas::hv {
namespace {

using common::mf_seconds;
using common::seconds;
using common::SimTime;

/// Claims to be runnable but never performs work — the spurious-wakeup
/// path (`done <= 0`, `busy == 0`). Uses the default "unknown" transition
/// hint, so it also exercises the poll-every-quantum fallback.
class SpuriousWorkload final : public wl::Workload {
 public:
  void advance_to(SimTime now) override { now_ = now; }
  [[nodiscard]] bool runnable() const override { return true; }
  common::Work consume(SimTime /*now*/, common::Work /*budget*/) override {
    ++consume_calls_;
    return common::Work{};
  }
  [[nodiscard]] std::uint64_t consume_calls() const { return consume_calls_; }

 private:
  SimTime now_{};
  std::uint64_t consume_calls_ = 0;
};

enum class Sched { kCredit, kSedf, kCredit2 };

std::unique_ptr<Scheduler> make_sched(Sched kind) {
  switch (kind) {
    case Sched::kCredit:
      return std::make_unique<sched::CreditScheduler>();
    case Sched::kSedf:
      return std::make_unique<sched::SedfScheduler>();
    case Sched::kCredit2:
      return std::make_unique<sched::Credit2Scheduler>();
  }
  return nullptr;
}

/// A small hosting mix that exercises every workload kind and both idle
/// tails (no-runnable stretches and over-cap stretches).
std::unique_ptr<Host> build_mixed_host(bool fast_path, Sched kind, bool controller) {
  HostConfig hc;
  hc.trace_stride = seconds(1);
  hc.event_driven_fast_path = fast_path;
  auto host = std::make_unique<Host>(hc, make_sched(kind));
  host->set_governor(gov::make_governor("stable-ondemand"));
  if (controller) host->set_controller(std::make_unique<core::PasController>());

  {
    VmConfig cfg;
    cfg.name = "web";
    cfg.credit = 10.0;
    wl::WebAppConfig wc;
    wc.queue_capacity = 200;
    wc.seed = 42;
    const double rate = wl::WebApp::rate_for_demand(10.0, wc.request_cost);
    host->add_vm(cfg, std::make_unique<wl::WebApp>(
                          wl::LoadProfile::pulse(seconds(10), seconds(70), rate), wc));
  }
  {
    VmConfig cfg;
    cfg.name = "hog";
    cfg.credit = 15.0;
    host->add_vm(cfg, std::make_unique<wl::GatedBusyLoop>(
                          wl::LoadProfile::pulse(seconds(30), seconds(90), 1.0)));
  }
  {
    VmConfig cfg;
    cfg.name = "batch";
    cfg.credit = 20.0;
    host->add_vm(cfg, std::make_unique<wl::PiApp>(mf_seconds(3.0), seconds(40)));
  }
  {
    VmConfig cfg;
    cfg.name = "idle";
    cfg.credit = 10.0;
    host->add_vm(cfg, std::make_unique<wl::IdleGuest>());
  }
  return host;
}

struct ModeRuns {
  std::unique_ptr<Host> slow;
  std::unique_ptr<Host> fast;
};

/// Builds a reference (slow-stepped) and a fast-path host with `build`,
/// runs both through each stop in turn and compares them byte for byte at
/// every one (check::first_divergence: every trace row, integer time
/// accounting, the saturation flags and energy down to the exact double).
ModeRuns expect_modes_identical(const std::function<std::unique_ptr<Host>(bool)>& build,
                                std::initializer_list<SimTime> stops) {
  ModeRuns runs{build(/*fast_path=*/false), build(/*fast_path=*/true)};
  for (const SimTime t : stops) {
    runs.slow->run_until(t);
    runs.fast->run_until(t);
    EXPECT_EQ(check::first_divergence(*runs.slow, *runs.fast), "") << "at " << t.us() << " us";
  }
  return runs;
}

void expect_identical_runs(Sched kind, bool controller) {
  (void)expect_modes_identical(
      [&](bool fast_path) { return build_mixed_host(fast_path, kind, controller); },
      {seconds(120)});
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCredit) {
  expect_identical_runs(Sched::kCredit, /*controller=*/false);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCreditWithPasController) {
  expect_identical_runs(Sched::kCredit, /*controller=*/true);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopSedf) {
  expect_identical_runs(Sched::kSedf, /*controller=*/false);
}

TEST(HostFastPathTest, TraceIdenticalToSlowLoopCredit2) {
  expect_identical_runs(Sched::kCredit2, /*controller=*/false);
}

TEST(HostFastPathTest, BulkIdleSkipMatchesSteppedRun) {
  // The cluster's sparse driver replaces run_until(target) with
  // skip_idle_to(target) whenever the quiescence certificate covers the
  // segment. The two must be byte-identical — trace rows, idle time,
  // energy down to the exact double — both across the skipped stretch and
  // after the host wakes back up.
  auto build = [] {
    HostConfig hc;
    hc.trace_stride = seconds(1);
    hc.event_driven_fast_path = true;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig cfg;
    cfg.name = "gated";
    cfg.credit = 20.0;
    host->add_vm(cfg, std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile{{
                          {seconds(2), 1.0},
                          {seconds(5), 0.0},
                          {seconds(40), 1.0},
                          {seconds(45), 0.0},
                      }}));
    VmConfig idle;
    idle.name = "idle";
    idle.credit = 10.0;
    host->add_vm(idle, std::make_unique<wl::IdleGuest>());
    return host;
  };
  auto skipped = build();
  auto stepped = build();

  auto expect_equal = [&](const char* where) {
    EXPECT_EQ(check::first_divergence(*skipped, *stepped), "") << where;
  };

  // Phase 1: run both through the busy pulse into the idle stretch.
  skipped->run_until(seconds(10));
  stepped->run_until(seconds(10));
  expect_equal("after pulse");

  // Phase 2: the certificate must cover the idle stretch (next real
  // activity is the 40 s profile edge); bulk-skip one host, step the other.
  ASSERT_GE(skipped->next_activity_time(), seconds(30));
  skipped->skip_idle_to(seconds(30));
  stepped->run_until(seconds(30));
  expect_equal("after skip");

  // Phase 3: both continue through the wake-up pulse — the skip must have
  // left every piece of state (periodic phases, monitor windows, credit
  // refill) exactly where the stepped run put it.
  skipped->run_until(seconds(60));
  stepped->run_until(seconds(60));
  // The 40-45 s pulse ran (capped at 20 % credit, so ~1.6 s total busy
  // across both pulses — well above the ~0.6 s of the first alone).
  EXPECT_GT(skipped->vm(0).total_busy, seconds(1));
  expect_equal("after wake-up");
}

TEST(HostFastPathTest, OffGridEventPeriodsStayIdentical) {
  // Periodic events whose period is not a multiple of the quantum cut the
  // reference loop's slices short and shift every later quantum boundary.
  // The no-runnable skip crosses such events, so its hint wake-up boundary
  // must be recomputed on the re-anchored grid — regression for a bug where
  // it kept the grid of the skip's start and woke one quantum off.
  auto build = [](bool fast) {
    HostConfig hc;
    hc.trace_stride = common::msec(15);    // off the 10 ms quantum grid
    hc.monitor_window = common::msec(730);  // also off-grid
    hc.event_driven_fast_path = fast;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    VmConfig cfg;
    cfg.name = "web";
    cfg.credit = 5.0;
    wl::WebAppConfig wc;
    wc.seed = 7;
    const double rate = wl::WebApp::rate_for_demand(5.0, wc.request_cost);
    host->add_vm(cfg, std::make_unique<wl::WebApp>(
                          wl::LoadProfile::pulse(seconds(3), seconds(6), rate), wc));
    return host;
  };
  const auto [slow, fast] = expect_modes_identical(build, {seconds(20)});
  const auto& web_slow = dynamic_cast<const wl::WebApp&>(slow->workload(0));
  const auto& web_fast = dynamic_cast<const wl::WebApp&>(fast->workload(0));
  EXPECT_EQ(web_slow.completed(), web_fast.completed());
  EXPECT_EQ(web_slow.latency_sec().mean(), web_fast.latency_sec().mean());
}

TEST(HostFastPathTest, SpuriousWakeupRetriesOthers) {
  // A workload that claims runnable but consumes nothing must not absorb
  // the quantum: the scheduler retries and the real hog gets the CPU.
  for (const bool fast : {false, true}) {
    HostConfig hc;
    hc.trace_stride = SimTime{};
    hc.event_driven_fast_path = fast;
    Host host{hc, std::make_unique<sched::CreditScheduler>()};
    VmConfig ghost;
    ghost.name = "ghost";
    ghost.credit = 50.0;
    auto spurious = std::make_unique<SpuriousWorkload>();
    const auto* sp = spurious.get();
    const auto ghost_id = host.add_vm(ghost, std::move(spurious));
    VmConfig hog;
    hog.name = "hog";
    hog.credit = 30.0;
    const auto hog_id = host.add_vm(hog, std::make_unique<wl::BusyLoop>());
    host.run_until(seconds(10));
    EXPECT_EQ(host.vm(ghost_id).total_busy, SimTime{}) << "fast=" << fast;
    EXPECT_GT(sp->consume_calls(), 100u) << "fast=" << fast;
    EXPECT_NEAR(host.vm(hog_id).total_busy.sec(), 3.0, 0.1) << "fast=" << fast;
    // Once a spurious wakeup blocks the VM for the slice it no longer
    // counts as "wanting" the CPU, so it must NOT read as saturated.
    EXPECT_FALSE(host.vm_saturated_last_window(ghost_id)) << "fast=" << fast;
  }
}

TEST(HostFastPathTest, SpuriousOnlyVmDoesNotHang) {
  HostConfig hc;
  hc.trace_stride = SimTime{};
  Host host{hc, std::make_unique<sched::CreditScheduler>()};
  VmConfig cfg;
  cfg.credit = 50.0;
  host.add_vm(cfg, std::make_unique<SpuriousWorkload>());
  host.run_until(seconds(5));
  EXPECT_EQ(host.now(), seconds(5));
  EXPECT_EQ(host.idle_time(), seconds(5));
}

TEST(HostFastPathTest, AllOverCapIdleAccruesWanting) {
  // A single capped hog: the CPU idles 80 % of the time while the VM keeps
  // wanting it — the saturation signal the monitor feeds the controllers.
  for (const bool fast : {false, true}) {
    HostConfig hc;
    hc.trace_stride = SimTime{};
    hc.event_driven_fast_path = fast;
    Host host{hc, std::make_unique<sched::CreditScheduler>()};
    VmConfig cfg;
    cfg.name = "v20";
    cfg.credit = 20.0;
    const auto id = host.add_vm(cfg, std::make_unique<wl::BusyLoop>());
    // Stop just shy of the window close so window_wanting is observable.
    host.run_until(common::msec(990));
    EXPECT_NEAR(host.window_wanting_fraction(id), 0.99, 0.011) << "fast=" << fast;
    host.run_until(seconds(10));
    EXPECT_TRUE(host.vm_saturated_last_window(id)) << "fast=" << fast;
    EXPECT_NEAR(host.vm(id).total_busy.sec(), 2.0, 0.1) << "fast=" << fast;
    EXPECT_NEAR(host.idle_time().sec(), 8.0, 0.1) << "fast=" << fast;
  }
}

TEST(HostFastPathTest, OverCapIdleIdenticalAcrossModes) {
  // Over-cap idling down to the microsecond: both modes agree on the
  // wanting accrual, busy time and idle time.
  (void)expect_modes_identical(
      [](bool fast_path) {
        HostConfig hc;
        hc.trace_stride = SimTime{};
        hc.event_driven_fast_path = fast_path;
        auto h = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
        VmConfig a;
        a.credit = 15.0;
        h->add_vm(a, std::make_unique<wl::BusyLoop>());
        VmConfig b;
        b.credit = 25.0;
        h->add_vm(b, std::make_unique<wl::GatedBusyLoop>(
                         wl::LoadProfile::pulse(seconds(2), seconds(7), 1.0)));
        return h;
      },
      {common::msec(8765)});
}

// --- over-cap refill collapse (Host::collapse_refills) ---
//
// A 2-5 % hog that gets a 10 ms quantum overdraws by ~9 ms and then sits
// out about ten 30 ms refills; the fast path crosses every refill that
// revives nobody in one step. Each test compares it byte for byte with the
// slow-stepped reference loop.

VmConfig capped(const char* name, double credit) {
  VmConfig cfg;
  cfg.name = name;
  cfg.credit = credit;
  return cfg;
}

/// Deep over-cap hogs at 2-5 % caps (3.3 % refills a fractional 990 µs)
/// beside a web tenant and an idle VM.
std::unique_ptr<Host> build_deep_overcap_host(bool fast_path, Sched kind) {
  HostConfig hc;
  hc.trace_stride = common::msec(500);
  hc.event_driven_fast_path = fast_path;
  auto host = std::make_unique<Host>(hc, make_sched(kind));
  host->add_vm(capped("hog2", 2.0), std::make_unique<wl::BusyLoop>());
  host->add_vm(capped("hog3", 3.3), std::make_unique<wl::BusyLoop>());
  host->add_vm(capped("hog5", 5.0), std::make_unique<wl::BusyLoop>());
  wl::WebAppConfig wc;
  wc.seed = 11;
  const double rate = wl::WebApp::rate_for_demand(4.0, wc.request_cost);
  host->add_vm(capped("web", 10.0),
               std::make_unique<wl::WebApp>(
                   wl::LoadProfile::pulse(seconds(4), seconds(9), rate), wc));
  host->add_vm(capped("idle", 10.0), std::make_unique<wl::IdleGuest>());
  return host;
}

TEST(HostFastPathTest, DeepOverCapHogsIdenticalAcrossModes) {
  for (const Sched kind : {Sched::kCredit, Sched::kSedf, Sched::kCredit2}) {
    const auto [slow, fast] = expect_modes_identical(
        [kind](bool fast_path) { return build_deep_overcap_host(fast_path, kind); },
        {seconds(15)});
    const std::string where = "sched " + std::string(slow->scheduler().name());
    EXPECT_EQ(slow->refills_collapsed(), 0u) << where;  // reference mode never collapses
    if (kind == Sched::kCredit) {
      // The hogs really sit in deep debt, so refills are crossed in bulk.
      EXPECT_GT(fast->refills_collapsed(), 100u) << where;
    } else {
      EXPECT_EQ(fast->refills_collapsed(), 0u) << where;  // the safe default
    }
  }
}

TEST(HostFastPathTest, TransitionHintMidCollapseStopsIt) {
  // A gated hog whose gate opens and closes at off-grid instants inside
  // the deep hogs' over-cap spans: the collapse must stop short of each
  // hint, and the hop after it must wake on the hint's poll boundary.
  auto build = [](bool fast_path) {
    HostConfig hc;
    hc.trace_stride = common::msec(250);
    hc.event_driven_fast_path = fast_path;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    host->add_vm(capped("hog2", 2.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("hog4", 4.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("gated", 3.0),
                 std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile::pulse(
                     common::msec(157) + common::usec(3), common::msec(2718) + common::usec(7),
                     1.0)));
    host->add_vm(capped("idle", 5.0), std::make_unique<wl::IdleGuest>());
    return host;
  };
  EXPECT_GT(expect_modes_identical(build, {seconds(6)}).fast->refills_collapsed(), 0u);
}

TEST(HostFastPathTest, ChunkedRunUntilOffGridIdentical) {
  // run_until bounds at off-grid instants cut collapses short (`until` is
  // a strict bound) and re-anchor the quantum grid — in the reference loop
  // too, so both modes step the same chunks and must agree at every one.
  const ModeRuns runs = expect_modes_identical(
      [](bool fast_path) { return build_deep_overcap_host(fast_path, Sched::kCredit); },
      {common::usec(37'001),    common::msec(301),
       common::usec(999'999),   common::msec(1000),
       common::usec(1'000'001), common::msec(2345),
       common::usec(4'321'987), common::msec(7777),
       seconds(12)});
  EXPECT_GT(runs.fast->refills_collapsed(), 0u);
}

TEST(HostFastPathTest, MonitorCloseCoincidingWithRefillIdentical) {
  // With a 1 s monitor window and 30 ms accounting, the refill at t = 3 s
  // shares its instant with a window close: the collapse must stop before
  // it (the close is another task's fire) so both fire in reference
  // (time, seq) order. Run both modes through t = 3 s exactly, then on.
  auto build = [](bool fast_path) {
    HostConfig hc;
    hc.trace_stride = seconds(1);
    hc.event_driven_fast_path = fast_path;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    host->add_vm(capped("hog2", 2.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("hog5", 5.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("idle", 10.0), std::make_unique<wl::IdleGuest>());
    return host;
  };
  EXPECT_GT(expect_modes_identical(build, {seconds(3), seconds(8)}).fast->refills_collapsed(),
            0u);
}

TEST(HostFastPathTest, ControllerTickSharingRefillInstantIdentical) {
  // A 90 ms PAS controller shares every third refill instant with the
  // accounting task and, having re-armed less recently, fires FIRST there:
  // its set_cap must see the balance before that refill. The collapse
  // bound is strict, so such a refill is left to the queue, in order.
  auto build = [](bool fast_path) {
    HostConfig hc;
    hc.trace_stride = common::msec(450);
    hc.event_driven_fast_path = fast_path;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    core::PasConfig pc;
    pc.period = common::msec(90);
    pc.down_patience_ticks = 3;
    host->set_controller(std::make_unique<core::PasController>(pc));
    host->add_vm(capped("hog2", 2.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("hog3", 3.3), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("gated", 30.0),
                 std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile{{
                     {common::msec(2500), 1.0},
                     {common::msec(5100), 0.0},
                     {common::msec(9300), 1.0},
                     {common::msec(11700), 0.0},
                 }}));
    return host;
  };
  EXPECT_GT(expect_modes_identical(build, {seconds(15)}).fast->refills_collapsed(), 0u);
}

TEST(HostFastPathTest, GuestAttachedRunnableRePollsItsHint) {
  // A guest handed onto a slot (a migration's attach) arrives runnable
  // while the slot still caches the parked IdleGuest's "never" hint. The
  // fast path must ask the new workload for its hint although it stays
  // runnable: the gate closes at an off-grid instant while the guest sits
  // over its 5 % cap, and a host that kept the stale hint would carry it
  // as runnable past the close, where the reference loop has seen it
  // block. (Skipping next_transition_time for a VM that stays runnable
  // under an unexpired hint fails here.)
  auto build = [](bool fast_path) {
    HostConfig hc;
    hc.trace_stride = common::msec(100);
    hc.event_driven_fast_path = fast_path;
    auto host = std::make_unique<Host>(hc, std::make_unique<sched::CreditScheduler>());
    host->add_vm(capped("hog", 50.0), std::make_unique<wl::BusyLoop>());
    host->add_vm(capped("arrival", 5.0), std::make_unique<wl::IdleGuest>());
    return host;
  };
  ModeRuns runs{build(/*fast_path=*/false), build(/*fast_path=*/true)};
  for (Host* host : {runs.slow.get(), runs.fast.get()}) {
    host->run_until(seconds(2));
    host->attach_guest(1,
                       std::make_unique<wl::GatedBusyLoop>(wl::LoadProfile::pulse(
                           seconds(1), seconds(4) + common::usec(5'003), 1.0)),
                       SimTime{});
    host->run_until(seconds(8));
  }
  EXPECT_EQ(check::first_divergence(*runs.slow, *runs.fast), "");
}

}  // namespace
}  // namespace pas::hv
