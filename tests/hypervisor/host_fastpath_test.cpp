// Fast-path regression tests: the event-driven loop (time skipping +
// incremental runnable tracking) must reproduce the slow-stepped reference
// loop exactly, and the quantum loop's edge paths (spurious wakeups,
// all-over-cap idling) must behave identically in both modes.
#include <gtest/gtest.h>

#include <memory>

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

void expect_identical_runs(Sched kind, bool controller) {
  auto slow = build_mixed_host(/*fast_path=*/false, kind, controller);
  auto fast = build_mixed_host(/*fast_path=*/true, kind, controller);
  slow->run_until(seconds(120));
  fast->run_until(seconds(120));

  // Byte-identical trace: every sampled quantity, every row.
  const auto sa = slow->trace().samples();
  const auto sb = fast->trace().samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    const auto ra = sa[i];
    const auto rb = sb[i];
    EXPECT_EQ(ra.t, rb.t) << "row " << i;
    EXPECT_EQ(ra.freq_mhz, rb.freq_mhz) << "row " << i;
    EXPECT_EQ(ra.global_load_pct, rb.global_load_pct) << "row " << i;
    EXPECT_EQ(ra.absolute_load_pct, rb.absolute_load_pct) << "row " << i;
    for (std::size_t v = 0; v < slow->vm_count(); ++v) {
      EXPECT_EQ(ra.vm_global_pct[v], rb.vm_global_pct[v]) << "row " << i << " vm " << v;
      EXPECT_EQ(ra.vm_absolute_pct[v], rb.vm_absolute_pct[v]) << "row " << i << " vm " << v;
      EXPECT_EQ(ra.vm_credit_pct[v], rb.vm_credit_pct[v]) << "row " << i << " vm " << v;
      EXPECT_EQ(ra.vm_saturated[v], rb.vm_saturated[v]) << "row " << i << " vm " << v;
    }
  }
  // Integer accounting is exactly equal — energy included: the meter
  // integrates per-P-state integer time, so chunking cannot move it.
  EXPECT_EQ(slow->idle_time(), fast->idle_time());
  EXPECT_EQ(slow->cpufreq().transition_count(), fast->cpufreq().transition_count());
  for (common::VmId v = 0; v < slow->vm_count(); ++v) {
    EXPECT_EQ(slow->vm(v).total_busy, fast->vm(v).total_busy) << "vm " << v;
    EXPECT_EQ(slow->vm(v).total_work, fast->vm(v).total_work) << "vm " << v;
    EXPECT_EQ(slow->vm(v).window_wanting, fast->vm(v).window_wanting) << "vm " << v;
  }
  EXPECT_EQ(slow->energy().joules(), fast->energy().joules());
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
    ASSERT_EQ(skipped->now(), stepped->now()) << where;
    EXPECT_EQ(skipped->idle_time(), stepped->idle_time()) << where;
    EXPECT_EQ(skipped->energy().joules(), stepped->energy().joules()) << where;
    for (common::VmId v = 0; v < skipped->vm_count(); ++v) {
      EXPECT_EQ(skipped->vm(v).total_busy, stepped->vm(v).total_busy)
          << where << " vm " << v;
      EXPECT_EQ(skipped->vm(v).window_wanting, stepped->vm(v).window_wanting)
          << where << " vm " << v;
    }
    const auto sa = skipped->trace().samples();
    const auto sb = stepped->trace().samples();
    ASSERT_EQ(sa.size(), sb.size()) << where;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      const auto ra = sa[i];
      const auto rb = sb[i];
      EXPECT_EQ(ra.t, rb.t) << where << " row " << i;
      EXPECT_EQ(ra.freq_mhz, rb.freq_mhz) << where << " row " << i;
      EXPECT_EQ(ra.global_load_pct, rb.global_load_pct) << where << " row " << i;
      EXPECT_EQ(ra.absolute_load_pct, rb.absolute_load_pct) << where << " row " << i;
      for (std::size_t v = 0; v < skipped->vm_count(); ++v) {
        EXPECT_EQ(ra.vm_global_pct[v], rb.vm_global_pct[v])
            << where << " row " << i << " vm " << v;
        EXPECT_EQ(ra.vm_credit_pct[v], rb.vm_credit_pct[v])
            << where << " row " << i << " vm " << v;
        EXPECT_EQ(ra.vm_saturated[v], rb.vm_saturated[v])
            << where << " row " << i << " vm " << v;
      }
    }
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
  auto slow = build(false);
  auto fast = build(true);
  slow->run_until(seconds(20));
  fast->run_until(seconds(20));
  EXPECT_EQ(slow->idle_time(), fast->idle_time());
  EXPECT_EQ(slow->vm(0).total_busy, fast->vm(0).total_busy);
  const auto& web_slow = dynamic_cast<const wl::WebApp&>(slow->workload(0));
  const auto& web_fast = dynamic_cast<const wl::WebApp&>(fast->workload(0));
  EXPECT_EQ(web_slow.completed(), web_fast.completed());
  EXPECT_EQ(web_slow.latency_sec().mean(), web_fast.latency_sec().mean());
  ASSERT_EQ(slow->trace().size(), fast->trace().size());
  for (std::size_t i = 0; i < slow->trace().size(); ++i) {
    EXPECT_EQ(slow->trace().sample(i).vm_global_pct[0],
              fast->trace().sample(i).vm_global_pct[0])
        << "row " << i;
  }
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
  Host slow{[] {
              HostConfig hc;
              hc.trace_stride = SimTime{};
              hc.event_driven_fast_path = false;
              return hc;
            }(),
            std::make_unique<sched::CreditScheduler>()};
  Host fast{[] {
              HostConfig hc;
              hc.trace_stride = SimTime{};
              hc.event_driven_fast_path = true;
              return hc;
            }(),
            std::make_unique<sched::CreditScheduler>()};
  for (Host* h : {&slow, &fast}) {
    VmConfig a;
    a.credit = 15.0;
    h->add_vm(a, std::make_unique<wl::BusyLoop>());
    VmConfig b;
    b.credit = 25.0;
    h->add_vm(b, std::make_unique<wl::GatedBusyLoop>(
                     wl::LoadProfile::pulse(seconds(2), seconds(7), 1.0)));
    h->run_until(common::msec(8765));
  }
  EXPECT_EQ(slow.idle_time(), fast.idle_time());
  for (common::VmId v = 0; v < 2; ++v) {
    EXPECT_EQ(slow.vm(v).total_busy, fast.vm(v).total_busy);
    EXPECT_EQ(slow.vm(v).window_wanting, fast.vm(v).window_wanting);
  }
}

}  // namespace
}  // namespace pas::hv
