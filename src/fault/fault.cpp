#include "fault/fault.hpp"

#include <algorithm>
#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/random.hpp"
#include "sim/event_queue.hpp"

namespace pas::fault {

namespace {

/// Uniform instant in the middle ~[5%, 90%] of the horizon — late enough
/// that warm-up is over, early enough that the consequences (recovery,
/// re-planned rounds) still play out inside the run.
common::SimTime draw_instant(common::Rng& rng, common::SimTime horizon) {
  return common::usec(static_cast<std::int64_t>(
      rng.uniform(0.05, 0.90) * static_cast<double>(horizon.us())));
}

}  // namespace

FaultPlan draw_fault_plan(const FaultConfig& config, std::uint64_t chaos_seed,
                          std::size_t hosts, common::SimTime horizon) {
  FaultPlan plan;
  if (hosts == 0 || horizon.us() <= 0 || !config.any()) return plan;

  {
    common::Rng rng = common::substream(chaos_seed, "crash");
    std::size_t n =
        config.max_crashes > 0 ? rng.next_below(config.max_crashes + 1) : 0;
    // The cluster refuses to crash its last live host; don't draw plans
    // that are mostly no-ops.
    n = std::min(n, hosts - 1);
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kHostCrash;
      ev.at = draw_instant(rng, horizon);
      ev.host = static_cast<cluster::HostId>(rng.next_below(hosts));
      ev.restart = rng.chance(config.restart_probability);
      plan.events.push_back(ev);
    }
  }
  {
    common::Rng rng = common::substream(chaos_seed, "abort");
    const std::size_t n = config.max_migration_aborts > 0
                              ? rng.next_below(config.max_migration_aborts + 1)
                              : 0;
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kMigrationAbort;
      ev.at = draw_instant(rng, horizon);
      plan.events.push_back(ev);
    }
  }
  {
    common::Rng rng = common::substream(chaos_seed, "link");
    const std::size_t n = config.max_link_degrades > 0
                              ? rng.next_below(config.max_link_degrades + 1)
                              : 0;
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kLinkDegrade;
      ev.at = draw_instant(rng, horizon);
      ev.bandwidth_factor = rng.uniform(0.1, 0.6);
      // Long enough to catch whole migrations, short enough to end inside
      // the run most of the time (a window outrunning the horizon simply
      // never restores — still deterministic).
      ev.until = ev.at + common::usec(static_cast<std::int64_t>(
                             rng.uniform(0.05, 0.25) *
                             static_cast<double>(horizon.us())));
      plan.events.push_back(ev);
    }
  }
  {
    common::Rng rng = common::substream(chaos_seed, "brownout");
    const std::size_t n =
        config.max_brownouts > 0 ? rng.next_below(config.max_brownouts + 1) : 0;
    for (std::size_t i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kBrownout;
      ev.at = draw_instant(rng, horizon);
      ev.until = ev.at + common::usec(static_cast<std::int64_t>(
                             rng.uniform(0.1, 0.3) *
                             static_cast<double>(horizon.us())));
      plan.events.push_back(ev);
    }
  }

  // Time order for readability and for the injector's scheduling order;
  // stable so same-instant events keep their category draw order — one
  // fixed tiebreak, identical in every engine.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::arm(cluster::Cluster& cluster, sim::EventQueue& events) {
  cluster::Cluster* c = &cluster;
  // Degraded windows restore to the bandwidth configured at arm time — the
  // one knob this injector owns; nothing else in the simulator rewrites it.
  const double base_bw = cluster.link_bandwidth();
  for (const FaultEvent& ev : plan_.events) {
    switch (ev.kind) {
      case FaultKind::kHostCrash:
        events.schedule(ev.at, [this, c, host = ev.host,
                                restart = ev.restart](common::SimTime) {
          if (c->apply(cluster::Command::crash_host(host, restart)).ok()) ++crashes_fired_;
        });
        break;
      case FaultKind::kMigrationAbort:
        events.schedule(ev.at, [this, c](common::SimTime) {
          if (c->apply(cluster::Command::abort_oldest_migration()).ok()) ++aborts_fired_;
        });
        break;
      case FaultKind::kLinkDegrade:
        events.schedule(ev.at, [this, c, bw = base_bw * ev.bandwidth_factor](
                                   common::SimTime) {
          (void)c->apply(cluster::Command::set_link_bandwidth(bw));
          ++link_degrades_fired_;
        });
        events.schedule(ev.until, [c, base_bw](common::SimTime) {
          (void)c->apply(cluster::Command::set_link_bandwidth(base_bw));
        });
        break;
      case FaultKind::kBrownout:
        // No event needed: the manager checks its brownout windows at each
        // tick, so registering the window up front is equivalent — and
        // works even for ticks at the window's exact start.
        if (auto* mgr = c->manager()) mgr->add_brownout(ev.at, ev.until);
        break;
    }
  }
}

}  // namespace pas::fault
