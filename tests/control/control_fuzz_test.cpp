// Control-plane fuzz equivalence: a random external command stream is
// nothing but sugar for raw cluster events. For every corpus seed the same
// stream runs twice —
//
//   run A: ctl::ControlPlane over the drawn tasks (install_control);
//   run B: NO control plane; each task hand-compiled into a
//          Cluster::schedule_at hook that performs the identical operation
//          with the identical admission logic (including
//          ClusterManager::admit_external_migration, so external budget
//          draws match).
//
// Hooks arm after the injector and the (null) control plane, so run B's
// events occupy the exact (time, insertion-seq) queue positions run A's
// ControlPlane::arm gives its tasks — the two runs must agree on every
// observable expect_identical checks.
//
// Both runs carry a seeded fault schedule (the chaos tier's config, slow
// link), and the stream is salted with commands scheduled at the EXACT
// instant of each planned host crash, targeting the crashing host: the
// injector arms before the control plane, so at equal times the crash
// fires first and the racing command deterministically observes the
// post-crash world (refused, mostly superseded — never ok, never a crash,
// conservation intact).
//
// The command stream draws from common::substream(seed, "ctl"), and the
// prefix-preservation contract — drawing it perturbs neither the scenario
// nor the fault plan — is asserted per seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../cluster/cluster_fuzz_common.hpp"
#include "cluster/cluster_manager.hpp"
#include "common/random.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "fault/fault.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

fault::FaultConfig chaos_config() {
  fault::FaultConfig cfg;
  cfg.max_crashes = 2;
  cfg.max_migration_aborts = 2;
  cfg.max_link_degrades = 1;
  cfg.max_brownouts = 1;
  return cfg;
}

struct DrawnStream {
  std::vector<ctl::Task> tasks;
  /// Ids of the commands salted onto planned crash instants.
  std::set<std::uint64_t> raced_ids;
};

/// Random operator traffic from the dedicated "ctl" substream, plus one
/// migrate + one crash_host scheduled at the exact instant of every
/// planned host crash (targeting its victim) — the crash-race probes.
DrawnStream draw_stream(const ScenarioSpec& spec, const fault::FaultPlan& plan,
                        std::uint64_t seed) {
  common::Rng rng = common::substream(seed, "ctl");
  const auto horizon_us = static_cast<std::uint64_t>(spec.horizon.us());
  const std::size_t count = 5 + rng.next_below(6);

  struct Pending {
    ctl::Task task;
    bool raced = false;
  };
  std::vector<Pending> pending;

  for (std::size_t i = 0; i < count; ++i) {
    ctl::Task t;
    t.at = common::usec(
        static_cast<std::int64_t>(horizon_us / 20 + rng.next_below(horizon_us * 9 / 10)));
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 4) {
      t.kind = ctl::TaskKind::kMigrate;
      t.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
    } else if (roll < 5) {
      t.kind = ctl::TaskKind::kStopVm;
      t.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
    } else if (roll < 6) {
      t.kind = ctl::TaskKind::kStartVm;
      t.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
    } else if (roll < 7) {
      t.kind = ctl::TaskKind::kRestartVm;
      t.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
    } else if (roll < 8) {
      t.kind = ctl::TaskKind::kCrashHost;
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
      t.restart = rng.chance(0.75);
    } else if (roll < 9) {
      t.kind = ctl::TaskKind::kSetLinkBandwidth;
      t.mb_per_s = rng.uniform(20.0, 200.0);
    } else {
      t.kind = ctl::TaskKind::kAnnotate;
      t.note = "fuzz";
    }
    pending.push_back({std::move(t), false});
  }

  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind != fault::FaultKind::kHostCrash) continue;
    ctl::Task migrate;
    migrate.kind = ctl::TaskKind::kMigrate;
    migrate.at = e.at;  // the exact crash instant: the injector wins the tie
    migrate.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
    migrate.host = e.host;
    pending.push_back({std::move(migrate), true});
    ctl::Task crash;
    crash.kind = ctl::TaskKind::kCrashHost;
    crash.at = e.at;
    crash.host = e.host;
    pending.push_back({std::move(crash), true});
  }

  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) { return a.task.at < b.task.at; });
  DrawnStream stream;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    pending[i].task.id = i + 1;
    if (pending[i].raced) stream.raced_ids.insert(i + 1);
    stream.tasks.push_back(std::move(pending[i].task));
  }
  return stream;
}

/// The hand-compiled equivalent of ControlPlane::apply — the same
/// check → admission → apply sequence, minus the result bookkeeping. Any
/// drift between this and control_plane.cpp is exactly what the
/// differential run detects.
void compile_by_hand(Cluster& cluster, const ctl::Task& task, common::SimTime now) {
  Command cmd;
  switch (task.kind) {
    case ctl::TaskKind::kMigrate: cmd = Command::migrate(task.vm, task.host); break;
    case ctl::TaskKind::kStopVm: cmd = Command::stop_vm(task.vm); break;
    case ctl::TaskKind::kStartVm: cmd = Command::start_vm(task.vm, task.host); break;
    case ctl::TaskKind::kCrashHost: cmd = Command::crash_host(task.host, task.restart); break;
    case ctl::TaskKind::kRestartVm: cmd = Command::restart_vm(task.vm, task.host); break;
    case ctl::TaskKind::kSetLinkBandwidth: cmd = Command::set_link_bandwidth(task.mb_per_s); break;
    case ctl::TaskKind::kAnnotate: return;
  }
  if (!cluster.check(cmd).ok()) return;
  ClusterManager* mgr = cluster.manager();
  if (cmd.kind == CommandKind::kMigrate && mgr != nullptr &&
      !mgr->admit_external_migration(now).ok())
    return;
  (void)cluster.apply(cmd);
}

/// The fields of draw_scenario's output a perturbed generator would move
/// first — enough to catch any cross-stream RNG bleed.
void expect_same_scenario(const ScenarioSpec& a, const ScenarioSpec& b,
                          std::uint64_t seed) {
  ASSERT_EQ(a.hosts, b.hosts) << "seed " << seed;
  ASSERT_EQ(a.sched, b.sched) << "seed " << seed;
  ASSERT_EQ(a.horizon, b.horizon) << "seed " << seed;
  ASSERT_EQ(a.vms.size(), b.vms.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    ASSERT_EQ(a.vms[i].kind, b.vms[i].kind) << "seed " << seed << " vm " << i;
    ASSERT_EQ(a.vms[i].credit, b.vms[i].credit) << "seed " << seed << " vm " << i;
    ASSERT_EQ(a.vms[i].home, b.vms[i].home) << "seed " << seed << " vm " << i;
  }
  ASSERT_EQ(a.script.size(), b.script.size()) << "seed " << seed;
}

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  const fault::FaultConfig chaos = chaos_config();
  std::size_t total_ok = 0, total_refused = 0, raced_fired = 0, raced_superseded = 0;
  std::size_t crashes = 0;

  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    ScenarioSpec spec = draw_scenario(seed);
    spec.migration.link_mb_per_s = 25.0;  // crashes must catch flights
    const fault::FaultPlan plan =
        fault::draw_fault_plan(chaos, seed, spec.hosts, spec.horizon);

    const DrawnStream stream = draw_stream(spec, plan, seed);

    // Prefix preservation: the "ctl" substream the stream drew from is
    // independent of the scenario's own generator and of the chaos
    // substreams — re-drawing everything now must reproduce it all.
    {
      ScenarioSpec again = draw_scenario(seed);
      again.migration.link_mb_per_s = 25.0;
      expect_same_scenario(spec, again, seed);
      const fault::FaultPlan plan_again =
          fault::draw_fault_plan(chaos, seed, spec.hosts, spec.horizon);
      ASSERT_EQ(plan.events.size(), plan_again.events.size()) << "seed " << seed;
      const DrawnStream stream_again = draw_stream(spec, plan, seed);
      ASSERT_EQ(stream.tasks.size(), stream_again.tasks.size()) << "seed " << seed;
      for (std::size_t i = 0; i < stream.tasks.size(); ++i) {
        ASSERT_EQ(stream.tasks[i].at, stream_again.tasks[i].at)
            << "seed " << seed << " task " << i;
        ASSERT_EQ(stream.tasks[i].kind, stream_again.tasks[i].kind)
            << "seed " << seed << " task " << i;
      }
    }

    // Run A: the control plane executes the stream.
    auto a = build_cluster(spec, /*fast_path=*/true);
    a->install_faults(std::make_unique<fault::FaultInjector>(plan));
    a->install_control(std::make_unique<ctl::ControlPlane>(stream.tasks));
    run_spec(*a, spec);

    // Run B: the same stream hand-compiled into raw schedule_at hooks.
    auto b = build_cluster(spec, /*fast_path=*/true);
    b->install_faults(std::make_unique<fault::FaultInjector>(plan));
    for (const ctl::Task& task : stream.tasks) {
      b->schedule_at(task.at, [cluster = b.get(), task](common::SimTime now) {
        compile_by_hand(*cluster, task, now);
      });
    }
    run_spec(*b, spec);

    expect_identical(*a, *b, seed, "control plane vs hand-compiled events");
    if (::testing::Test::HasFatalFailure()) return;
    (void)fuzz::check_conservation(*a, seed);

    // The crash-race probes: scheduled at the exact instant of a planned
    // crash, so they observe the post-crash world — deterministically
    // refused whenever that crash actually fired (a drawn crash can be a
    // no-op on the last live host, in which case the probe may legally
    // succeed — the vacuity guard below keeps the corpus honest).
    for (const ctl::TaskResult& r : a->control()->results()) {
      if (stream.raced_ids.count(r.id) == 0) continue;
      ++raced_fired;
      if (r.status == ctl::TaskStatus::kSuperseded) ++raced_superseded;
    }
    total_ok += a->control()->accepted();
    total_refused += a->control()->rejected() + a->control()->superseded();
    crashes += a->crashed_count();
  }

  // Vacuity guards: the shard must actually exercise acceptance, refusal,
  // real crashes, and crash-race supersessions.
  EXPECT_GT(total_ok, 0u) << "shard " << first << ": no command ever accepted";
  EXPECT_GT(total_refused, 0u) << "shard " << first << ": no command ever refused";
  EXPECT_GT(crashes, 0u) << "shard " << first << ": no host ever crashed";
  EXPECT_GT(raced_fired, 0u) << "shard " << first << ": no crash-race probe fired";
  EXPECT_GT(raced_superseded, 0u)
      << "shard " << first << ": no crash-race probe was superseded";
}

TEST(ControlFuzzTest, EquivalentSeeds0to9) { run_seed_range(0, 10); }
TEST(ControlFuzzTest, EquivalentSeeds10to19) { run_seed_range(10, 10); }
TEST(ControlFuzzTest, EquivalentSeeds20to29) { run_seed_range(20, 10); }

}  // namespace
}  // namespace pas::cluster
