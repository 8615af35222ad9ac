// Control-plane determinism harness: scripted command streams over the
// shared differential corpus (tests/cluster/cluster_fuzz_common.hpp) must
// leave every engine in the same state — reference slow-stepped loop,
// event-driven fast path, and the parallel engine at 2, 4 and hardware
// threads — with byte-identical traces AND byte-identical result logs.
//
// On top of identity, the record→replay loop closes like PR 5's demand
// traces: the recorded result log re-expressed as a no-op annotation
// stream (ctl::results_to_annotations) is re-injected into a fresh run,
// where every annotation must resolve ok (it commands nothing) and the
// re-recorded stream must match byte-exactly — annotate results pass
// their notes through verbatim, so the stream is a fixed point of
// record→re-inject. (The annotated run is NOT compared against a
// command-free one: scheduled events are part of scenario identity — an
// extra segment boundary legitimately re-times intra-window scheduling —
// and the determinism contract is same-events, any-engine.)
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../cluster/cluster_fuzz_common.hpp"
#include "common/random.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"

namespace pas::cluster {
namespace {

using fuzz::build_cluster;
using fuzz::draw_scenario;
using fuzz::expect_engines_identical;
using fuzz::run_spec;
using fuzz::ScenarioSpec;

/// A deterministic operator-traffic stream for `spec`, drawn from the
/// dedicated "ctl" substream so scenario draws are untouched (the fuzz
/// suite asserts that prefix property; here we just rely on it). Ids and
/// targets are always in range; whether each command is ACCEPTED depends
/// on cluster state at fire time, which is exactly what the result log
/// must reproduce byte-for-byte.
std::vector<ctl::Task> draw_commands(const ScenarioSpec& spec, std::uint64_t seed) {
  common::Rng rng = common::substream(seed, "ctl");
  const auto horizon_us = static_cast<std::uint64_t>(spec.horizon.us());
  const std::size_t count = 6 + rng.next_below(6);

  std::vector<std::uint64_t> times;
  times.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Inside (5%, 95%) of the horizon: every command actually fires.
    times.push_back(horizon_us / 20 + rng.next_below(horizon_us * 9 / 10));
  }
  std::sort(times.begin(), times.end());

  std::vector<ctl::Task> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ctl::Task t;
    t.id = i + 1;
    t.at = common::usec(static_cast<std::int64_t>(times[i]));
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
      t.kind = ctl::TaskKind::kCrashHost;
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
      t.restart = rng.chance(0.75);
    } else if (roll < 8) {
      t.kind = ctl::TaskKind::kRestartVm;
      t.vm = static_cast<std::uint32_t>(rng.next_below(spec.vms.size()));
      t.host = static_cast<std::uint32_t>(rng.next_below(spec.hosts));
    } else if (roll < 9) {
      t.kind = ctl::TaskKind::kSetLinkBandwidth;
      t.mb_per_s = rng.uniform(20.0, 200.0);
    } else {
      t.kind = ctl::TaskKind::kAnnotate;
      t.note = "cmd #" + std::to_string(t.id);
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// What a shard exercised — a corpus whose commands were all rejected (or
/// all trivially accepted) would be testing much less than it claims.
struct ControlActivity {
  std::size_t fired = 0;
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t superseded = 0;
};

void run_seed_range(std::uint64_t first, std::uint64_t count) {
  ControlActivity activity;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const ScenarioSpec spec = draw_scenario(seed);
    const std::vector<ctl::Task> commands = draw_commands(spec, seed);

    // Cluster state AND the published result log, byte for byte, on the
    // fast path at every executor count.
    std::vector<fuzz::Engine> engines = fuzz::parallel_engines();
    engines.insert(engines.begin(), {true, 1});
    const auto runs = expect_engines_identical(spec, seed, {false, 1}, engines, [&](Cluster& c) {
      c.install_control(std::make_unique<ctl::ControlPlane>(commands));
    });
    if (runs.empty()) return;
    const auto& slow = runs.front();
    ASSERT_EQ(slow->control()->results().size(), commands.size())
        << "seed " << seed << ": a command fell off the queue";

    // --- record → re-inject → re-record ---------------------------------
    // The recorded outcomes, re-expressed as no-op annotations, re-injected
    // into a fresh run: every annotation resolves ok and the re-export is
    // byte-exact.
    const std::string annotations = ctl::results_to_annotations(slow->control()->results());
    std::vector<ctl::Task> replay = ctl::parse_tasks(
        annotations, "<annotations>", {spec.hosts, spec.vms.size()});

    auto annotated = build_cluster(spec, /*fast_path=*/true);
    annotated->install_control(std::make_unique<ctl::ControlPlane>(std::move(replay)));
    run_spec(*annotated, spec);
    ASSERT_EQ(annotated->control()->results().size(), slow->control()->results().size())
        << "seed " << seed << ": an annotation fell off the queue";
    for (const ctl::TaskResult& r : annotated->control()->results()) {
      EXPECT_EQ(r.status, ctl::TaskStatus::kOk)
          << "seed " << seed << " id " << r.id << ": an annotation was not a no-op";
    }
    EXPECT_EQ(ctl::results_to_annotations(annotated->control()->results()), annotations)
        << "seed " << seed << ": annotation stream is not a fixed point";

    activity.fired += slow->control()->results().size();
    activity.ok += slow->control()->accepted();
    activity.rejected += slow->control()->rejected();
    activity.superseded += slow->control()->superseded();
  }

  // Vacuity guards: the corpus must actually exercise both sides of the
  // accept/reject split (floors well under the deterministic actuals).
  EXPECT_GT(activity.fired, 0u) << "shard " << first << ": no command ever fired";
  EXPECT_GT(activity.ok, 0u) << "shard " << first << ": no command was ever accepted";
  EXPECT_GT(activity.rejected + activity.superseded, 0u)
      << "shard " << first << ": no command was ever refused";
}

// A 24-seed slice of the shared corpus (each seed runs the slow reference,
// the fast path at every executor count, and the annotated re-run),
// sharded for ctest parallelism and narrow failure ranges.
TEST(ControlReplayTest, ReplayIdenticalSeeds0to7) { run_seed_range(0, 8); }
TEST(ControlReplayTest, ReplayIdenticalSeeds8to15) { run_seed_range(8, 8); }
TEST(ControlReplayTest, ReplayIdenticalSeeds16to23) { run_seed_range(16, 8); }

}  // namespace
}  // namespace pas::cluster
