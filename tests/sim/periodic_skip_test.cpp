// Closed-form bulk skip over periodic tasks (sim::order_last_fires,
// sim::fires_through) against two oracles: a fire-by-fire merge simulation
// of the queue's (time, seq) dispatch, and a real EventQueue driving real
// PeriodicTasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"

namespace pas::sim {
namespace {

using common::msec;
using common::SimTime;
using common::usec;

struct MergeResult {
  std::vector<std::int64_t> fires;  // per task
  std::vector<std::size_t> order;   // fired tasks by final seq
  std::vector<SimTime> next_due;    // per task, after the span
};

// Oracle: pop the earliest (due, seq) entry up to and including `target`,
// re-arm it one period later under a fresh, largest sequence.
MergeResult merge(const std::vector<PendingFire>& in, SimTime target) {
  std::vector<PendingFire> e = in;
  std::uint64_t local_seq = 0;
  for (const PendingFire& f : e) local_seq = std::max(local_seq, f.seq);
  ++local_seq;
  MergeResult r;
  r.fires.assign(e.size(), 0);
  for (;;) {
    std::size_t best = e.size();
    for (std::size_t i = 0; i < e.size(); ++i) {
      if (e[i].due > target) continue;
      if (best == e.size() || e[i].due < e[best].due ||
          (e[i].due == e[best].due && e[i].seq < e[best].seq))
        best = i;
    }
    if (best == e.size()) break;
    ++r.fires[best];
    e[best].seq = local_seq++;
    e[best].due += e[best].period;
  }
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (r.fires[i] > 0) r.order.push_back(i);
    r.next_due.push_back(e[i].due);
  }
  std::sort(r.order.begin(), r.order.end(),
            [&](std::size_t a, std::size_t b) { return e[a].seq < e[b].seq; });
  return r;
}

void expect_matches_merge(const std::vector<PendingFire>& fires, SimTime target,
                          const char* what, int trial) {
  const MergeResult want = merge(fires, target);
  std::vector<std::size_t> order;
  order_last_fires(fires, target, order);
  ASSERT_EQ(order, want.order) << what << " trial " << trial;
  for (std::size_t i = 0; i < fires.size(); ++i) {
    ASSERT_EQ(fires_through(fires[i], target), want.fires[i])
        << what << " trial " << trial << " task " << i;
    ASSERT_EQ(next_due_after(fires[i], target), want.next_due[i])
        << what << " trial " << trial << " task " << i;
  }
}

TEST(PeriodicSkipTest, HandPickedTies) {
  // Same last instant (60): task 0 first fires there (original seq wins),
  // task 1 (period 30) re-armed at 30, task 2 (period 20) at 40, task 3
  // (period 20, later first fire 40) ahead of task 2.
  const std::vector<PendingFire> fires = {
      {msec(60), msec(100), 9},
      {msec(30), msec(30), 1},
      {msec(20), msec(20), 2},
      {msec(40), msec(20), 3},
      {msec(70), msec(10), 4},  // never fires before the target
  };
  std::vector<std::size_t> order;
  order_last_fires(fires, msec(65), order);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 2}));
  expect_matches_merge(fires, msec(65), "hand-picked", 0);
  EXPECT_EQ(fires_through(fires[2], msec(65)), 3);
  EXPECT_EQ(fires_through(fires[4], msec(65)), 0);
  EXPECT_EQ(next_due_after(fires[4], msec(65)), msec(70));
}

TEST(PeriodicSkipTest, ClosedFormMatchesMergeOnRandomTasks) {
  std::mt19937_64 rng(1013);
  const std::int64_t periods_ms[] = {10, 15, 20, 30, 100, 730, 1000};
  int checked_first_at_target = 0, checked_shared = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = 1 + rng() % 5;
    std::vector<PendingFire> fires;
    std::vector<std::uint64_t> seqs(n);
    for (std::size_t i = 0; i < n; ++i) seqs[i] = 1 + rng() % 1000;
    std::sort(seqs.begin(), seqs.end());
    seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
    if (seqs.size() < n) continue;  // distinct seqs, as a queue hands out
    std::shuffle(seqs.begin(), seqs.end(), rng);
    for (std::size_t i = 0; i < n; ++i) {
      PendingFire f;
      f.period = msec(periods_ms[rng() % std::size(periods_ms)]);
      if (i > 0 && rng() % 3 == 0) {
        // Shared due (and, half the time, a shared period too).
        const PendingFire& other = fires[rng() % i];
        f.due = other.due;
        if (rng() % 2 == 0) f.period = other.period;
      } else {
        f.due = rng() % 2 == 0 ? msec(1 + static_cast<std::int64_t>(rng() % 200))
                               : usec(1 + static_cast<std::int64_t>(rng() % 200'000));
      }
      f.seq = seqs[i];
      fires.push_back(f);
    }
    SimTime target;
    switch (rng() % 4) {
      case 0:  // off-grid
        target = usec(static_cast<std::int64_t>(rng() % 5'000'000));
        break;
      case 1:  // on some task's grid
      {
        const PendingFire& f = fires[rng() % n];
        target = f.due + f.period * static_cast<std::int64_t>(rng() % 300);
        break;
      }
      case 2:  // a first fire exactly at the target
        target = fires[rng() % n].due;
        ++checked_first_at_target;
        break;
      default:  // on the 10 ms quantum grid
        target = msec(10 * static_cast<std::int64_t>(rng() % 500));
        break;
    }
    for (std::size_t i = 1; i < n; ++i)
      if (fires[i].due == fires[0].due) ++checked_shared;
    expect_matches_merge(fires, target, "random", trial);
  }
  EXPECT_GT(checked_first_at_target, 1000);
  EXPECT_GT(checked_shared, 1000);
}

// End to end on the real queue: skipping with the closed form and re-arming
// through PeriodicTask::advance_to leaves the queue dispatching exactly what
// it would have after really firing every task through the target.
TEST(PeriodicSkipTest, ClosedFormRearmMatchesRealQueue) {
  std::mt19937_64 rng(755);
  const std::int64_t periods_ms[] = {10, 20, 30, 50, 100, 730, 1000};
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng() % 5;
    std::vector<std::pair<SimTime, SimTime>> shape;  // (first, period)
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime period = msec(periods_ms[rng() % std::size(periods_ms)]);
      const SimTime first = rng() % 3 == 0 && i > 0 ? shape[rng() % i].first
                                                    : msec(1 + static_cast<std::int64_t>(rng() % 100));
      shape.emplace_back(first, period);
    }
    struct Rig {
      EventQueue q;
      std::vector<std::pair<std::size_t, SimTime>> log;
      std::vector<std::unique_ptr<PeriodicTask>> tasks;
    };
    const auto make = [&](Rig& r) {
      for (std::size_t i = 0; i < n; ++i)
        r.tasks.push_back(std::make_unique<PeriodicTask>(
            r.q, shape[i].first, shape[i].second,
            [&r, i](SimTime t) { r.log.emplace_back(i, t); }));
    };
    Rig fired, skipped;
    make(fired);
    make(skipped);
    // A shared warm-up interleaves the live sequences.
    const SimTime warm = msec(static_cast<std::int64_t>(rng() % 300));
    fired.q.run_until(warm);
    skipped.q.run_until(warm);
    const SimTime target = warm + (rng() % 2 == 0
                                       ? msec(10 * static_cast<std::int64_t>(rng() % 400))
                                       : usec(static_cast<std::int64_t>(rng() % 4'000'000)));
    fired.q.run_until(target);

    std::vector<PendingFire> pending;
    for (const auto& t : skipped.tasks)
      pending.push_back({t->next_due(), t->period(), t->pending_seq()});
    std::vector<std::size_t> order;
    order_last_fires(pending, target, order);
    for (const std::size_t i : order)
      skipped.tasks[i]->advance_to(next_due_after(pending[i], target));

    fired.log.clear();
    skipped.log.clear();
    fired.q.run_until(target + msec(3000));
    skipped.q.run_until(target + msec(3000));
    ASSERT_EQ(fired.log, skipped.log) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pas::sim
