#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pas::sim {
namespace {

using common::msec;
using common::SimTime;

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(msec(30), [&](SimTime) { order.push_back(3); });
  q.schedule(msec(10), [&](SimTime) { order.push_back(1); });
  q.schedule(msec(20), [&](SimTime) { order.push_back(2); });
  q.run_until(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreaksByInsertion) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(msec(10), [&](SimTime) { order.push_back(1); });
  q.schedule(msec(10), [&](SimTime) { order.push_back(2); });
  q.schedule(msec(10), [&](SimTime) { order.push_back(3); });
  q.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RespectsUntilBoundInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule(msec(10), [&](SimTime) { ++fired; });
  q.schedule(msec(11), [&](SimTime) { ++fired; });
  q.run_until(msec(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(msec(11));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsMaySchedule) {
  EventQueue q;
  std::vector<SimTime> fired_at;
  q.schedule(msec(5), [&](SimTime now) {
    fired_at.push_back(now);
    q.schedule(now + msec(5), [&](SimTime n2) { fired_at.push_back(n2); });
  });
  q.run_until(msec(20));
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[0], msec(5));
  EXPECT_EQ(fired_at[1], msec(10));
}

TEST(EventQueueTest, ChainedEventsPastBoundWait) {
  EventQueue q;
  int fired = 0;
  q.schedule(msec(5), [&](SimTime now) {
    ++fired;
    q.schedule(now + msec(100), [&](SimTime) { ++fired; });
  });
  q.run_until(msec(50));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, Cancel) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(msec(10), [&](SimTime) { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // already cancelled
  q.run_until(msec(100));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(msec(1), [](SimTime) {});
  q.run_until(msec(1));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, NextEventTime) {
  EventQueue q;
  EXPECT_EQ(q.next_event_time(msec(99)), msec(99));
  q.schedule(msec(42), [](SimTime) {});
  EXPECT_EQ(q.next_event_time(msec(99)), msec(42));
}

TEST(EventQueueTest, PastEventsFireAtNextDispatch) {
  EventQueue q;
  int fired = 0;
  q.schedule(msec(1), [&](SimTime) { ++fired; });
  q.run_until(msec(50));
  q.schedule(msec(10), [&](SimTime) { ++fired; });  // "past" by wall clock
  q.run_until(msec(50));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CancelTopExposesNextEventTime) {
  // cancel() removes the heap entry eagerly, so next_event_time() must not
  // report the cancelled instant.
  EventQueue q;
  const EventId top = q.schedule(msec(5), [](SimTime) {});
  q.schedule(msec(40), [](SimTime) {});
  EXPECT_EQ(q.next_event_time(msec(99)), msec(5));
  EXPECT_TRUE(q.cancel(top));
  EXPECT_EQ(q.next_event_time(msec(99)), msec(40));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, CancelMiddlePreservesOrdering) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(msec(10), [&](SimTime) { order.push_back(1); });
  const EventId mid = q.schedule(msec(20), [&](SimTime) { order.push_back(2); });
  q.schedule(msec(30), [&](SimTime) { order.push_back(3); });
  q.schedule(msec(40), [&](SimTime) { order.push_back(4); });
  EXPECT_TRUE(q.cancel(mid));
  q.run_until(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  // After an event fires, its slot is recycled; the old id must not be able
  // to cancel the slot's new tenant.
  EventQueue q;
  const EventId old_id = q.schedule(msec(1), [](SimTime) {});
  q.run_until(msec(1));
  int fired = 0;
  q.schedule(msec(10), [&](SimTime) { ++fired; });  // likely reuses the slot
  EXPECT_FALSE(q.cancel(old_id));
  q.run_until(msec(10));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, HandlerMayCancelPendingEvent) {
  EventQueue q;
  int fired = 0;
  const EventId victim = q.schedule(msec(20), [&](SimTime) { ++fired; });
  q.schedule(msec(10), [&](SimTime) { EXPECT_TRUE(q.cancel(victim)); });
  q.run_until(msec(100));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, InterleavedScheduleCancelStress) {
  // Deterministic schedule/cancel interleaving checked against a simple
  // reference model of which events must survive.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  std::vector<int> expected;
  for (int i = 0; i < 500; ++i) {
    const int when_ms = (i * 7919) % 1000;  // deterministic scatter
    ids.push_back(q.schedule(msec(when_ms), [&fired, i](SimTime) { fired.push_back(i); }));
    if (i % 3 == 2) {
      EXPECT_TRUE(q.cancel(ids[i - 1]));
      ids[i - 1] = kInvalidEvent;
    }
  }
  for (int i = 0; i < 500; ++i)
    if (ids[i] != kInvalidEvent) expected.push_back(i);
  q.run_until(msec(1000));
  ASSERT_EQ(fired.size(), expected.size());
  // Every surviving event fired exactly once; verify (time, insertion) order.
  std::vector<int> sorted = expected;
  std::stable_sort(sorted.begin(), sorted.end(), [](int a, int b) {
    return (a * 7919) % 1000 < (b * 7919) % 1000;
  });
  EXPECT_EQ(fired, sorted);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<std::int64_t> fired;
  for (int i = 999; i >= 0; --i) {
    q.schedule(msec(i), [&fired](SimTime now) { fired.push_back(now.us()); });
  }
  q.run_until(msec(1000));
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i]);
}

TEST(EventQueueTest, SoleDueCountsEventsAtOrBeforeBound) {
  EventQueue q;
  EXPECT_FALSE(q.sole_due(msec(100)));
  const EventId a = q.schedule(msec(10), [](SimTime) {});
  EXPECT_FALSE(q.sole_due(msec(9)));
  EXPECT_TRUE(q.sole_due(msec(10)));
  // Seven more events, all after the bound: still sole, whatever the heap
  // shape.
  for (int i = 0; i < 7; ++i) q.schedule(msec(20 + i), [](SimTime) {});
  EXPECT_TRUE(q.sole_due(msec(10)));
  EXPECT_FALSE(q.sole_due(msec(20)));
  // A tie at the bound makes two due.
  const EventId b = q.schedule(msec(10), [](SimTime) {});
  EXPECT_FALSE(q.sole_due(msec(10)));
  q.cancel(a);
  EXPECT_TRUE(q.sole_due(msec(10)));
  q.cancel(b);
  EXPECT_FALSE(q.sole_due(msec(19)));
}

}  // namespace
}  // namespace pas::sim
