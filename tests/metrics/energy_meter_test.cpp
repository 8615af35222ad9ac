#include "metrics/energy_meter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace pas::metrics {
namespace {

using common::msec;
using common::seconds;
using common::SimTime;
using common::usec;

// Two P-states: index 0 at ratio 0.6, index 1 at ratio 1.0.
const cpu::FrequencyLadder kLadder = cpu::FrequencyLadder::uniform({1500.0, 2500.0});
constexpr std::size_t kLow = 0;
constexpr std::size_t kTop = 1;

TEST(EnergyMeterTest, IdleInterval) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  m.record(seconds(10), kTop, SimTime{});
  EXPECT_NEAR(m.joules(), 400.0, 1e-9);
  EXPECT_NEAR(m.average_watts(), 40.0, 1e-9);
}

TEST(EnergyMeterTest, BusyInterval) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  m.record(seconds(10), kTop, seconds(10));
  EXPECT_NEAR(m.joules(), 1000.0, 1e-9);
}

TEST(EnergyMeterTest, PartialUtilization) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  m.record(seconds(10), kTop, seconds(5));
  EXPECT_NEAR(m.joules(), (40.0 + 30.0) * 10, 1e-9);
}

TEST(EnergyMeterTest, LowerFrequencyCheaper) {
  EnergyMeter hi{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  EnergyMeter lo{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  hi.record(seconds(10), kTop, seconds(10));
  lo.record(seconds(10), kLow, seconds(10));
  EXPECT_LT(lo.joules(), hi.joules());
  EXPECT_NEAR(lo.joules(), (40.0 + 60.0 * 0.6 * 0.6 * 0.6) * 10, 1e-9);
}

TEST(EnergyMeterTest, AccumulatesAcrossRecords) {
  EnergyMeter m{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  for (int i = 0; i < 100; ++i) m.record(msec(100), kTop, msec(50));
  EXPECT_EQ(m.elapsed(), seconds(10));
  EXPECT_EQ(m.busy_at(kTop), seconds(5));
  // Integer accumulation: a hundred chunks equal one record of the sum.
  EnergyMeter one{cpu::PowerModel{40.0, 100.0, 3.0}, kLadder};
  one.record(seconds(10), kTop, seconds(5));
  EXPECT_EQ(m.joules(), one.joules());
  EXPECT_NEAR(m.joules(), (40.0 + 30.0) * 10, 1e-9);
  EXPECT_NEAR(m.watt_hours(), m.joules() / 3600.0, 1e-12);
}

TEST(EnergyMeterTest, ZeroIntervalIgnored) {
  EnergyMeter m{cpu::PowerModel::desktop_2008(), cpu::FrequencyLadder::paper_default()};
  m.record(SimTime{}, 4, SimTime{});
  EXPECT_DOUBLE_EQ(m.joules(), 0.0);
  EXPECT_DOUBLE_EQ(m.average_watts(), 0.0);
}

TEST(EnergyMeterTest, PerStateResidency) {
  EnergyMeter m{cpu::PowerModel::desktop_2008(), kLadder};
  m.record(seconds(3), kLow, seconds(1));
  m.record(seconds(2), kTop, SimTime{});
  EXPECT_EQ(m.elapsed_at(kLow), seconds(3));
  EXPECT_EQ(m.busy_at(kLow), seconds(1));
  EXPECT_EQ(m.elapsed_at(kTop), seconds(2));
  EXPECT_EQ(m.busy_at(kTop), SimTime{});
  EXPECT_EQ(m.elapsed(), seconds(5));
}

// Property: however the same per-P-state microseconds are cut into records,
// and in whatever order the records arrive, the joules are bit-identical.
TEST(EnergyMeterTest, ChunkingAndOrderDoNotChangeJoules) {
  const cpu::FrequencyLadder ladder = cpu::FrequencyLadder::paper_default();
  const cpu::PowerModel model = cpu::PowerModel::desktop_2008();
  std::mt19937_64 rng(20131209);
  for (int trial = 0; trial < 200; ++trial) {
    // Ground truth: total and busy µs per P-state.
    std::vector<std::int64_t> total(ladder.size()), busy(ladder.size());
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      total[i] = static_cast<std::int64_t>(rng() % 50'000'000);
      busy[i] = total[i] == 0 ? 0 : static_cast<std::int64_t>(rng() % (total[i] + 1));
    }
    struct Rec {
      SimTime dt, busy;
      std::size_t pstate;
    };
    const auto chunk = [&](std::mt19937_64& r) {
      std::vector<Rec> recs;
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        std::int64_t t_left = total[i], b_left = busy[i];
        while (t_left > 0) {
          std::int64_t dt = 1 + static_cast<std::int64_t>(r() % 2'000'000);
          if (dt > t_left || r() % 8 == 0) dt = t_left;
          // Busy must fit the chunk and leave the rest fitting what's left.
          const std::int64_t lo = std::max<std::int64_t>(0, b_left - (t_left - dt));
          const std::int64_t hi = std::min(dt, b_left);
          const std::int64_t b = lo + static_cast<std::int64_t>(r() % (hi - lo + 1));
          recs.push_back({usec(dt), usec(b), i});
          t_left -= dt;
          b_left -= b;
        }
        EXPECT_EQ(b_left, 0);
      }
      std::shuffle(recs.begin(), recs.end(), r);
      return recs;
    };
    double first = 0.0;
    for (int variant = 0; variant < 4; ++variant) {
      EnergyMeter m{model, ladder};
      for (const Rec& rec : chunk(rng)) m.record(rec.dt, rec.pstate, rec.busy);
      for (std::size_t i = 0; i < ladder.size(); ++i) {
        ASSERT_EQ(m.elapsed_at(i).us(), total[i]);
        ASSERT_EQ(m.busy_at(i).us(), busy[i]);
      }
      if (variant == 0) first = m.joules();
      ASSERT_EQ(m.joules(), first) << "trial " << trial << " variant " << variant;
    }
  }
}

}  // namespace
}  // namespace pas::metrics
