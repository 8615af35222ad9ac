// Pins the benchmark's own helpers: the statistics its verdicts rest on,
// the fleet-wide SLA aggregation, the metric tables against BENCHMARK.json
// and the seeded operator-stream generator.

#include "helpers.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "control/json.hpp"
#include "control/task.hpp"

namespace pb = perfbench;
using pas::common::seconds;

namespace {

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({7.0}), 7.0);
  EXPECT_THROW((void)pb::median({}), std::invalid_argument);
}

// Expected values are Python's statistics.quantiles(data, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  auto q = pb::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = pb::quartiles({3.5, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q2, 2.0);
  EXPECT_DOUBLE_EQ(q.q3, 3.5);
  q = pb::quartiles({4.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.25);
  EXPECT_DOUBLE_EQ(q.q2, 2.5);
  EXPECT_DOUBLE_EQ(q.q3, 4.75);
  q = pb::quartiles({7, 1, 3, 9, 5, 2, 8});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.q2, 5.0);
  EXPECT_DOUBLE_EQ(q.q3, 8.0);
  q = pb::quartiles({6.0});
  EXPECT_DOUBLE_EQ(q.q1, 6.0);
  EXPECT_DOUBLE_EQ(q.q3, 6.0);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_FALSE(pb::tail_percentile(0).has_value());
  EXPECT_FALSE(pb::tail_percentile(19).has_value());
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(20), 0.50);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(39), 0.50);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(40), 0.75);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(100), 0.90);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(199), 0.90);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(200), 0.95);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(999), 0.95);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(*pb::tail_percentile(10000), 0.999);
}

TEST(Sla, FleetFigureWeighsVmTimeNotVms) {
  // VM 0: saturated 9 s, violated all of it. VM 1: saturated 1 s, served.
  // Unsaturated windows never count. Fleet: 9 of 10 saturated VM-seconds
  // violated = 90 %; a mean of per-VM fractions would say 50 %.
  pas::metrics::SlaChecker sla;
  sla.register_vm(0, 20.0);
  sla.register_vm(1, 20.0);
  for (int i = 0; i < 9; ++i) sla.record_window(0, seconds(1), 5.0, true);
  sla.record_window(0, seconds(5), 0.0, false);
  sla.record_window(1, seconds(1), 25.0, true);
  sla.record_window(1, seconds(3), 1.0, false);

  pb::SlaTotals one;
  one.add(sla, 2);
  EXPECT_EQ(one.violated_us, 9'000'000);
  EXPECT_EQ(one.saturated_us, 10'000'000);
  EXPECT_DOUBLE_EQ(one.violation_pct(), 90.0);

  // Shards add up VM-time, not percentages.
  pas::metrics::SlaChecker other;
  other.register_vm(0, 10.0);
  other.record_window(0, seconds(10), 10.0, true);
  pb::SlaTotals fleet = one;
  fleet.add(other, 1);
  EXPECT_DOUBLE_EQ(fleet.violation_pct(), 45.0);

  EXPECT_DOUBLE_EQ(pb::SlaTotals{}.violation_pct(), 0.0);
}

TEST(Metrics, NameAndUnitCharsets) {
  EXPECT_TRUE(pb::valid_metric_name("cluster.segments"));
  EXPECT_TRUE(pb::valid_metric_name("9lives_ok-x.y"));
  EXPECT_TRUE(pb::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(pb::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(pb::valid_metric_name(""));
  EXPECT_FALSE(pb::valid_metric_name("_leading"));
  EXPECT_FALSE(pb::valid_metric_name(".leading"));
  EXPECT_FALSE(pb::valid_metric_name("has space"));
  EXPECT_FALSE(pb::valid_metric_name("per/slash"));
  EXPECT_TRUE(pb::valid_metric_unit("sim-s/wall-s"));
  EXPECT_TRUE(pb::valid_metric_unit("%"));
  EXPECT_FALSE(pb::valid_metric_unit(""));
  EXPECT_FALSE(pb::valid_metric_unit("seventeen-chars-x"));
  EXPECT_FALSE(pb::valid_metric_unit("m s"));
}

TEST(Metrics, TablesRespectLimits) {
  const auto e2e = pb::end_to_end_metrics();
  const auto layers = pb::per_layer_metrics();
  EXPECT_GE(e2e.size(), 1u);
  EXPECT_LE(e2e.size(), pb::kMaxEndToEnd);
  EXPECT_GE(layers.size(), 1u);
  EXPECT_LE(layers.size(), pb::kMaxPerLayer);
  std::set<std::string_view> seen;
  for (const auto& m : e2e) {
    EXPECT_TRUE(pb::valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(pb::valid_metric_unit(m.unit)) << m.name;
    EXPECT_TRUE(m.better == "higher" || m.better == "lower") << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
  for (const auto& m : layers) {
    EXPECT_TRUE(pb::valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(pb::valid_metric_unit(m.unit)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name;
  }
}

TEST(Metrics, TablesMatchBenchmarkJson) {
  std::ifstream in(std::string(PAS_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found next to perfbench/";
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = pas::ctl::json::parse(text.str(), "BENCHMARK.json");

  const auto* e2e = doc.find("end_to_end");
  ASSERT_NE(e2e, nullptr);
  const auto table = pb::end_to_end_metrics();
  ASSERT_EQ(e2e->items().size(), table.size());
  double setup_bound = 0.0;
  double max_other_bound = 0.0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& item = e2e->items()[i];
    EXPECT_EQ(item.find("name")->as_string(), table[i].name);
    EXPECT_EQ(item.find("unit")->as_string(), table[i].unit);
    EXPECT_EQ(item.find("better")->as_string(), table[i].better);
    const double bound = item.find("bound")->as_number();
    EXPECT_GT(bound, 0.0);
    EXPECT_LE(bound, 0.25);
    if (table[i].name == "setup_s")
      setup_bound = bound;
    else
      max_other_bound = std::max(max_other_bound, bound);
  }
  EXPECT_GE(setup_bound, max_other_bound) << "setup_s must carry the largest bound";

  const auto* layers = doc.find("per_layer");
  ASSERT_NE(layers, nullptr);
  const auto ltable = pb::per_layer_metrics();
  ASSERT_EQ(layers->items().size(), ltable.size());
  for (std::size_t i = 0; i < ltable.size(); ++i) {
    EXPECT_EQ(layers->items()[i].find("name")->as_string(), ltable[i].name);
    EXPECT_EQ(layers->items()[i].find("unit")->as_string(), ltable[i].unit);
  }
}

TEST(Commands, SeedDeterminesTheStream) {
  const auto a = pb::generate_commands(7, 300, 900, seconds(1200), 80);
  EXPECT_EQ(a, pb::generate_commands(7, 300, 900, seconds(1200), 80));
  EXPECT_NE(a, pb::generate_commands(8, 300, 900, seconds(1200), 80));
}

TEST(Commands, StreamParsesAndClosesEveryStop) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    // Short streams too: a stop drawn near the end must still be closed.
    const std::size_t count = 3 + seed % 78;
    const auto tasks =
        pas::ctl::parse_tasks(pb::generate_commands(seed, 300, 900, seconds(1200), count),
                              "generated", pas::ctl::FleetDims{300, 900});
    ASSERT_EQ(tasks.size(), count);
    std::multiset<std::uint32_t> open;
    std::set<pas::ctl::TaskKind> kinds;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto& t = tasks[i];
      kinds.insert(t.kind);
      EXPECT_GE(t.at, seconds(36));
      EXPECT_LE(t.at, seconds(1140));
      if (i > 0) {
        EXPECT_GE(t.at, tasks[i - 1].at);
      }
      if (t.kind == pas::ctl::TaskKind::kStopVm) open.insert(t.vm);
      if (t.kind == pas::ctl::TaskKind::kStartVm) {
        ASSERT_TRUE(open.count(t.vm)) << "start_vm without a stop, seed " << seed;
        open.erase(open.find(t.vm));
      }
    }
    EXPECT_TRUE(open.empty()) << "seed " << seed << " leaves VMs stopped";
    if (count == 80) {
      EXPECT_TRUE(kinds.count(pas::ctl::TaskKind::kMigrate));
      EXPECT_TRUE(kinds.count(pas::ctl::TaskKind::kStopVm));
      EXPECT_TRUE(kinds.count(pas::ctl::TaskKind::kSetLinkBandwidth));
    }
  }
}

TEST(Digest, OrderAndContentSensitive) {
  pb::Digest a, b, c;
  a.add(1.0);
  a.add(std::uint64_t{2});
  b.add(1.0);
  b.add(std::uint64_t{2});
  c.add(std::uint64_t{2});
  c.add(1.0);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

}  // namespace
