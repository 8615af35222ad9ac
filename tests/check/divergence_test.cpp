// The differential oracle itself: identical runs compare clean, and a
// divergence — a later clock, an extra migration, a different fleet shape,
// a federation flight on a slower link — is named by the first observable
// it perturbs, without ever indexing past a shorter run.
#include "check/divergence.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "federation/federation.hpp"
#include "hypervisor/host.hpp"
#include "metrics/trace_recorder.hpp"
#include "scenario/federation_scenario.hpp"
#include "scenario/hosting_cluster.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::check {
namespace {

using common::msec;
using common::seconds;

std::unique_ptr<hv::Host> build_host() {
  hv::HostConfig hc;
  hc.trace_stride = seconds(1);
  auto host = std::make_unique<hv::Host>(hc, std::make_unique<sched::CreditScheduler>());
  hv::VmConfig hog;
  hog.name = "hog";
  hog.credit = 30.0;
  host->add_vm(hog, std::make_unique<wl::BusyLoop>());
  hv::VmConfig idle;
  idle.name = "idle";
  idle.credit = 10.0;
  host->add_vm(idle, std::make_unique<wl::IdleGuest>());
  return host;
}

scenario::HostingClusterConfig small_cluster(std::size_t hosts, std::size_t vms) {
  scenario::HostingClusterConfig cfg;
  cfg.hosts = hosts;
  cfg.vms = vms;
  cfg.horizon = seconds(120);
  return cfg;
}

scenario::FederationScenarioConfig small_federation() {
  scenario::FederationScenarioConfig cfg;
  cfg.base.hosts = 4;
  cfg.base.vms = 24;  // the skew opens a gap the global planner acts on
  cfg.base.horizon = seconds(600);
  cfg.base.seed = 17;
  cfg.shards = 2;
  return cfg;
}

TEST(DivergenceTest, HostRunOneQuantumFurtherNamesTheClock) {
  auto ha = build_host();
  auto hb = build_host();
  ha->run_until(seconds(10));
  hb->run_until(seconds(10));
  EXPECT_EQ(first_divergence(*ha, *hb), "");
  EXPECT_EQ(first_divergence(ha->trace(), hb->trace()), "");
  hb->run_until(seconds(10) + msec(10));
  EXPECT_EQ(first_divergence(*ha, *hb), "now: 10000000 us vs 10010000 us");
  // One stride further: the trace alone says which row is missing.
  hb->run_until(seconds(11));
  EXPECT_EQ(first_divergence(ha->trace(), hb->trace()), "row count: 10 vs 11");
}

TEST(DivergenceTest, TraceCellDivergenceNamesRowVmAndColumn) {
  metrics::TraceRecorder a{2};
  metrics::TraceRecorder b{2};
  const double ga[] = {10.0, 20.0};
  const double gb[] = {10.0, 20.0};
  const double absa[] = {5.0, 12.5};
  const double absb[] = {5.0, 12.375};
  const double zero[] = {0.0, 0.0};
  a.append(seconds(1), 2667.0, 30.0, 17.5, ga, absa, zero, zero);
  b.append(seconds(1), 2667.0, 30.0, 17.5, gb, absb, zero, zero);
  EXPECT_EQ(first_divergence(a, b), "row 0 vm 1 absolute_pct: 12.5 vs 12.375");
}

TEST(DivergenceTest, ExtraMigrationIsNamed) {
  auto a = scenario::build_hosting_cluster(small_cluster(4, 16));
  auto b = scenario::build_hosting_cluster(small_cluster(4, 16));
  a->run_until(seconds(30));
  b->run_until(seconds(30));
  ASSERT_EQ(first_divergence(*a, *b), "");
  // One extra live migration on `b` only: VM 0 to the first host it may go.
  bool moved = false;
  for (cluster::HostId to = 0; to < b->host_count() && !moved; ++to)
    moved = b->apply(cluster::Command::migrate(0, to)).ok();
  ASSERT_TRUE(moved);
  a->run_until(seconds(60));
  b->run_until(seconds(60));
  const std::string diff = first_divergence(*a, *b);
  EXPECT_TRUE(diff.rfind("host ", 0) == 0 || diff.rfind("migration", 0) == 0) << diff;
  EXPECT_NE(diff.find(" vs "), std::string::npos) << diff;
}

TEST(DivergenceTest, ShapeMismatchIsReportedNotIndexed) {
  auto two = scenario::build_hosting_cluster(small_cluster(2, 6));
  auto three = scenario::build_hosting_cluster(small_cluster(3, 6));
  auto more_vms = scenario::build_hosting_cluster(small_cluster(2, 7));
  for (cluster::Cluster* c : {two.get(), three.get(), more_vms.get()}) c->run_until(seconds(20));
  // An exception escaping first_divergence fails the test as well.
  EXPECT_EQ(first_divergence(*two, *three), "host count: 2 vs 3");
  EXPECT_EQ(first_divergence(*three, *two), "host count: 3 vs 2");
  EXPECT_EQ(first_divergence(*two, *more_vms), "vm count: 6 vs 7");

  // Hosts with different VM counts, and traces of different widths.
  auto ha = build_host();
  auto hb = build_host();
  hv::VmConfig extra;
  extra.credit = 5.0;
  hb->add_vm(extra, std::make_unique<wl::IdleGuest>());
  EXPECT_EQ(first_divergence(*ha, *hb), "vm count: 2 vs 3");
  EXPECT_EQ(first_divergence(metrics::TraceRecorder{1}, metrics::TraceRecorder{3}),
            "vm columns: 1 vs 3");
}

TEST(DivergenceTest, FederationLedgerDivergenceNamesTheCrossShardRecord) {
  scenario::FederationScenarioConfig eager = small_federation();
  eager.federation.planner.period = seconds(100);  // default 120 s
  auto a = scenario::build_federation(small_federation());
  auto same = scenario::build_federation(small_federation());
  auto b = scenario::build_federation(eager);
  for (fed::Federation* f : {a.get(), same.get(), b.get()}) f->run_until(seconds(600));
  ASSERT_FALSE(a->cross_shard_records().empty()) << "the ledger must be exercised";
  EXPECT_EQ(first_divergence(*a, *same), "");
  const std::string diff = first_divergence(*a, *b);
  EXPECT_EQ(diff.rfind("cross-shard record", 0), 0u) << diff;
}

}  // namespace
}  // namespace pas::check
