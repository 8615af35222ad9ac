// Compiles and executes the ARCHITECTURE.md "Control plane" doc example —
// the ROADMAP "doc-checked examples" idiom. The code inside the DOC
// SNIPPET markers mirrors the code block in docs/ARCHITECTURE.md; if you
// edit one, edit both (this test is what keeps the doc honest).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "platform/host_class.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {
namespace {

Cluster two_host_cluster() {
  ClusterConfig cc;
  cc.host_classes = platform::uniform_fleet_classes(2, platform::HostClass{"host"});
  cc.host.trace_stride = common::SimTime{};  // no tracing: pure lifecycle
  return Cluster(cc);
}

TEST(ControlDocExampleTest, MaintenanceSessionRunsAsDocumented) {
  Cluster cluster = two_host_cluster();
  cluster.add_vm(ClusterVmConfig{}, std::make_unique<wl::IdleGuest>(), 0);
  ASSERT_EQ(cluster.residence(0), 0u);

  // --- DOC SNIPPET (docs/ARCHITECTURE.md, Control plane) ---
  // An operator stream: stop a VM for maintenance, resume it on the other
  // host, annotate the shift. Parse is strict against the fleet dims;
  // install before the first run_until; results publish after the run.
  const std::vector<ctl::Task> tasks = ctl::parse_tasks(R"([
{"id": 1, "at_s": 5.0, "task": "stop_vm", "vm": 0},
{"id": 2, "at_s": 20.0, "task": "start_vm", "vm": 0, "host": 1},
{"id": 3, "at_s": 30.0, "task": "annotate", "note": "maintenance done"}
])", "ops.json", {cluster.host_count(), cluster.vm_count()});
  cluster.install_control(std::make_unique<ctl::ControlPlane>(tasks));
  cluster.run_until(common::seconds(60));
  // cluster.control()->result_log() is the deterministic JSON result log;
  // accepted()/rejected()/superseded() count the outcomes.
  // --- END DOC SNIPPET ---

  // The session did what it said: the VM moved administratively.
  EXPECT_EQ(cluster.residence(0), 1u);
  EXPECT_EQ(cluster.vm_state(0), VmState::kRunning);
  EXPECT_EQ(cluster.control()->accepted(), 3u);
  EXPECT_EQ(cluster.control()->rejected(), 0u);
  EXPECT_EQ(cluster.control()->superseded(), 0u);

  // And the published artifact is pinned byte for byte — the determinism
  // claim the doc makes is exactly this string on every engine.
  EXPECT_EQ(cluster.control()->result_log(),
            "[\n"
            "{\"id\": 1, \"at_s\": 5.000000, \"task\": \"stop_vm\", \"status\": \"ok\"},\n"
            "{\"id\": 2, \"at_s\": 20.000000, \"task\": \"start_vm\", \"status\": \"ok\"},\n"
            "{\"id\": 3, \"at_s\": 30.000000, \"task\": \"annotate\", \"status\": \"ok\","
            " \"note\": \"maintenance done\"}\n"
            "]\n");
}

}  // namespace
}  // namespace pas::cluster
