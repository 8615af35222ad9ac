// ControlPlane: compiles an accepted task stream into ordinary cluster
// events and publishes per-task results.
//
// Determinism is inherited, not re-invented — the PR 6 fault-injection
// trick: Cluster::run_until calls arm() exactly once when the run starts,
// scheduling every task onto the SAME (time, insertion-seq) ordered event
// queue that manager ticks, SLA samples and migration phases ride. A
// command therefore lands at a fixed queue position in every engine, so
// fast-path, reference and parallel runs replay the stream identically and
// the result log — which only depends on cluster state at those fixed
// instants — serializes byte-identically too.
//
// At fire time a task is one cluster::Command: Cluster::check gives the
// verdict (status + reason, the one refusal ladder — tabulated per kind in
// docs/ARCHITECTURE.md, "The command surface"); a migrate that passes must
// also be admitted by the manager (browned-out periods issue nothing, and
// external commands draw from the SAME per-tick budget as the planner —
// ClusterManager::admit_external_migration); then Cluster::apply acts.
// annotate is not a command: its note passes through to the result log.
//
// A crash that fires at the same instant as a command sorts FIRST: the
// fault injector arms before the control plane (Cluster::run_until), so its
// events hold earlier insertion-seqs at equal times. A command racing a
// chaos crash therefore observes the post-crash world — deterministically,
// in every engine — and resolves to kSuperseded (the fuzz equivalence test
// pins this).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "control/communicator.hpp"
#include "control/task.hpp"

namespace pas::sim {
class EventQueue;
}  // namespace pas::sim

namespace pas::cluster {
class Cluster;
}  // namespace pas::cluster

namespace pas::ctl {

class ControlPlane {
 public:
  /// Scripted stream (tests, bench, scenario wiring).
  explicit ControlPlane(std::vector<Task> tasks);

  /// Pulls the stream through a Communicator: receive_tasks() is parsed
  /// strictly against `dims` (throws origin:line on malformed input), and
  /// publish() later pushes the result log back. The communicator is owned.
  ControlPlane(std::unique_ptr<Communicator> comm, FleetDims dims);

  /// Schedules every task onto `events` against `cluster`. Called by
  /// Cluster::run_until exactly once, when the run starts; the plane must
  /// outlive the run (the cluster owns it).
  void arm(cluster::Cluster& cluster, sim::EventQueue& events);

  /// Injects one task after the run has started (tools/pas_ctl's REPL
  /// path). Fires at task.at, or immediately at the next event boundary if
  /// that is already in the past. Returns false before arm().
  bool submit(const Task& task);

  /// Publishes the serialized result log through the communicator (no-op
  /// for the scripted constructor).
  void publish();

  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }
  /// Fired-task outcomes in fire order (time, then insertion-seq).
  [[nodiscard]] const std::vector<TaskResult>& results() const { return results_; }
  /// The deterministic result log (serialize_results over results()).
  [[nodiscard]] std::string result_log() const { return serialize_results(results_); }

  [[nodiscard]] std::size_t accepted() const { return count(TaskStatus::kOk); }
  [[nodiscard]] std::size_t rejected() const { return count(TaskStatus::kRejected); }
  [[nodiscard]] std::size_t superseded() const { return count(TaskStatus::kSuperseded); }

 private:
  void apply(const Task& task, common::SimTime now);
  [[nodiscard]] std::size_t count(TaskStatus status) const;

  std::unique_ptr<Communicator> comm_;
  std::vector<Task> tasks_;
  /// REPL-submitted tasks; heap-pinned so the scheduled lambdas' pointers
  /// survive growth (tasks_ itself is frozen once arm() runs).
  std::vector<std::unique_ptr<Task>> submitted_;
  std::vector<TaskResult> results_;
  cluster::Cluster* cluster_ = nullptr;  // set at arm
  sim::EventQueue* events_ = nullptr;    // set at arm (for submit)
};

}  // namespace pas::ctl
