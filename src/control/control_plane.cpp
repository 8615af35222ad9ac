#include "control/control_plane.hpp"

#include <utility>

#include "cluster/cluster.hpp"
#include "cluster/cluster_manager.hpp"
#include "sim/event_queue.hpp"

namespace pas::ctl {

ControlPlane::ControlPlane(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}

ControlPlane::ControlPlane(std::unique_ptr<Communicator> comm, FleetDims dims)
    : comm_(std::move(comm)) {
  tasks_ = parse_tasks(comm_->receive_tasks(), comm_->origin(), dims);
}

void ControlPlane::arm(cluster::Cluster& cluster, sim::EventQueue& events) {
  cluster_ = &cluster;
  events_ = &events;
  for (const Task& task : tasks_) {
    events.schedule(task.at, [this, &task](common::SimTime now) { apply(task, now); });
  }
}

bool ControlPlane::submit(const Task& task) {
  if (events_ == nullptr) return false;
  // Late tasks fire at the next event boundary; the queue clamps past
  // times forward, which keeps the (time, seq) position well defined.
  submitted_.push_back(std::make_unique<Task>(task));
  const Task* stored = submitted_.back().get();
  events_->schedule(task.at, [this, stored](common::SimTime now) { apply(*stored, now); });
  return true;
}

void ControlPlane::publish() {
  if (comm_) comm_->publish_results(result_log());
}

std::size_t ControlPlane::count(TaskStatus status) const {
  std::size_t n = 0;
  for (const TaskResult& r : results_)
    if (r.status == status) ++n;
  return n;
}

void ControlPlane::apply(const Task& task, common::SimTime now) {
  const bool annotate = task.kind == TaskKind::kAnnotate;
  cluster::Outcome out;
  if (!annotate) {
    // Cluster::check decides every refusal; a migrate that passes must
    // also win the manager's admission — an operator cannot out-migrate
    // the planner's per-tick reshuffle bound.
    const cluster::Command cmd{static_cast<cluster::CommandKind>(task.kind), task.vm, task.host,
                               task.restart, task.mb_per_s};
    out = cluster_->check(cmd);
    cluster::ClusterManager* mgr = cluster_->manager();
    if (out.ok() && cmd.kind == cluster::CommandKind::kMigrate && mgr != nullptr)
      out = mgr->admit_external_migration(now);
    if (out.ok()) out = cluster_->apply(cmd);
  }
  results_.push_back(TaskResult{task.id, now, task.kind, out.status, std::move(out.reason),
                                annotate ? task.note : std::string{}});
}

}  // namespace pas::ctl
