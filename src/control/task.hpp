// The control plane's task protocol: externally-issued cluster commands.
//
// A command stream is a JSON array of task objects, one per line by
// convention (the parser does not require it, but diagnostics and diffs are
// line-oriented):
//
//     [
//     {"id": 1, "at_s": 10.000000, "task": "migrate", "vm": 3, "host": 1},
//     {"id": 2, "at_s": 12.500000, "task": "crash_host", "host": 0, "restart": true},
//     {"id": 3, "at_s": 15.000000, "task": "set_link_bandwidth", "mb_per_s": 80.0},
//     {"id": 4, "at_s": 20.000000, "task": "stop_vm", "vm": 2},
//     {"id": 5, "at_s": 25.000000, "task": "start_vm", "vm": 2, "host": 1},
//     {"id": 6, "at_s": 30.000000, "task": "restart_vm", "vm": 4, "host": 0},
//     {"id": 7, "at_s": 35.000000, "task": "annotate", "note": "shift change"}
//     ]
//
// The shape follows RWTH-OS/migration-framework's JSON protocol (start vm /
// stop vm / migrate vm with results published back), ported broker-free:
// timestamps are *sim-time* seconds, and delivery is the in-process
// ControlPlane instead of MQTT.
//
// parse_tasks is strict in the common::CsvTable hardening idiom: every
// malformed input — truncated JSON, unknown task kind, missing or negative
// timestamp, non-monotone times, out-of-range VM/host id, duplicate task
// id, unknown field — throws std::runtime_error with an `origin:line:`
// prefix. Nothing is skipped silently: a command log that parses is a
// command log that will be executed, and one that doesn't names the line.
//
// Execution results (TaskResult) serialize deterministically via
// serialize_results: fixed field order, %.6f timestamps (exact at SimTime's
// microsecond resolution), one result per line. results_to_annotations
// re-expresses a result log as a stream of `annotate` tasks — a no-op
// command stream that can be re-injected into a fresh run; because annotate
// results pass their note through verbatim, annotation streams are a fixed
// point of record→re-inject and the control replay test closes the loop
// byte-exactly (the PR 5 trace contract, extended to control traffic).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/command.hpp"
#include "common/units.hpp"

namespace pas::ctl {

/// Every kind but annotate is the cluster command of the same name, with
/// the same value: a task's command kind is a cast away.
enum class TaskKind : std::uint8_t {
  // resume a stopped VM on a host
  kStartVm = static_cast<std::uint8_t>(cluster::CommandKind::kStartVm),
  // administratively stop a running VM (workload held)
  kStopVm = static_cast<std::uint8_t>(cluster::CommandKind::kStopVm),
  // live-migrate a running VM
  kMigrate = static_cast<std::uint8_t>(cluster::CommandKind::kMigrate),
  // fail a host (what-if / drill traffic)
  kCrashHost = static_cast<std::uint8_t>(cluster::CommandKind::kCrashHost),
  // place an orphaned VM (external recovery decision)
  kRestartVm = static_cast<std::uint8_t>(cluster::CommandKind::kRestartVm),
  // change the migration link's bandwidth
  kSetLinkBandwidth = static_cast<std::uint8_t>(cluster::CommandKind::kSetLinkBandwidth),
  // no-op marker; carried through to the result log, never a command
  kAnnotate = 0xff,
};

[[nodiscard]] const char* to_string(TaskKind kind);

/// One accepted external command, timestamped in sim-time.
struct Task {
  std::uint64_t id = 0;        // unique per stream
  common::SimTime at{};        // sim-time the command fires
  TaskKind kind = TaskKind::kAnnotate;
  std::uint32_t vm = 0;        // start_vm / stop_vm / migrate / restart_vm
  std::uint32_t host = 0;      // start_vm / migrate / crash_host / restart_vm
  bool restart = true;         // crash_host: hold residents for recovery
  double mb_per_s = 0.0;       // set_link_bandwidth
  std::string note;            // annotate
};

/// Fleet shape for range-checking vm/host ids at parse time. 0 = unknown
/// (skip the check — the ControlPlane still rejects bad ids at fire time).
struct FleetDims {
  std::size_t hosts = 0;
  std::size_t vms = 0;
};

/// Parses a command stream. Throws std::runtime_error with an
/// `origin:line:` prefix on any malformed input (see file header).
[[nodiscard]] std::vector<Task> parse_tasks(std::string_view text,
                                            const std::string& origin,
                                            FleetDims dims = {});

/// A fired task's status is the cluster's own verdict (cluster::Status):
/// kOk, kRejected (invalid against cluster state or policy at fire time)
/// or kSuperseded (a crash or hand-off got there first).
using TaskStatus = cluster::Status;

[[nodiscard]] const char* to_string(TaskStatus status);

/// Outcome of one fired task, published back through the Communicator.
struct TaskResult {
  std::uint64_t id = 0;
  common::SimTime at{};
  TaskKind kind = TaskKind::kAnnotate;
  TaskStatus status = TaskStatus::kOk;
  std::string reason;  // empty for kOk
  std::string note;    // annotate pass-through
};

/// Deterministic result-log serialization: JSON array, one result per line,
/// fixed field order (id, at_s, task, status[, reason][, note]), %.6f
/// timestamps. Byte-identical across fast/slow paths and thread counts
/// whenever the underlying run is.
[[nodiscard]] std::string serialize_results(const std::vector<TaskResult>& results);

/// Re-expresses a result log as a parseable stream of no-op `annotate`
/// tasks: annotate results keep their note verbatim; every other result
/// becomes note = "<kind>:<status>[:<reason>]". Injecting the stream into a
/// fresh run perturbs nothing, and re-recording it reproduces the stream
/// byte-exactly (the fixed-point property the replay test pins).
[[nodiscard]] std::string results_to_annotations(const std::vector<TaskResult>& results);

}  // namespace pas::ctl
