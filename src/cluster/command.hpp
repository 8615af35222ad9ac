// The one command surface for cluster mutations.
//
// Four actors change a cluster while it runs: the consolidation manager,
// the fault injector, the operator control plane and the federation. Each
// of them states what it wants as a Command and hands it to
// Cluster::apply; Cluster::check gives the same verdict without acting.
// The refusal ladder — may this change happen, and if not, why — is
// therefore written down once, in Cluster::check, and every actor reads
// the same status and reason. docs/ARCHITECTURE.md ("The command surface")
// tabulates the ladder per kind.
#pragma once

#include <cstdint>
#include <string>

namespace pas::cluster {

/// Index of a host within the cluster.
using HostId = std::uint32_t;
/// Cluster-wide VM index.
using GlobalVmId = std::uint32_t;

/// The first six kinds are also the control plane's task kinds, with the
/// same values (ctl::TaskKind is defined from them).
enum class CommandKind : std::uint8_t {
  kStartVm = 0,           // resume a stopped VM on `host`
  kStopVm,                // hold a running VM's workload off-host
  kMigrate,               // live-migrate a running VM to `host`
  kCrashHost,             // fail `host`; `restart` holds its residents for recovery
  kRestartVm,             // place an orphaned VM on `host`
  kSetLinkBandwidth,      // re-plan in-flight pre-copies at `mb_per_s`
  kMarkLost,              // abandon an orphaned VM
  kAbortMigration,        // cancel the flight of `vm`
  kAbortOldestMigration,  // cancel the longest-in-flight migration
  kPowerOn,               // VOVO: power `host` on
  kPowerOff,              // VOVO: power `host` off
  kFederationLock,        // fence a running VM for a cross-shard flight
};

/// One requested mutation. Only the fields its kind names are read.
struct Command {
  CommandKind kind = CommandKind::kStartVm;
  GlobalVmId vm = 0;
  HostId host = 0;
  bool restart = true;
  double mb_per_s = 0.0;

  static Command migrate(GlobalVmId vm, HostId to) { return {CommandKind::kMigrate, vm, to}; }
  static Command stop_vm(GlobalVmId vm) { return {CommandKind::kStopVm, vm}; }
  static Command start_vm(GlobalVmId vm, HostId to) { return {CommandKind::kStartVm, vm, to}; }
  static Command crash_host(HostId host, bool restart_orphans) {
    return {CommandKind::kCrashHost, 0, host, restart_orphans};
  }
  static Command restart_vm(GlobalVmId vm, HostId to) { return {CommandKind::kRestartVm, vm, to}; }
  static Command mark_lost(GlobalVmId vm) { return {CommandKind::kMarkLost, vm}; }
  static Command set_link_bandwidth(double mb_per_s) {
    return {CommandKind::kSetLinkBandwidth, 0, 0, true, mb_per_s};
  }
  static Command abort_migration(GlobalVmId vm) { return {CommandKind::kAbortMigration, vm}; }
  static Command abort_oldest_migration() { return {CommandKind::kAbortOldestMigration}; }
  static Command power(HostId host, bool on) {
    return {on ? CommandKind::kPowerOn : CommandKind::kPowerOff, 0, host};
  }
  static Command federation_lock(GlobalVmId vm) { return {CommandKind::kFederationLock, vm}; }
};

enum class Status : std::uint8_t {
  kOk = 0,
  /// The command was invalid against cluster state or policy at that
  /// instant (VM in flight, no migration budget, brownout, already
  /// resident, ...).
  kRejected,
  /// The command's target no longer exists in the required state — a crash
  /// or a hand-off got there first (dead host, orphaned, lost or departed
  /// VM).
  kSuperseded,
};

/// A verdict: kOk with an empty reason, or a refusal and why.
struct Outcome {
  Status status = Status::kOk;
  std::string reason;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

}  // namespace pas::cluster
