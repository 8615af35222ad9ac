#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_manager.hpp"
#include "control/control_plane.hpp"
#include "fault/fault.hpp"
#include "sched/credit_scheduler.hpp"
#include "workload/synthetic.hpp"

namespace pas::cluster {

namespace {

/// The configured fleet, validated: one class per host.
const std::vector<platform::HostClass>& validate_classes(const ClusterConfig& cfg) {
  if (cfg.host_classes.empty())
    throw std::invalid_argument("Cluster: need at least one host class");
  for (const auto& c : cfg.host_classes) {
    if (c.memory_mb <= 0.0)
      throw std::invalid_argument("Cluster: class memory must be positive");
    if (c.numa_nodes == 0)
      throw std::invalid_argument("Cluster: class needs at least one NUMA node");
    if (c.numa_spill_penalty < 0.0)
      throw std::invalid_argument("Cluster: negative NUMA spill penalty");
  }
  return cfg.host_classes;
}

}  // namespace

RecoveryStats summarize_recoveries(const std::vector<VmRecovery>& recoveries) {
  RecoveryStats stats;
  stats.count = recoveries.size();
  if (recoveries.empty()) return stats;
  std::vector<common::SimTime> latencies;
  latencies.reserve(recoveries.size());
  double sum_s = 0.0;
  for (const VmRecovery& r : recoveries) {
    latencies.push_back(r.latency());
    sum_s += r.latency().sec();
  }
  std::sort(latencies.begin(), latencies.end());
  // Lower-median nearest rank: an integer-microsecond latency that really
  // occurred, never an interpolation — the value stays byte-stable however
  // the recoveries split across engines.
  stats.p50 = latencies[(latencies.size() - 1) / 2];
  stats.max = latencies.back();
  stats.mean_s = sum_s / static_cast<double>(recoveries.size());
  return stats;
}

Cluster::Cluster(ClusterConfig config)
    : cfg_(std::move(config)), meter_(validate_classes(cfg_).size()) {
  engine_ = std::make_unique<MigrationEngine>(cfg_.migration, events_);
  const std::size_t n = cfg_.host_classes.size();
  crashed_.assign(n, 0);
  host_slots_.resize(n);

  const std::size_t executors = cfg_.execution.threads == 0
                                    ? common::ThreadPool::hardware_threads()
                                    : cfg_.execution.threads;
  if (executors > 1) pool_ = std::make_unique<common::ThreadPool>(executors);

  hosts_.reserve(n);
  agents_.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    auto scheduler = cfg_.make_scheduler ? cfg_.make_scheduler()
                                         : std::make_unique<sched::CreditScheduler>();
    // Each host is built from its class: the shared template supplies the
    // timing knobs, the class supplies the machine (ladder + power model).
    hv::HostConfig hc = cfg_.host;
    hc.ladder = cfg_.host_classes[h].ladder;
    hc.power = cfg_.host_classes[h].power;
    auto host = std::make_unique<hv::Host>(std::move(hc), std::move(scheduler));
    hv::VmConfig agent_cfg;
    agent_cfg.name = "hv-agent-" + std::to_string(h);
    agent_cfg.credit = cfg_.agent_credit;
    agent_cfg.priority = cfg_.agent_priority;
    auto agent = std::make_unique<HypervisorAgent>();
    agents_.push_back(agent.get());
    if (host->add_vm(agent_cfg, std::move(agent)) != kAgentSlot)
      throw std::logic_error("Cluster: agent must hold slot 0");
    hosts_.push_back(std::move(host));
  }
}

Cluster::~Cluster() = default;

GlobalVmId Cluster::add_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                           HostId home) {
  if (started_) throw std::logic_error("Cluster: add_vm after run started");
  if (home >= hosts_.size()) throw std::invalid_argument("Cluster: bad home host");
  if (workload == nullptr) throw std::invalid_argument("Cluster: workload required");
  if (config.memory_mb <= 0.0)
    throw std::invalid_argument("Cluster: VM memory must be positive");

  // Lazy topology: the VM gets a slot on its home only; other hosts learn
  // about it if a migration or recovery ever lands it there.
  return register_vm(std::move(config), std::move(workload), home, VmState::kRunning);
}

GlobalVmId Cluster::admit_inbound(ClusterVmConfig config, HostId home) {
  if (home >= hosts_.size()) throw std::invalid_argument("Cluster: bad home host");
  if (config.memory_mb <= 0.0)
    throw std::invalid_argument("Cluster: VM memory must be positive");
  if (crashed_[home])
    throw std::invalid_argument("Cluster: inbound destination host crashed");

  // Mid-run registration rides the same between-segments Host::add_vm path
  // ensure_slot uses: the slot parks an IdleGuest until the federation
  // link's attach delivers the guest (workload + credit) into it.
  const GlobalVmId gid = register_vm(std::move(config), std::make_unique<wl::IdleGuest>(),
                                     home, VmState::kInbound);
  power(home, true);  // the destination must be receiving
  return gid;
}

GlobalVmId Cluster::register_vm(ClusterVmConfig config, std::unique_ptr<wl::Workload> workload,
                                HostId home, VmState state) {
  const auto gid = static_cast<GlobalVmId>(vm_cfgs_.size());
  const common::VmId slot_id = hosts_[home]->add_vm(config.vm, std::move(workload));
  sla_.register_vm(gid, config.vm.credit);
  vm_cfgs_.push_back(std::move(config));
  home_.push_back(home);
  home_slot_.push_back(slot_id);
  vm_slots_.emplace_back();
  vm_state_.push_back(state);
  held_wl_.emplace_back();
  held_since_.emplace_back();
  downtime_.emplace_back();
  migration_count_.push_back(0);
  fed_locked_.push_back(0);
  record_slot(home, gid, slot_id);
  return gid;
}

void Cluster::mark_departed(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kRunning)
    throw std::logic_error("Cluster: only a running VM can depart");
  // The link's detach already drained the slot (workload held in the
  // flight, credit exported, cap zeroed) — only the bookkeeping is ours.
  vm_state_[vm] = VmState::kDeparted;
  fed_locked_[vm] = 0;
}

void Cluster::complete_inbound(GlobalVmId vm, common::SimTime downtime) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kInbound)
    throw std::logic_error("Cluster: complete_inbound on a non-inbound VM");
  power(home_[vm], true);
  vm_state_[vm] = VmState::kRunning;
  downtime_[vm] += downtime;
  ++migration_count_[vm];
  // Same SLA contract as an intra-cluster stop-and-copy: the pause is one
  // fully violated window — a paused VM delivers nothing, whatever it
  // bought.
  if (downtime > common::SimTime{})
    sla_.record_window(vm, downtime, 0.0, /*saturated=*/true);
}

void Cluster::cancel_inbound(GlobalVmId vm) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  if (vm_state_[vm] != VmState::kInbound)
    throw std::logic_error("Cluster: cancel_inbound on a non-inbound VM");
  vm_state_[vm] = VmState::kDeparted;
}

void Cluster::abort_departure(GlobalVmId vm, const MigrationRecord& record) {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  const VmState want = record.outcome == MigrationOutcome::kAbortedPrecopy
                           ? VmState::kRunning
                           : VmState::kDeparted;
  if (!record.aborted() || vm_state_[vm] != want)
    throw std::logic_error("Cluster: abort_departure does not match the VM's state");
  fed_locked_[vm] = 0;
  if (record.outcome == MigrationOutcome::kLostSourceCrash) {
    vm_state_[vm] = VmState::kLost;
  } else if (record.outcome == MigrationOutcome::kAbortedStopCopy) {
    vm_state_[vm] = VmState::kRunning;
    downtime_[vm] += record.downtime;
    if (record.downtime > common::SimTime{})
      sla_.record_window(vm, record.downtime, 0.0, /*saturated=*/true);
  }
}

void Cluster::install_crash_listener(std::function<void(HostId, common::SimTime)> listener) {
  if (started_) throw std::logic_error("Cluster: install_crash_listener after run started");
  if (crash_listener_) throw std::logic_error("Cluster: crash listener already installed");
  crash_listener_ = std::move(listener);
}

void Cluster::record_slot(HostId host, GlobalVmId vm, common::VmId slot) {
  auto& hs = host_slots_[host];
  hs.insert(std::lower_bound(hs.begin(), hs.end(), vm,
                             [](const auto& e, GlobalVmId g) { return e.first < g; }),
            {vm, slot});
  auto& vs = vm_slots_[vm];
  vs.insert(std::lower_bound(vs.begin(), vs.end(), host,
                             [](const auto& e, HostId h) { return e.first < h; }),
            {host, slot});
}

const std::pair<GlobalVmId, common::VmId>* Cluster::find_slot(HostId host,
                                                              GlobalVmId vm) const {
  const auto& hs = host_slots_.at(host);
  const auto it = std::lower_bound(hs.begin(), hs.end(), vm,
                                   [](const auto& e, GlobalVmId g) { return e.first < g; });
  return it != hs.end() && it->first == vm ? &*it : nullptr;
}

bool Cluster::has_slot(HostId host, GlobalVmId vm) const { return find_slot(host, vm) != nullptr; }

common::VmId Cluster::slot_on(HostId host, GlobalVmId vm) const {
  const auto* entry = find_slot(host, vm);
  if (entry == nullptr) throw std::invalid_argument("Cluster: VM has no slot on that host");
  return entry->second;
}

common::VmId Cluster::ensure_slot(HostId host, GlobalVmId vm) {
  if (const auto* entry = find_slot(host, vm)) return entry->second;
  // First touch: park an IdleGuest in a freshly created slot. Mid-run this
  // is the Host::add_vm between-segments path.
  const common::VmId slot = hosts_[host]->add_vm(vm_cfgs_[vm].vm,
                                                 std::make_unique<wl::IdleGuest>());
  record_slot(host, vm, slot);
  return slot;
}

void Cluster::install_manager(std::unique_ptr<ClusterManager> manager) {
  if (started_) throw std::logic_error("Cluster: install_manager after run started");
  manager_ = std::move(manager);
}

void Cluster::install_faults(std::unique_ptr<fault::FaultInjector> injector) {
  if (started_) throw std::logic_error("Cluster: install_faults after run started");
  injector_ = std::move(injector);
}

void Cluster::install_control(std::unique_ptr<ctl::ControlPlane> control) {
  if (started_) throw std::logic_error("Cluster: install_control after run started");
  control_ = std::move(control);
}

void Cluster::schedule_at(common::SimTime at, std::function<void(common::SimTime)> fn) {
  if (started_) throw std::logic_error("Cluster: schedule_at after run started");
  hooks_.emplace_back(at, std::move(fn));
}

void Cluster::install_periodic_tasks() {
  // SLA sampling rides the hosts' monitor-window cadence: by the time the
  // cluster event at t = k*window fires, every host has closed its own
  // window ending at t (host events run before the cluster event — see
  // run_until), so the "last window" readings are exactly window k.
  const common::SimTime window = cfg_.host.monitor_window;
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      events_, window, window, [this](common::SimTime t) { sample_sla(t); }));
  sla_task_ = tasks_.back().get();

  if (manager_) {
    const common::SimTime p = manager_->period();
    tasks_.push_back(std::make_unique<sim::PeriodicTask>(
        events_, p, p, [this](common::SimTime t) { manager_->on_tick(t, *this); }));
  }
}

void Cluster::sample_sla(common::SimTime /*now*/) {
  const common::SimTime window = cfg_.host.monitor_window;
  for (HostId host = 0; host < hosts_.size(); ++host) {
    hv::Host& h = *hosts_[host];
    // The sampler is the one cluster event that may run while hosts lag
    // (run_until skips the sync when it fires alone). That is sound
    // because a lagging host's certificate pins its monitor at zero and
    // its saturation flags at false — the very values it would read after
    // catching up.
    assert(h.now() == now_ || h.next_activity_time() > now_);
    // SlaChecker ignores unsaturated windows, so a host that saturated no
    // VM has nothing to report.
    if (!h.any_saturated_last_window()) continue;
    for (const auto& [gid, s] : host_slots_[host]) {
      // Paused VMs are accounted at attach time; orphaned VMs at restart
      // time; lost VMs stop accruing windows at the crash.
      if (home_[gid] != host || vm_state_[gid] != VmState::kRunning) continue;
      if (engine_->detached(gid)) continue;  // pause accounted at attach time
      sla_.record_window(gid, window, h.monitor().vm_absolute_load_pct(s),
                         h.vm_saturated_last_window(s));
    }
  }
}

void Cluster::on_migration_done(const MigrationRecord& record) {
  switch (record.outcome) {
    case MigrationOutcome::kCompleted:
      home_[record.vm] = record.to;
      home_slot_[record.vm] = slot_on(record.to, record.vm);
      downtime_[record.vm] += record.downtime;
      ++migration_count_[record.vm];
      // The stop-and-copy pause is SLA-visible: a full window of length
      // `downtime` in which a (by definition demand-bearing) VM received
      // nothing at all.
      sla_.record_window(record.vm, record.downtime, 0.0, /*saturated=*/true);
      break;
    case MigrationOutcome::kAbortedPrecopy:
      // The guest never stopped running on the source: residence, downtime
      // and SLA are all untouched. Only the agents' per-round overhead
      // remains — bytes that really were pushed.
      break;
    case MigrationOutcome::kAbortedStopCopy:
      // Rolled back to the source: residence unchanged, but the truncated
      // pause really happened and is charged like a completed flight's.
      downtime_[record.vm] += record.downtime;
      if (record.downtime > common::SimTime{})
        sla_.record_window(record.vm, record.downtime, 0.0, /*saturated=*/true);
      break;
    case MigrationOutcome::kLostSourceCrash:
      // The guest evaporated with its source; the crash sweep that caused
      // this runs right after and handles the host side.
      vm_state_[record.vm] = VmState::kLost;
      break;
  }
}

namespace {

/// "<noun> <id> <what>" — a refusal naming its target.
Outcome refuse(Status status, const char* noun, std::uint32_t id, const char* what) {
  Outcome out{status, noun};
  out.reason.append(" ").append(std::to_string(id)).append(" ").append(what);
  return out;
}

/// The VM-state rung of migrate, stop_vm and start_vm: `want` passes; a
/// crash or a federation hand-off supersedes; anything else is rejected.
Outcome state_rung(VmState state, VmState want, CommandKind kind, GlobalVmId vm) {
  const auto no = [vm](Status s, const char* what) { return refuse(s, "vm", vm, what); };
  switch (state == want ? VmState::kRunning : state) {
    case VmState::kLost: return no(Status::kSuperseded, "lost");
    case VmState::kOrphaned: return no(Status::kSuperseded, "orphaned by a crash");
    case VmState::kDeparted: return no(Status::kSuperseded, "departed to another shard");
    case VmState::kInbound: return no(Status::kRejected, "inbound from another shard");
    case VmState::kStopped:
      return no(Status::kRejected, kind == CommandKind::kStopVm ? "already stopped" : "is stopped");
    case VmState::kRunning: break;
  }
  return state == want ? Outcome{} : no(Status::kRejected, "already running");
}

}  // namespace

Outcome Cluster::check(const Command& cmd) const {
  using K = CommandKind;
  const K k = cmd.kind;
  if ((k == K::kMigrate || k == K::kStopVm || k == K::kStartVm || k == K::kRestartVm ||
       k == K::kMarkLost || k == K::kAbortMigration || k == K::kFederationLock) &&
      cmd.vm >= vm_cfgs_.size())
    throw std::invalid_argument("Cluster: bad VM id");
  if ((k == K::kMigrate || k == K::kStartVm || k == K::kCrashHost || k == K::kRestartVm ||
       k == K::kPowerOn || k == K::kPowerOff) && cmd.host >= hosts_.size())
    throw std::invalid_argument("Cluster: bad host id");
  const auto vm_no = [&](Status s, const char* why) { return refuse(s, "vm", cmd.vm, why); };
  const auto host_no = [&](Status s, const char* why) { return refuse(s, "host", cmd.host, why); };
  const Status rej = Status::kRejected;
  const Status sup = Status::kSuperseded;
  Outcome out;
  switch (k) {
    case K::kMigrate:
      out = state_rung(vm_state_[cmd.vm], VmState::kRunning, k, cmd.vm);
      if (!out.ok()) return out;
      if (crashed_[cmd.host]) return host_no(sup, "crashed");
      if (home_[cmd.vm] == cmd.host) {
        out = vm_no(rej, "already resident on host ");
        out.reason += std::to_string(cmd.host);
        return out;
      }
      if (engine_->in_flight(cmd.vm)) return vm_no(rej, "already in flight");
      if (fed_locked_[cmd.vm]) return vm_no(rej, "locked by a federation flight");
      return out;
    case K::kStopVm:
    case K::kFederationLock:
      out = state_rung(vm_state_[cmd.vm], VmState::kRunning, k, cmd.vm);
      if (!out.ok()) return out;
      if (engine_->in_flight(cmd.vm)) return vm_no(rej, "in flight");
      if (fed_locked_[cmd.vm]) return vm_no(rej, "locked by a federation flight");
      return out;
    case K::kStartVm:
      out = state_rung(vm_state_[cmd.vm], VmState::kStopped, k, cmd.vm);
      return out.ok() && crashed_[cmd.host] ? host_no(sup, "crashed") : out;
    case K::kCrashHost:
      if (crashed_[cmd.host]) return host_no(sup, "already crashed");
      // A zero-host cluster cannot be simulated.
      if (crashed_count() + 1 >= hosts_.size()) return host_no(rej, "is the last live host");
      return out;
    case K::kRestartVm:
      if (vm_state_[cmd.vm] == VmState::kLost) return vm_no(sup, "lost");
      if (vm_state_[cmd.vm] != VmState::kOrphaned) return vm_no(rej, "not orphaned");
      return crashed_[cmd.host] ? host_no(sup, "crashed") : out;
    case K::kMarkLost:
      return vm_state_[cmd.vm] != VmState::kOrphaned ? vm_no(rej, "not orphaned") : out;
    case K::kSetLinkBandwidth:
      return out;
    case K::kAbortMigration:
      return engine_->in_flight(cmd.vm) ? out : vm_no(rej, "not in flight");
    case K::kAbortOldestMigration:
      return engine_->active_count() > 0 ? out : Outcome{rej, "no migration in flight"};
    case K::kPowerOn:
      return crashed_[cmd.host] ? host_no(sup, "crashed") : out;
    case K::kPowerOff:
      return host_in_use(cmd.host) ? host_no(rej, "in use") : out;
  }
  return out;
}

Outcome Cluster::apply(const Command& cmd) {
  Outcome out = check(cmd);
  if (!out.ok()) return out;
  switch (cmd.kind) {
    case CommandKind::kMigrate: {
      const HostId from = home_[cmd.vm];
      power(cmd.host, true);  // the destination must be receiving
      const ClusterVmConfig& cfg = vm_cfgs_[cmd.vm];
      MigrationEngine::Endpoint source{hosts_[from].get(), home_slot_[cmd.vm], agents_[from]};
      MigrationEngine::Endpoint dest{hosts_[cmd.host].get(), ensure_slot(cmd.host, cmd.vm),
                                     agents_[cmd.host]};
      engine_->begin(cmd.vm, from, cmd.host, source, dest, cfg.memory_mb, cfg.dirty_mb_per_s,
                     now_, [this](const MigrationRecord& r) { on_migration_done(r); });
      break;
    }
    case CommandKind::kStopVm:
      // Same detach as a crash sweep — workload off-host, cap 0, balance
      // dropped — but into the held store on purpose, and with no SLA
      // consequence: the monitor simply stops sampling a non-running VM
      // (sample_sla's filter).
      held_wl_[cmd.vm] = hosts_[home_[cmd.vm]]->detach_guest(home_slot_[cmd.vm]).workload;
      vm_state_[cmd.vm] = VmState::kStopped;
      break;
    case CommandKind::kStartVm: reattach(cmd.vm, cmd.host); break;
    case CommandKind::kCrashHost: crash(cmd.host, cmd.restart); break;
    case CommandKind::kRestartVm:
      // start_vm's re-attach, plus the outage [crash, now] SLA-charged as
      // one fully violated window: the crash burned the slot's balance.
      // Recovery may revive a VOVO-parked host.
      reattach(cmd.vm, cmd.host);
      if (now_ > held_since_[cmd.vm])
        sla_.record_window(cmd.vm, now_ - held_since_[cmd.vm], 0.0, /*saturated=*/true);
      recoveries_.push_back(VmRecovery{cmd.vm, held_since_[cmd.vm], now_});
      break;
    case CommandKind::kMarkLost:
      // SLA windows stopped accruing at the crash: a lost VM has no
      // further accounting.
      held_wl_[cmd.vm].reset();
      vm_state_[cmd.vm] = VmState::kLost;
      break;
    case CommandKind::kSetLinkBandwidth: engine_->set_link_bandwidth(cmd.mb_per_s); break;
    case CommandKind::kAbortMigration: engine_->cancel(cmd.vm, now_); break;
    case CommandKind::kAbortOldestMigration:
      engine_->cancel(engine_->in_flight_vms().front(), now_);
      break;
    case CommandKind::kPowerOn: power(cmd.host, true); break;
    case CommandKind::kPowerOff: power(cmd.host, false); break;
    case CommandKind::kFederationLock: fed_locked_[cmd.vm] = 1; break;
  }
  return out;
}

bool Cluster::host_in_use(HostId host) const {
  // kInbound counts: a federation flight is landing a guest here, and VOVO
  // parking the destination mid-transfer would strand the attach.
  for (const auto& [gid, s] : host_slots_[host])
    if (home_[gid] == host && (vm_state_[gid] == VmState::kRunning ||
                               vm_state_[gid] == VmState::kInbound))
      return true;
  return engine_->endpoint_in_flight(host);
}

void Cluster::power(HostId host, bool on) {
  meter_.set_powered(host, on, hosts_[host]->energy().joules());
}

void Cluster::crash(HostId host, bool restart_orphans) {
  crashed_[host] = 1;
  // Migrations first, residents second: a destination crash then rolls its
  // guest back onto a source that is still intact, and a source crash
  // during pre-copy returns the guest to `host` in time for the resident
  // sweep below to orphan it like any other resident. Cross-shard flights
  // live on the federation's engine; the listener aborts them.
  if (crash_listener_) crash_listener_(host, now_);
  engine_->abort_host_flights(host, now_);
  hv::Host& h = *hosts_[host];
  // Resident sweep over the host's slot holders, ascending VM id — only
  // VMs that actually touched this host can be resident on it.
  for (const auto& [gid, s] : host_slots_[host]) {
    if (home_[gid] != host || vm_state_[gid] != VmState::kRunning) continue;
    // Crash semantics for credit: the balance dies with the host (unlike a
    // migration's, nothing carries it), and the cap drops to zero so the
    // dead slot earns nothing.
    auto workload = h.detach_guest(s).workload;
    if (restart_orphans) {
      vm_state_[gid] = VmState::kOrphaned;
      held_wl_[gid] = std::move(workload);
      held_since_[gid] = now_;
    } else {
      vm_state_[gid] = VmState::kLost;
    }
  }
  // Silence the host's hypervisor agent too — a crashed host burns no CPU.
  h.scheduler().set_cap(kAgentSlot, 0.0);
  h.scheduler().import_credit(kAgentSlot, common::SimTime{});
  assert(!host_in_use(host) && "crashed host must be powerable-off after the sweep");
  power(host, false);
}

void Cluster::reattach(GlobalVmId vm, HostId to) {
  power(to, true);
  const common::VmId s = ensure_slot(to, vm);
  // Eq. 4 cap at the destination's current P-state, over an empty balance.
  hosts_[to]->attach_guest(s, std::move(held_wl_[vm]), common::SimTime{});
  home_[vm] = to;
  home_slot_[vm] = s;
  vm_state_[vm] = VmState::kRunning;
}

std::size_t Cluster::crashed_count() const {
  std::size_t n = 0;
  for (const auto c : crashed_)
    if (c != 0) ++n;
  return n;
}

std::vector<GlobalVmId> Cluster::orphaned_vms() const {
  std::vector<GlobalVmId> vms;
  for (GlobalVmId gid = 0; gid < vm_state_.size(); ++gid)
    if (vm_state_[gid] == VmState::kOrphaned) vms.push_back(gid);
  return vms;
}

std::size_t Cluster::running_vm_count() const {
  std::size_t n = 0;
  for (const auto s : vm_state_)
    if (s == VmState::kRunning) ++n;
  return n;
}

std::size_t Cluster::lost_vm_count() const {
  std::size_t n = 0;
  for (const auto s : vm_state_)
    if (s == VmState::kLost) ++n;
  return n;
}

std::size_t Cluster::powered_on_count() const {
  std::size_t n = 0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    if (meter_.powered(h)) ++n;
  return n;
}

double Cluster::energy_joules() const {
  double total = 0.0;
  for (std::size_t h = 0; h < hosts_.size(); ++h)
    total += meter_.host_joules(h, hosts_[h]->energy().joules());
  return total;
}

double Cluster::host_energy_joules(HostId host) const {
  if (host >= hosts_.size()) throw std::invalid_argument("Cluster: bad host id");
  return meter_.host_joules(host, hosts_[host]->energy().joules());
}

double Cluster::average_watts() const {
  return now_.sec() > 0.0 ? energy_joules() / now_.sec() : 0.0;
}

ClusterVmStats Cluster::vm_stats(GlobalVmId vm) const {
  if (vm >= vm_cfgs_.size()) throw std::invalid_argument("Cluster: bad VM id");
  ClusterVmStats stats;
  // Only hosts the VM actually touched hold any of its time; summed in
  // ascending host order so the totals are deterministic.
  for (const auto& [h, s] : vm_slots_[vm]) {
    stats.total_busy += hosts_[h]->vm(s).total_busy;
    stats.total_work += hosts_[h]->vm(s).total_work;
  }
  stats.downtime = downtime_[vm];
  stats.migrations = migration_count_[vm];
  return stats;
}

EngineStats Cluster::engine_stats() const {
  EngineStats stats = engine_stats_;
  for (const auto& host : hosts_) stats.refills_collapsed += host->refills_collapsed();
  return stats;
}

void Cluster::advance_hosts(common::SimTime target) {
  ++engine_stats_.segments;
  // Activity partition, on the coordinating thread: a host whose
  // quiescence certificate covers the whole segment is left where it is —
  // it lags, and a later Host::skip_idle_to crosses every lagged segment
  // at once (energy, trace rows and periodic-event order all
  // byte-identical to running it, whatever the chunking). The rest form
  // the active list; a lagging one first catches up to the segment start,
  // which keeps the quantum grid anchored where the stepped loop has it.
  // The partition reads only per-host state, so its outcome — and
  // therefore every dispatched computation — is independent of thread
  // count.
  active_hosts_.clear();
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    hv::Host& host = *hosts_[h];
    if (host.next_activity_time() > target) {
      ++engine_stats_.bulk_skips;
      continue;
    }
    if (host.now() < now_) ++engine_stats_.catch_ups;
    active_hosts_.push_back(h);
  }
  engine_stats_.dispatches += active_hosts_.size();
  const common::SimTime start = now_;
  const auto step = [this, start, target](std::size_t h) {
    hv::Host& host = *hosts_[h];
    host.skip_idle_to(start);  // no-op unless lagging
    host.run_until(target);
  };
  if (!pool_) {  // serial driver
    for (const std::size_t h : active_hosts_) step(h);
    return;
  }
  // Pooled driver: each index touches exactly one host and hosts share no
  // mutable state between cluster events (the hv::Host contract), so the
  // fork-join computes precisely what the serial loop does — in whatever
  // thread interleaving — and the barrier restores the synchronized-fleet
  // picture before any cluster event can look. Only active hosts pay the
  // dispatch; the pool's default grain batches them per shared-counter hit.
  pool_->parallel_for(active_hosts_.size(),
                      [this, &step](std::size_t k) { step(active_hosts_[k]); });
}

void Cluster::sync_hosts() {
  for (auto& host : hosts_) {
    if (host->now() == now_) continue;
    host->skip_idle_to(now_);
    ++engine_stats_.catch_ups;
  }
}

void Cluster::run_until(common::SimTime until) {
  if (!started_) {
    install_periodic_tasks();
    // The fault schedule is armed once, here, onto the same queue the
    // periodic tasks use: a fault lands at a fixed (time, insertion-seq)
    // position, so any tie with a manager tick or SLA sample breaks the
    // same way in every engine — faults never perturb determinism. The
    // control plane arms after the injector (a command tying a crash
    // observes the post-crash world), and raw schedule_at hooks arm last,
    // in call order — the seam the control fuzz test uses to occupy the
    // exact queue positions ControlPlane::arm would.
    if (injector_) injector_->arm(*this, events_);
    if (control_) control_->arm(*this, events_);
    for (auto& [at, fn] : hooks_) events_.schedule(at, std::move(fn));
    hooks_.clear();
    started_ = true;
  }
  while (now_ < until) {
    // Advance every host to the next instant the cluster itself acts, then
    // act. Hosts reach `target` first (firing their own internal events up
    // to and including it), so a cluster event always observes — and
    // mutates — a fleet synchronized to its own timestamp. Cluster events
    // themselves always run serially on this thread, in the queue's
    // deterministic (time, insertion-sequence) order, whatever
    // ExecutionPolicy says.
    const common::SimTime next_event = events_.next_event_time(until);
    if (events_.empty() || next_event > until) {
      // Empty tail: no cluster event fires in (now_, until], so the whole
      // remainder is one segment — one head comparison, one bulk advance,
      // no per-iteration queue dispatch.
      advance_hosts(until);
      now_ = until;
      break;
    }
    if (next_event > now_) {
      advance_hosts(next_event);
      now_ = next_event;
    }
    // Lagging hosts must be caught up before an event may touch them. The
    // SLA sampler firing alone is the exception (see sample_sla): it is
    // the event of nearly every instant on an idle fleet.
    if (!(events_.sole_due(now_) && sla_task_->next_due() == now_)) sync_hosts();
    events_.run_until(now_);
    // The queue removes cancelled entries eagerly, so firing leaves the
    // head strictly in the future (or the queue empty) — the invariant
    // that lets the next iteration trust a single peek.
    assert(events_.next_event_time(until) > now_ || events_.empty());
  }
  // Callers read hosts between run_until calls: hand back a synced fleet.
  sync_hosts();
}

}  // namespace pas::cluster
