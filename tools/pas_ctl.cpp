// pas_ctl: drive the hosting-cluster simulator from an external command
// stream — the control plane's standalone front end.
//
// Two modes over the same ctl::ControlPlane:
//
//   batch (default)   Reads a whole task log through a ctl::FileCommunicator
//                     (a regular file, or a named pipe — the read blocks
//                     until the writer closes it), parses it strictly
//                     against the fleet dims (malformed input exits 1 with
//                     the origin:line diagnostic), runs the scenario to the
//                     horizon, and publishes the result log to --results
//                     (stdout when omitted). Deterministic end to end: the
//                     same stream over the same scenario yields the same
//                     result log, byte for byte, in every engine.
//
//   --repl            Line-oriented interactive driver on stdin:
//                         {"id": 1, "at_s": 10, "task": "migrate", ...}
//                             queue one task (same JSON as a stream line)
//                         run <seconds>
//                             advance the cluster to absolute sim-time
//                         status
//                             one-line fleet summary
//                         quit
//                             publish the result log and exit
//                     Tasks queued with at_s in the past fire at the next
//                     event boundary (ControlPlane::submit). Feeding the
//                     same line sequence replays the same session.
//
// Usage: pas_ctl --commands=FILE [--results=FILE] [--repl]
//          [--hosts=8] [--vms=64] [--horizon=400] [--seed=17]
//          [--threads=1] [--slow] [--chaos-seed=N]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/flags.hpp"
#include "common/units.hpp"
#include "control/communicator.hpp"
#include "control/control_plane.hpp"
#include "control/task.hpp"
#include "scenario/hosting_cluster.hpp"

namespace {

using pas::common::seconds;
using pas::common::SimTime;

struct Options {
  std::string commands;
  std::string results;
  bool repl = false;
  std::size_t hosts = 8;
  std::size_t vms = 64;
  double horizon_s = 400.0;
  std::uint64_t seed = 17;
  std::size_t threads = 1;
  bool fast_path = true;
  std::uint64_t chaos_seed = 0;
};

std::unique_ptr<pas::cluster::Cluster> build(const Options& opt) {
  pas::scenario::HostingClusterConfig cfg;
  cfg.hosts = opt.hosts;
  cfg.vms = opt.vms;
  cfg.horizon = seconds(static_cast<long long>(opt.horizon_s));
  cfg.seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.fast_path = opt.fast_path;
  cfg.chaos_seed = opt.chaos_seed;
  return pas::scenario::build_hosting_cluster(cfg);
}

void print_status(pas::cluster::Cluster& cluster) {
  std::printf("t=%.3fs hosts=%zu (on: %zu, crashed: %zu) vms: %zu running, %zu lost\n",
              cluster.now().sec(), cluster.host_count(), cluster.powered_on_count(),
              cluster.crashed_count(), cluster.running_vm_count(), cluster.lost_vm_count());
}

int run_batch(const Options& opt) {
  auto comm = std::make_unique<pas::ctl::FileCommunicator>(opt.commands, opt.results);
  auto plane = std::make_unique<pas::ctl::ControlPlane>(
      std::move(comm), pas::ctl::FleetDims{opt.hosts, opt.vms});
  const std::size_t tasks = plane->tasks().size();

  auto cluster = build(opt);
  pas::ctl::ControlPlane* ctl = plane.get();
  cluster->install_control(std::move(plane));
  cluster->run_until(seconds(static_cast<long long>(opt.horizon_s)));

  ctl->publish();
  std::fprintf(stderr, "pas_ctl: %zu task(s), %zu fired: %zu ok, %zu rejected, %zu superseded\n",
               tasks, ctl->results().size(), ctl->accepted(), ctl->rejected(),
               ctl->superseded());
  print_status(*cluster);
  return 0;
}

int run_repl(const Options& opt) {
  auto cluster = build(opt);
  // An empty scripted stream: the plane exists purely as a submit() target.
  // Arm it immediately (run_until to the current instant advances nothing
  // but schedules the control plane onto the queue) so the first task line
  // works without a prior `run`.
  cluster->install_control(
      std::make_unique<pas::ctl::ControlPlane>(std::vector<pas::ctl::Task>{}));
  cluster->run_until(cluster->now());
  pas::ctl::ControlPlane* ctl = cluster->control();

  const SimTime horizon = seconds(static_cast<long long>(opt.horizon_s));
  std::string line;
  std::uint64_t repl_line = 0;
  while (std::getline(std::cin, line)) {
    ++repl_line;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      if (line.compare(first, 4, "quit") == 0 || line.compare(first, 4, "exit") == 0) break;
      if (line.compare(first, 6, "status") == 0) {
        print_status(*cluster);
        continue;
      }
      if (line.compare(first, 4, "run ") == 0) {
        const double to_s = std::stod(line.substr(first + 4));
        const SimTime to = pas::common::usec(static_cast<long long>(to_s * 1e6));
        if (to <= cluster->now()) {
          std::fprintf(stderr, "run %.3f: already at %.3fs\n", to_s, cluster->now().sec());
          continue;
        }
        cluster->run_until(std::min(to, horizon));
        print_status(*cluster);
        continue;
      }
      // Anything else is one task object — parsed as a single-element
      // stream so it gets the full strict treatment, with the REPL line
      // number as the origin's line (wrap adds one line above).
      const std::string origin = "<repl:" + std::to_string(repl_line) + ">";
      auto tasks = pas::ctl::parse_tasks("[\n" + line + "\n]", origin,
                                         {opt.hosts, opt.vms});
      for (const pas::ctl::Task& task : tasks) {
        ctl->submit(task);
        std::fprintf(stderr, "queued task %llu (%s) at %.3fs\n",
                     static_cast<unsigned long long>(task.id),
                     pas::ctl::to_string(task.kind), task.at.sec());
      }
    } catch (const std::exception& err) {
      std::fprintf(stderr, "error: %s\n", err.what());
    }
  }

  const std::string log = ctl->result_log();
  if (opt.results.empty()) {
    std::fputs(log.c_str(), stdout);
  } else {
    std::ofstream out(opt.results, std::ios::binary);
    out << log;
  }
  std::fprintf(stderr, "pas_ctl: %zu fired: %zu ok, %zu rejected, %zu superseded\n",
               ctl->results().size(), ctl->accepted(), ctl->rejected(), ctl->superseded());
  return 0;
}

int run(const pas::common::Flags& flags) {
  Options opt;
  opt.commands = flags.get_or("commands", "");
  opt.results = flags.get_or("results", "");
  opt.repl = flags.has("repl");
  opt.hosts = flags.get_count("hosts", 8);
  opt.vms = flags.get_count("vms", 64);
  opt.horizon_s = flags.get_double("horizon", 400.0);
  opt.seed = flags.get_count("seed", 17);
  opt.threads = flags.get_count("threads", 1);
  opt.fast_path = !flags.has("slow");
  opt.chaos_seed = flags.get_count("chaos-seed", 0);

  if (!opt.repl && opt.commands.empty()) {
    std::fprintf(stderr,
                 "pas_ctl: need --commands=FILE (batch) or --repl (interactive)\n"
                 "usage: pas_ctl --commands=FILE [--results=FILE] [--repl]\n"
                 "         [--hosts=8] [--vms=64] [--horizon=400] [--seed=17]\n"
                 "         [--threads=1] [--slow] [--chaos-seed=N]\n");
    return 2;
  }
  return opt.repl ? run_repl(opt) : run_batch(opt);
}

}  // namespace

// A malformed or negative flag exits 2; a failed run (an unreadable or
// malformed command file included) exits 1.
int main(int argc, char** argv) { return pas::common::run_main(argc, argv, run); }
