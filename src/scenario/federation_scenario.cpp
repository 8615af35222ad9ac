#include "scenario/federation_scenario.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace pas::scenario {

std::unique_ptr<fed::Federation> build_federation(
    const FederationScenarioConfig& config) {
  if (config.shards == 0)
    throw std::invalid_argument("build_federation: need at least one shard");

  // The skew: base.vms/4 tenants move from the last shard to shard 0 so
  // the global planner has an imbalance to work on.
  const std::size_t extra = config.shards > 1 ? config.base.vms / 4 : 0;

  std::vector<std::unique_ptr<cluster::Cluster>> shards;
  shards.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    HostingClusterConfig shard = config.base;
    // s = 0 keeps `base` verbatim — the K = 1 byte-exactness contract.
    shard.seed = config.base.seed + s * 1000;
    if (config.base.fleet_seed != 0) shard.fleet_seed = config.base.fleet_seed + s;
    if (s == 0) shard.vms += extra;
    if (s + 1 == config.shards && s != 0) shard.vms -= extra;
    shards.push_back(build_hosting_cluster(shard));
  }
  return std::make_unique<fed::Federation>(config.federation, std::move(shards));
}

}  // namespace pas::scenario
