// Federated hosting-center scenario: K hosting-cluster shards (each the
// classic build_hosting_cluster fleet) under one fed::Federation.
//
// Shard 0 is built from `base` UNCHANGED — with shards = 1 the federation
// run is byte-exact to the bare hosting cluster, the degradation contract
// the determinism suite pins. Further shards re-seed the tenant draws
// (seed + s·1000) so the fleets differ, and with K > 1 the VM population
// is always SKEWED: a quarter of the tenants are moved from the last shard
// onto shard 0, handing the global planner a reserved-memory imbalance
// above fed::kImbalanceThreshold — a federation bench that never crosses a
// link measures nothing.
#pragma once

#include <cstddef>
#include <memory>

#include "federation/federation.hpp"
#include "scenario/hosting_cluster.hpp"

namespace pas::scenario {

struct FederationScenarioConfig {
  /// Per-shard template; shard 0 uses it verbatim, shard s re-seeds with
  /// seed + s·1000 (and fleet_seed + s when a fleet seed is set).
  HostingClusterConfig base;
  std::size_t shards = 2;
  fed::FederationConfig federation;
};

[[nodiscard]] std::unique_ptr<fed::Federation> build_federation(
    const FederationScenarioConfig& config);

}  // namespace pas::scenario
