// Cross-shard migration cost model for the federation tier.
//
// The single-cluster MigrationEngine prices every flight off ONE
// MigrationConfig — the shard's own link. A cross-shard move crosses a
// different machine (a WAN circuit) between endpoints that may differ (a
// xeon→optiplex move pays costs a same-class move does not). A LinkModel
// bundles that link's MigrationConfig — fed verbatim into the federation's
// MigrationEngine — with the class-aware surcharges applied per flight:
//
//   * cross_class_dirty_factor — a guest moving between different platform
//     classes redirties faster in transit (page-tracking conversion,
//     differing page sizes), stretching pre-copy convergence;
//   * cross_class_switch_latency — extra switch-over pause on foreign
//     hardware (device re-attach, CPU feature mask rewrite), charged via
//     MigrationEngine::begin's per-flight extra_switch_latency so it
//     survives bandwidth re-plans.
//
// The numbers are deliberately round — the model prices RELATIVE costs
// (WAN downtime ≫ a shard's internal downtime), not a specific datacenter.
#pragma once

#include "cluster/migration.hpp"
#include "common/units.hpp"
#include "platform/host_class.hpp"

namespace pas::fed {

struct LinkModel {
  /// The link's pre-copy cost model: bandwidth, stop-copy threshold,
  /// switch latency, per-MB hypervisor bills. The federation's
  /// MigrationEngine is constructed from exactly this config.
  cluster::MigrationConfig migration;
  /// Dirty-rate multiplier for flights whose endpoints are different
  /// platform classes (1.0 = class-blind link).
  double cross_class_dirty_factor = 1.0;
  /// Extra switch-over pause for cross-class flights, on top of the
  /// config's switch_latency.
  common::SimTime cross_class_switch_latency{};

  /// Effective dirty-rate factor for a src→dst flight on this link.
  [[nodiscard]] double dirty_factor(const platform::HostClass& src,
                                    const platform::HostClass& dst) const;
  /// Extra switch-over latency for a src→dst flight on this link.
  [[nodiscard]] common::SimTime switch_penalty(const platform::HostClass& src,
                                               const platform::HostClass& dst) const;
};

/// The inter-site circuit every cross-shard flight crosses.
[[nodiscard]] LinkModel wan_link();

}  // namespace pas::fed
