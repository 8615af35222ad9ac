#include "federation/link_model.hpp"

namespace pas::fed {

double LinkModel::dirty_factor(const platform::HostClass& src,
                               const platform::HostClass& dst) const {
  return src.name == dst.name ? 1.0 : cross_class_dirty_factor;
}

common::SimTime LinkModel::switch_penalty(const platform::HostClass& src,
                                          const platform::HostClass& dst) const {
  return src.name == dst.name ? common::SimTime{} : cross_class_switch_latency;
}

LinkModel wan_link() {
  LinkModel link;
  link.migration.link_mb_per_s = 100.0;       // inter-site circuit
  link.migration.stop_copy_threshold_mb = 64.0;  // converge earlier: rounds are dear
  link.migration.switch_latency = common::msec(200);  // re-route, not just ARP
  link.migration.source_cpu_us_per_mb = 120.0;   // compression on the wire
  link.migration.dest_cpu_us_per_mb = 80.0;
  link.cross_class_dirty_factor = 1.25;
  link.cross_class_switch_latency = common::msec(150);
  return link;
}

}  // namespace pas::fed
