#include "sim/periodic.hpp"

#include <algorithm>

namespace pas::sim {

void order_last_fires(std::span<const PendingFire> fires, common::SimTime target,
                      std::vector<std::size_t>& order) {
  order.clear();
  for (std::size_t i = 0; i < fires.size(); ++i)
    if (fires[i].due <= target) order.push_back(i);
  const auto last_fire = [&](const PendingFire& f) {
    return f.due + f.period * (fires_through(f, target) - 1);
  };
  std::sort(order.begin(), order.end(), [&](std::size_t ia, std::size_t ib) {
    const PendingFire& a = fires[ia];
    const PendingFire& b = fires[ib];
    const common::SimTime la = last_fire(a);
    const common::SimTime lb = last_fire(b);
    if (la != lb) return la < lb;
    const bool a_first = a.due == la;
    const bool b_first = b.due == lb;
    if (a_first != b_first) return a_first;
    if (!a_first) {
      if (a.period != b.period) return a.period > b.period;
      if (a.due != b.due) return a.due > b.due;
    }
    return a.seq < b.seq;
  });
}

}  // namespace pas::sim
