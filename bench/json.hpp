// The benches' one JSON emitter: an ordered object writer, so every
// BENCH_*.json renders its keys in a fixed order at fixed precision.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/json.hpp"

namespace pas::bench {

/// Ordered JSON object: members render in insertion order, two-space
/// indented, each number at the fixed precision its key has always had.
class Json {
 public:
  Json& num(const std::string& key, double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, '"' + ctl::json::escape(v) + '"');
  }
  /// Tri-state: a comparison that never ran is null, never a vacuous true.
  Json& verdict(const std::string& key, const std::optional<bool>& v) {
    return raw(key, v ? (*v ? "true" : "false") : "null");
  }
  Json& raw(const std::string& key, std::string value) {
    members_.push_back({key, std::move(value), nullptr});
    return *this;
  }
  Json& obj(const std::string& key, Json child) {
    members_.push_back({key, {}, std::make_shared<const Json>(std::move(child))});
    return *this;
  }

  Json& merge(Json other) {
    for (Member& m : other.members_) members_.push_back(std::move(m));
    return *this;
  }

  /// One-line `key value, key {...}` digest for the console report.
  [[nodiscard]] std::string line() const {
    std::string out;
    for (const Member& m : members_)
      out += (out.empty() ? "" : ", ") + m.key + " " +
             (m.child ? "{" + m.child->line() + "}" : m.value);
    return out;
  }

  [[nodiscard]] std::string render(std::size_t depth = 0) const {
    if (members_.empty()) return "{}";
    const std::string pad(2 * depth + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      out += pad + '"' + ctl::json::escape(m.key) + "\": " +
             (m.child ? m.child->render(depth + 1) : m.value);
      out += i + 1 < members_.size() ? ",\n" : "\n";
    }
    return out + std::string(2 * depth, ' ') + "}";
  }

 private:
  struct Member {
    std::string key;
    std::string value;
    std::shared_ptr<const Json> child;
  };

  std::vector<Member> members_;
};

/// `{"wall_seconds": ..., "sim_per_wall": ...}` appended to `j`: how every
/// bench reports one timed run.
inline Json timing(double wall_s, double sim_per_wall, Json j = {}) {
  return std::move(j.num("wall_seconds", wall_s, 6).num("sim_per_wall", sim_per_wall, 1));
}

}  // namespace pas::bench
