// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports `--key=value` and bare `--switch` arguments; anything else is
// collected as a positional. No external dependencies, no global state.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pas::common {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& def) const;
  /// Numeric getters are strict: a missing flag returns `def`, but a flag
  /// that IS present must be a fully-formed number — `--threads=4x`,
  /// `--scale-hosts=` or a unit suffix throw std::runtime_error with the
  /// offending `--key=value` spelled back, instead of silently parsing a
  /// prefix (the old strtod(nullptr) behavior) or falling back to the
  /// default. Bare switches stay valid for has(); they just cannot be fed
  /// to a numeric getter.
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  /// Count and seed flags: get_int, but a negative value throws (spelled
  /// back as `--key=value`) instead of wrapping to ~2^64 through a size_t
  /// cast.
  [[nodiscard]] std::size_t get_count(const std::string& key, std::size_t def) const;
  [[nodiscard]] const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace pas::common
