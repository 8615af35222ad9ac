// Tiny command-line flag parser shared by the bench and example binaries.
//
// Supports `--key=value` and bare `--switch` arguments; anything else is
// collected as a positional. No external dependencies, no global state.
//
// run_main is every binary's guarded entry point: a UsageError (a
// malformed flag, or an input the caller classifies as bad usage) exits 2,
// any other exception exits 1, each after one "<program>: <what>" line on
// stderr — never std::terminate.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pas::common {

/// Bad command-line usage: a malformed flag value or an unusable input
/// named by a flag. run_main turns it into exit code 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& def) const;
  /// Numeric getters are strict: a missing flag returns `def`, but a flag
  /// that IS present must be a fully-formed number — `--threads=4x`,
  /// `--scale-hosts=` or a unit suffix throw UsageError with the
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

/// Runs `body` on the parsed flags and returns its exit code. A
/// UsageError exits 2, any other exception 1, each reported on stderr.
int run_main(int argc, const char* const* argv, const std::function<int(const Flags&)>& body);

}  // namespace pas::common
