#include "common/flags.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace pas::common {
namespace {

/// Origin-style rejection, same shape as CsvTable / ctl::parse_tasks errors:
/// the offending flag spelled back verbatim, then what was wrong with it.
[[noreturn]] void fail(const std::string& key, const std::string& value,
                       const std::string& what) {
  throw std::runtime_error("--" + key + "=" + value + ": " + what);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_.emplace(std::string{arg}, "");
      } else {
        values_.emplace(std::string{arg.substr(0, eq)}, std::string{arg.substr(eq + 1)});
      }
    } else {
      positionals_.emplace_back(arg);
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.contains(key); }

std::optional<std::string> Flags::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

double Flags::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  if (v->empty()) fail(key, *v, "expected a number, got an empty value");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str()) fail(key, *v, "not a number");
  if (*end != '\0') fail(key, *v, std::string{"trailing junk after number: '"} + end + "'");
  if (errno == ERANGE) fail(key, *v, "number out of range");
  return parsed;
}

long Flags::get_int(const std::string& key, long def) const {
  const auto v = get(key);
  if (!v) return def;
  if (v->empty()) fail(key, *v, "expected an integer, got an empty value");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str()) fail(key, *v, "not an integer");
  if (*end != '\0') fail(key, *v, std::string{"trailing junk after integer: '"} + end + "'");
  if (errno == ERANGE) fail(key, *v, "integer out of range");
  return parsed;
}

std::size_t Flags::get_count(const std::string& key, std::size_t def) const {
  const auto v = get(key);
  if (!v) return def;
  const long parsed = get_int(key, 0);
  if (parsed < 0) fail(key, *v, "expected a non-negative count");
  return static_cast<std::size_t>(parsed);
}

}  // namespace pas::common
