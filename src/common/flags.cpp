#include "common/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace pas::common {
namespace {

/// Origin-style rejection, same shape as CsvTable / ctl::parse_tasks errors:
/// the offending flag spelled back verbatim, then what was wrong with it.
[[noreturn]] void fail(const std::string& key, const std::string& value,
                       const std::string& what) {
  std::string message = "--";
  message.append(key).append("=").append(value).append(": ").append(what);
  throw UsageError(message);
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

int run_main(int argc, const char* const* argv, const std::function<int(const Flags&)>& body) {
  const auto report = [&](int code, const char* what) {
    std::string_view program = argc > 0 ? argv[0] : "pas";
    program.remove_prefix(program.find_last_of('/') + 1);  // npos + 1 == 0
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()), program.data(), what);
    return code;
  };
  try {
    return body(Flags{argc, argv});
  } catch (const UsageError& err) {
    return report(2, err.what());
  } catch (const std::exception& err) {
    return report(1, err.what());
  } catch (...) {
    return report(1, "unknown exception");
  }
}

}  // namespace pas::common
