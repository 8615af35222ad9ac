// Machine fingerprint for the bench JSON files: a throughput figure is only
// comparable with another taken on the same core count, compiler and build
// type, so every committed BENCH_*.json records all three.
#pragma once

#include <string>
#include <thread>

#ifndef PAS_BUILD_TYPE
#define PAS_BUILD_TYPE "unknown"
#endif

namespace pas::bench {

/// The `"machine"` value of a bench's top-level JSON object: `{"nproc": ...}`.
inline std::string machine_json() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "g++ " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler + "\", \"build_type\": \"" PAS_BUILD_TYPE "\"}";
}

}  // namespace pas::bench
