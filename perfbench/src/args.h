// Strict command-line parsing for the benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             [--work <dir>]
//
// Every flag takes exactly one value, appears at most once, and the first
// four are required. Anything else — an unknown flag, a missing or
// malformed value, a repeated flag, a positional argument — is a usage
// error: parse_args throws UsageError and main exits with status 2, so a
// mistyped invocation can never run as a silently empty workload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;  ///< measured time budget, 1..600
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files (durable service state)
};

/// The workload names the harness knows, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Parse argv[1..]; throws UsageError on any deviation from the grammar.
Args parse_args(const std::vector<std::string>& argv);

std::string usage();

}  // namespace perfbench
