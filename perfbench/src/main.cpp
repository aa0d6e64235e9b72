// IdleRed benchmark harness: runs one workload for a seed and a time
// budget, prints human-readable detail, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// End-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit status: 0 on a completed run (correct or not, the JSON says which),
// 2 on a usage error, 1 on any other failure (no JSON line).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s\n", e.what(), usage().c_str());
    return 2;
  }
  try {
    std::filesystem::create_directories(args.work_dir);
    std::printf("workload %s, seed %llu, %d s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Report report;
    if (args.workload == "engine_sweep") {
      run_engine(args, report);
    } else {
      run_serve(args, report);
    }
    std::printf("attempted %llu, failed %llu, mismatches %llu, "
                "error_rate %.6g\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.mismatches),
                static_cast<double>(report.failed + report.mismatches) /
                    static_cast<double>(report.attempted ? report.attempted
                                                         : 1));
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
