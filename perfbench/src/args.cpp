#include "args.h"

#include <charconv>
#include <set>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "serve_study", "serve_100k", "serve_durable", "engine_sweep"};
  return names;
}

std::string usage() {
  return "usage: perfbench --workload <serve_study|serve_100k|serve_durable|"
         "engine_sweep> --seed <n> --seconds <1..600> --trace <0|1> "
         "[--work <dir>]";
}

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end)
    throw UsageError(flag + ": expected a non-negative integer, got '" +
                     text + "'");
  return value;
}

}  // namespace

Args parse_args(const std::vector<std::string>& argv) {
  Args args;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--work")
      throw UsageError("unknown argument '" + flag + "'");
    if (!seen.insert(flag).second)
      throw UsageError(flag + " given more than once");
    if (i + 1 >= argv.size()) throw UsageError(flag + ": missing value");
    const std::string& value = argv[i + 1];

    if (flag == "--workload") {
      bool known = false;
      for (const std::string& name : workload_names()) known |= name == value;
      if (!known) throw UsageError("unknown workload '" + value + "'");
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, value);
      if (s < 1 || s > 600)
        throw UsageError("--seconds: must be in 1..600, got " + value);
      args.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw UsageError("--trace: expected 0 or 1, got '" + value + "'");
      args.trace = value == "1";
    } else {
      if (value.empty()) throw UsageError("--work: empty directory");
      args.work_dir = value;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (!seen.count(required))
      throw UsageError(std::string(required) + " is required");
  return args;
}

}  // namespace perfbench
