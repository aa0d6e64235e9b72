// In-memory span log for the traced benchmark run.
//
// The harness wraps each call into a library layer in a span (name, start,
// end, parent, and a trace id shared by every span of one event). Spans
// are kept in memory while the workload runs and written out once at exit.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  ///< index into the log, -1 = root
  std::uint64_t trace = 0;
  double start = 0.0;  ///< seconds on the harness clock
  double end = 0.0;
};

class SpanLog {
 public:
  std::uint32_t intern(const std::string& name);

  /// Append a span; returns its index (usable as a child's parent).
  std::int32_t add(std::uint32_t name, std::uint64_t trace, double start,
                   double end, std::int32_t parent = -1);

  std::size_t size() const { return spans_.size(); }

  /// Self time of every span, grouped by span name (seconds).
  std::map<std::string, std::vector<double>> self_times() const;

  /// Tab-separated: name, trace, parent, start_ns, end_ns. Throws
  /// std::runtime_error when the file cannot be written.
  void write_tsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Duration of [start, end] minus its overlap with the union of `children`
/// (each a [start, end] pair). Exposed for the self-tests.
double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children);

}  // namespace perfbench
