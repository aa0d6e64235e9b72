#include <cstdio>
#include <sstream>

#include "harness.h"

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back(Metric{name, value, unit});
}

void Report::set_quantiles(const std::string& name,
                           std::vector<double> samples, double scale,
                           const std::string& unit) {
  for (double& s : samples) s *= scale;
  const Quantiles q = quantiles(samples);
  std::printf("  %-28s p50 %12.4f  p%-6.3g %12.4f %-5s n=%zu\n", name.c_str(),
              q.p50, q.tail_pct, q.tail, unit.c_str(), q.count);
  set(name, q.p50, unit);
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << (attempted > 0 ? attempted : 1)
     << ", \"failed\": " << failed + mismatches + (verified ? 0 : 1)
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void print_self_times(const SpanLog& spans) {
  std::printf("\nspan self times (%zu spans)\n", spans.size());
  std::printf("  %-26s %10s %12s %12s %12s\n", "span", "count", "self p50 us",
              "self p99 us", "self total s");
  for (auto& [name, values] : spans.self_times()) {
    double total = 0.0;
    for (double v : values) total += v;
    const Quantiles q = quantiles(values);
    std::printf("  %-26s %10zu %12.3f %12.3f %12.4f\n", name.c_str(), q.count,
                q.p50 * 1e6, q.tail * 1e6, total);
  }
}

}  // namespace perfbench
