#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

double supported_percentile(std::size_t n, double want) {
  if (n < 20) return -1.0;
  const double bound = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::min(want, bound);
}

double nearest_rank(std::vector<double>& values, double p) {
  if (values.empty()) throw std::invalid_argument("nearest_rank: empty");
  const double n = static_cast<double>(values.size());
  // Rank ceil(p n / 100), 1-based, clamped to [1, n]. The small epsilon
  // keeps exact products (0.99 * 1000 = 990) from rounding up a rank.
  double rank = std::ceil(p / 100.0 * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  const auto k = static_cast<std::size_t>(rank) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

Quantiles quantiles(std::vector<double>& values, double want) {
  Quantiles q;
  q.count = values.size();
  if (values.empty()) return q;
  q.p50 = nearest_rank(values, 50.0);
  const double pct = supported_percentile(values.size(), want);
  q.tail_pct = pct > 50.0 ? pct : 50.0;
  q.tail = pct > 50.0 ? nearest_rank(values, pct) : q.p50;
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void window_quantiles(const std::vector<double>& values, int parts,
                      double want, double scale, std::vector<double>& p50s,
                      std::vector<double>& tails) {
  const std::size_t n = values.size();
  const auto p = static_cast<std::size_t>(parts);
  for (std::size_t w = 0; w < p; ++w) {
    std::vector<double> part(values.begin() + static_cast<long>(n * w / p),
                             values.begin() +
                                 static_cast<long>(n * (w + 1) / p));
    const Quantiles q = quantiles(part, want);
    p50s.push_back(q.p50 * scale);
    tails.push_back(q.tail * scale);
  }
}

double reference_scale() {
  static std::vector<std::uint64_t> table(1 << 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 200000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & 0xffff];
    slot += x;
    acc += std::sqrt(static_cast<double>(slot & 0xfffff));
  }
  const std::chrono::duration<double> t =
      std::chrono::steady_clock::now() - t0;
  // Keeps the loop's result live, so the work is not elided.
  asm volatile("" : : "g"(acc) : "memory");
  return kReferenceLoopS / t.count();
}

RealizedCost::RealizedCost(std::size_t vehicles, double break_even)
    : break_even_(break_even),
      pending_(vehicles, std::numeric_limits<double>::quiet_NaN()) {}

void RealizedCost::observe(std::size_t vehicle, double stop_s,
                           double threshold) {
  const double x = pending_[vehicle];
  if (!std::isnan(x)) {
    online_ += stop_s < x ? stop_s : x + break_even_;
    opt_ += std::min(stop_s, break_even_);
    ++priced_;
  }
  pending_[vehicle] = threshold;
}

double RealizedCost::ratio() const { return opt_ > 0.0 ? online_ / opt_ : 0.0; }

namespace {

double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

}  // namespace

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void sync_filesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

double rss_mb() { return status_mb("VmRSS:"); }

double peak_rss_mb() { return status_mb("VmHWM:"); }

void restart_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench
