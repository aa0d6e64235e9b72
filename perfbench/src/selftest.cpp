// Self-tests of the benchmark's own measurement rules, with hand-computed
// expectations: the percentile rule, realized-cost accounting, span self
// time and strict argument parsing. Exit status is the number of failed
// checks (0 = all pass).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "measure.h"
#include "spans.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: must sort
  return v;
}

void percentile_rule() {
  using perfbench::supported_percentile;
  // 10 samples beyond p99 need n >= 1000.
  check(near(supported_percentile(1000), 99.0), "n=1000 supports p99");
  check(near(supported_percentile(100000), 99.0), "p99 is the cap");
  check(near(supported_percentile(500), 98.0), "n=500 supports p98 only");
  check(near(supported_percentile(20), 50.0), "n=20 supports p50");
  check(supported_percentile(19) < 0.0, "n=19 supports nothing");

  std::vector<double> v = one_to(1000);
  const perfbench::Quantiles q = perfbench::quantiles(v);
  check(q.count == 1000, "count stated");
  check(near(q.p50, 500.0), "p50 of 1..1000 is 500");
  check(near(q.tail_pct, 99.0) && near(q.tail, 990.0),
        "p99 of 1..1000 is 990, with 10 samples beyond it");

  std::vector<double> w = one_to(500);
  const perfbench::Quantiles r = perfbench::quantiles(w);
  check(near(r.tail_pct, 98.0) && near(r.tail, 490.0),
        "n=500 reports p98 = 490, 10 beyond");

  std::vector<double> few = one_to(10);
  const perfbench::Quantiles f = perfbench::quantiles(few);
  check(near(f.tail_pct, 50.0) && near(f.tail, 5.0),
        "short sample falls back to the median");
}

void realized_cost() {
  // B = 28. Vehicle 0: thresholds 10 then 10 then 5 (last, unpriced).
  perfbench::RealizedCost cr(2, 28.0);
  cr.observe(0, 40.0, 10.0);  // first event: nothing pending yet
  check(cr.priced() == 0, "first event prices nothing");
  cr.observe(0, 5.0, 10.0);   // y=5 < x=10: online 5, OPT 5
  check(near(cr.online(), 5.0) && near(cr.opt(), 5.0), "y < x costs y");
  cr.observe(0, 30.0, 5.0);   // y=30 >= x=10: online 10+28, OPT 28
  check(near(cr.online(), 43.0) && near(cr.opt(), 33.0),
        "y >= x costs x + B against min(y, B)");
  cr.observe(1, 12.0, 12.0);  // vehicle 1's first event
  cr.observe(1, 12.0, NAN);   // y=12 >= x=12: 12+28 vs 12; nothing pending
  check(near(cr.online(), 83.0) && near(cr.opt(), 45.0), "y == x is y >= x");
  cr.observe(1, 3.0, 1.0);    // no threshold was pending: unpriced
  check(cr.priced() == 3, "a vehicle's last threshold is excluded");
  check(near(cr.ratio(), 83.0 / 45.0), "ratio is online / OPT");
}

void span_self_time() {
  check(near(perfbench::self_time(0, 10, {}), 10.0), "leaf self time");
  check(near(perfbench::self_time(0, 10, {{2, 4}, {3, 6}, {8, 12}}), 4.0),
        "overlapping children are counted once, clipped to the parent");
  perfbench::SpanLog log;
  const auto ev = log.intern("event");
  const auto sub = log.intern("submit");
  const int root = log.add(ev, 1, 0.0, 1.0);
  log.add(sub, 1, 0.25, 0.5, root);
  const auto self = log.self_times();
  check(near(self.at("event").front(), 0.75) &&
            near(self.at("submit").front(), 0.25),
        "span log self times");
}

void strict_args() {
  using perfbench::parse_args;
  const auto rejects = [](std::vector<std::string> argv) {
    try {
      parse_args(argv);
    } catch (const perfbench::UsageError&) {
      return true;
    }
    return false;
  };
  const perfbench::Args a = parse_args({"--workload", "serve_100k", "--seed",
                                        "7", "--seconds", "10", "--trace",
                                        "1"});
  check(a.workload == "serve_100k" && a.seed == 7 && a.seconds == 10 &&
            a.trace,
        "well-formed arguments parse");
  check(rejects({"--help"}), "--help is a usage error, not 0 events");
  check(rejects({"--workload", "serve_100k", "--seed", "7", "--seconds",
                 "10"}),
        "missing --trace");
  check(rejects({"--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"}),
        "unknown workload");
  check(rejects({"--workload", "serve_study", "--seed", "1x", "--seconds",
                 "1", "--trace", "0"}),
        "malformed seed");
  check(rejects({"--workload", "serve_study", "--seed", "-1", "--seconds",
                 "1", "--trace", "0"}),
        "negative seed");
  check(rejects({"--workload", "serve_study", "--seed", "1", "--seconds",
                 "0", "--trace", "0"}),
        "zero seconds");
  check(rejects({"--workload", "serve_study", "--seed", "1", "--seconds",
                 "1", "--trace", "2"}),
        "trace must be 0 or 1");
  check(rejects({"--workload", "serve_study", "--seed", "1", "--seed", "2",
                 "--seconds", "1", "--trace", "0"}),
        "repeated flag");
  check(rejects({"--workload", "serve_study", "--seed", "1", "--seconds",
                 "1", "--trace", "0", "extra"}),
        "positional argument");
  check(rejects({"--workload", "serve_study", "--seed", "1", "--seconds",
                 "1", "--trace"}),
        "flag without a value");
}

}  // namespace

int main() {
  percentile_rule();
  realized_cost();
  span_self_time();
  strict_args();
  std::printf("perfbench self-test: %d failure(s)\n", failures);
  return failures;
}
