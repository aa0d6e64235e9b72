// The engine_sweep workload: the Figure 5 (B = 28 s) and Figure 6
// (B = 47 s) grids — 17 mean stop lengths each, the Chicago law rescaled,
// fleets forked per point from the seed as bench/common/sweep.h does —
// evaluated by engine::EvalSession with the standard six-strategy lineup
// in expected mode. No serve code runs.
//
// Phases:
//   setup   fleet generation, the sweep session and its cold first run,
//           and one single-point session per grid point with its first run
//           (repeated; the median is setup_s)
//   rounds  EvalSession::run over both grids, back to back:
//           throughput_dps (stop decisions evaluated per second); then
//           jobs of one grid point each on that point's long-lived
//           session, open loop at a fixed job rate: latency p50/p90
// Every session has a one-worker pool, and all threads share one CPU, as
// the serve workloads do. Every report is compared bit for bit with a
// 2-thread run of its plan.
#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "engine/eval_session.h"
#include "engine/strategy.h"
#include "harness.h"
#include "traces/area_profiles.h"
#include "traces/fleet_generator.h"
#include "util/math.h"
#include "util/random.h"

namespace perfbench {

namespace engine = idlered::engine;
namespace sim = idlered::sim;

namespace {

constexpr int kVehiclesPerPoint = 100;
constexpr double kTailPct = 90.0;   ///< as the serve workloads
constexpr double kJobRate = 150.0;  ///< jobs/s of the latency phase

struct Grid {
  std::vector<engine::PlanPoint> points;
  std::uint64_t decisions = 0;  ///< stops x strategies over all points
  double gen_seconds = 0.0;
};

Grid make_grid(std::uint64_t seed, std::size_t strategies) {
  Grid g;
  const auto profile = idlered::traces::chicago();
  const double t0 = now_s();
  for (double B : {28.0, 47.0}) {
    idlered::util::Rng rng(seed);
    for (double mean : idlered::util::logspace(B / 6.0, B * 6.0, 17)) {
      idlered::util::Rng point_rng =
          rng.fork(static_cast<std::uint64_t>(mean * 1000.0));
      auto fleet = std::make_shared<sim::Fleet>(
          idlered::traces::generate_scaled_fleet(profile, mean,
                                                 kVehiclesPerPoint,
                                                 point_rng));
      for (const auto& t : *fleet) g.decisions += t.stops.size() * strategies;
      g.points.push_back(engine::PlanPoint{mean, B, std::move(fleet)});
    }
  }
  g.gen_seconds = now_s() - t0;
  return g;
}

engine::EvalPlan make_plan(std::vector<engine::PlanPoint> points,
                           int threads) {
  engine::EvalPlan plan;
  plan.points = std::move(points);
  plan.strategies = engine::standard_strategy_set();
  plan.mode = engine::EvalMode::kExpected;
  plan.threads = threads;
  return plan;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Cells of `point` in `got` that differ bitwise from `want`'s point.
std::uint64_t diff_point(const engine::EvalReport::Point& got,
                         const engine::EvalReport::Point& want) {
  if (got.totals.size() != want.totals.size()) return 1;
  std::uint64_t bad = 0;
  for (std::size_t v = 0; v < got.totals.size(); ++v)
    for (std::size_t s = 0; s < got.totals[v].size(); ++s) {
      const sim::CostTotals& a = got.totals[v][s];
      const sim::CostTotals& b = want.totals[v][s];
      bad += !same_bits(a.online, b.online) ||
             !same_bits(a.offline, b.offline) || a.num_stops != b.num_stops ||
             !same_bits(got.comparison.vehicles[v].cr[s],
                        want.comparison.vehicles[v].cr[s]);
    }
  return bad;
}

std::uint64_t diff_report(const engine::EvalReport& got,
                          const engine::EvalReport& want) {
  if (got.points.size() != want.points.size() ||
      got.strategy_names != want.strategy_names)
    return 1;
  std::uint64_t bad = 0;
  for (std::size_t p = 0; p < got.points.size(); ++p)
    bad += diff_point(got.points[p], want.points[p]);
  return bad;
}

}  // namespace

void run_engine(const Args& args, Report& report) {
  const double budget = args.seconds;
  const std::size_t lineup = engine::standard_strategy_set().size();
  pin_to_current_cpu();  // before any pool: its workers inherit the CPU

  // --- setup (5x, a set-up being short; the last one is kept) ---
  std::vector<double> setup_s, cold_s, gen_s;
  double harness_mb = 0.0, peak_mb = 0.0;
  std::unique_ptr<Grid> grid;
  std::unique_ptr<engine::EvalSession> session;
  std::vector<std::unique_ptr<engine::EvalSession>> point_sessions;
  engine::EvalReport first;
  std::vector<engine::EvalReport> point_first;
  constexpr int kSetups = 5;
  for (int rep = 0; rep < kSetups; ++rep) {
    point_sessions.clear();
    session.reset();
    grid.reset();
    const double scale_before = reference_scale();
    const double t0 = now_s();
    grid = std::make_unique<Grid>(make_grid(args.seed, lineup));
    // Memory, on the kept set-up: the peak of the sweep session and its
    // first run, on top of the fleets.
    double untimed = 0.0;
    if (rep == kSetups - 1) {
      const double tm = now_s();
      restart_peak_rss();
      harness_mb = rss_mb();
      untimed = now_s() - tm;
    }
    const double t1 = now_s();
    session = std::make_unique<engine::EvalSession>(make_plan(grid->points, 1));
    first = session->run();
    const double t2 = now_s();
    if (rep == kSetups - 1) peak_mb = peak_rss_mb();
    point_first.clear();
    for (const engine::PlanPoint& p : grid->points) {
      point_sessions.push_back(
          std::make_unique<engine::EvalSession>(make_plan({p}, 1)));
      point_first.push_back(point_sessions.back()->run());
    }
    const double t3 = now_s();
    const double scale = 0.5 * (scale_before + reference_scale());
    setup_s.push_back((t3 - t0 - untimed) * scale);
    cold_s.push_back(t2 - t1);
    gen_s.push_back(grid->gen_seconds);
  }
  std::printf("engine_sweep: %zu points x %d vehicles x %zu strategies, "
              "%llu stop decisions per sweep\n",
              grid->points.size(), kVehiclesPerPoint, lineup,
              static_cast<unsigned long long>(grid->decisions));
  std::printf("setup: median %.3f reference s over %d (wall: cold sweep "
              "session %.3f s, traces generation %.3f s)\n",
              median(setup_s), kSetups, median(cold_s), median(gen_s));
  std::printf("memory: peak %.1f MiB, of which %.1f MiB held by the fleets "
              "and harness before the sweep session was built\n",
              peak_mb, harness_mb);

  // The reference: the same plan on two threads, whose work stealing
  // splits and orders the cells differently.
  const engine::EvalReport ref =
      engine::EvalSession(make_plan(grid->points, 2)).run();
  auto check = [&](const engine::EvalReport& r) {
    ++report.attempted;
    report.mismatches += diff_report(r, ref);
  };
  check(first);
  for (std::size_t k = 0; k < point_first.size(); ++k) {
    ++report.attempted;
    report.mismatches += diff_point(point_first[k].points.front(),
                                    ref.points[k]);
  }

  SpanLog spans;
  const std::uint32_t sweep_span = spans.intern("engine.sweep");

  // --- sweeps back to back; `all` gets their times in reference seconds ---
  auto sweeps = [&](double seconds, int min_runs, bool traced,
                    std::vector<double>& all) {
    std::vector<double> wall;
    std::vector<double> cache_s, eval_s;
    std::size_t cells = 0;
    const double start = now_s();
    while (wall.size() < static_cast<std::size_t>(min_runs) ||
           now_s() - start < seconds) {
      const double scale = reference_scale();
      const double t = now_s();
      const engine::EvalReport r = session->run();
      const double t1 = now_s();
      if (traced) spans.add(sweep_span, wall.size(), t, t1);
      wall.push_back(t1 - t);
      all.push_back((t1 - t) * scale);
      cache_s.push_back(r.cache_build_seconds);
      eval_s.push_back(r.eval_seconds);
      cells = r.cells;
      check(r);
    }
    std::printf("sweep%s: %zu runs, median %.4f s (cache %.4f s, eval "
                "%.4f s), %.0f stop decisions/s\n",
                traced ? " (traced)" : "", wall.size(), median(wall),
                median(cache_s), median(eval_s),
                static_cast<double>(grid->decisions) / median(wall));
    if (traced) {
      report.set("engine.cache_build_s", median(cache_s), "s");
      report.set("engine.eval_s", median(eval_s), "s");
      report.set("engine.cells_per_s",
                 static_cast<double>(cells) / median(eval_s), "1/s");
    }
  };

  // --- jobs: one grid point each on its own warm session, open loop ---
  std::size_t next_job = 0;
  auto jobs = [&](std::size_t n, double rate) {
    std::vector<double> latency_us;
    latency_us.reserve(n);
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      // A single server: a job due while the last one runs waits for it.
      const double due = t0 + static_cast<double>(i) / rate;
      for (double t = now_s(); t < due; t = now_s())
        if (due - t > 2e-4)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      const std::size_t k = next_job++ % grid->points.size();
      const engine::EvalReport r = point_sessions[k]->run();
      latency_us.push_back((now_s() - due) * 1e6);
      ++report.attempted;
      report.mismatches += diff_point(r.points.front(), ref.points[k]);
    }
    return latency_us;
  };

  if (!args.trace) {
    // Rounds of sweeps then fixed-rate jobs, read as the serve workloads
    // are (medians of many windows); a round per ~3 s of budget (at least
    // 3), so a slow spell of the host moves some rounds, not all.
    const int rounds = std::max(3, args.seconds / 3);
    const double round_s = budget / rounds;
    // A round holds ~200 jobs, too few for a steady p90 per window, so the
    // latencies of all rounds (each in its round's reference seconds) are
    // pooled instead.
    std::vector<double> sweep_times, latency;
    for (int round = 0; round < rounds; ++round) {
      sweeps(0.5 * round_s, 3, false, sweep_times);
      const double scale = reference_scale();
      const std::vector<double> round_latency = jobs(
          static_cast<std::size_t>(kJobRate * 0.45 * round_s), kJobRate);
      for (double us : round_latency) latency.push_back(us * scale);
      std::printf("fixed rate %.0f jobs/s: %zu jobs\n", kJobRate,
                  round_latency.size());
    }
    const double sweep_s = median(sweep_times);
    const Quantiles q = quantiles(latency, kTailPct);
    std::printf("rounds, in reference seconds: sweep %.4f s (median of %zu); "
                "job latency p50 %.1f us p%.4g %.1f us (n=%zu)\n",
                sweep_s, sweep_times.size(), q.p50, q.tail_pct, q.tail,
                q.count);
    report.set("throughput_dps",
               static_cast<double>(grid->decisions) / sweep_s, "1/s");
    report.set("latency_p50_us", q.p50, "us");
    report.set("latency_p90_us", q.tail, "us");

    // What the decisions cost: COA's expected online cost over hindsight
    // OPT, summed over every vehicle of both grids.
    const auto& names = ref.strategy_names;
    const std::size_t coa = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "COA") - names.begin());
    double online = 0.0, opt = 0.0;
    for (const auto& p : ref.points)
      for (const auto& v : p.totals) {
        online += v[coa].online;
        opt += v[coa].offline;
      }
    std::printf("realized cost (COA, expected): online %.1f s / OPT %.1f s\n",
                online, opt);
    report.set("realized_cr", online / opt, "ratio");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_mb, "MiB");
  } else {
    std::vector<double> plain_times, traced_times;
    sweeps(0.15 * budget, 3, false, plain_times);
    sweeps(0.15 * budget, 3, true, traced_times);
    report.set("traces.fleet_gen_s", median(gen_s), "s");

    // Layer probes and the serve layer over this workload's own fleets.
    sim::Fleet all;
    for (const auto& p : grid->points)
      if (p.break_even == 28.0)
        all.insert(all.end(), p.fleet->begin(), p.fleet->end());
    const EventStream stream = make_stream(
        "engine_fleets", std::move(all), 28.0, 0, Arrival::kTimeOrdered,
        args.seed);
    ProbeInput in;
    in.fleet = &stream.fleet;
    in.stream = &stream;
    in.break_even = 28.0;
    in.seed = args.seed;
    in.work_dir = args.work_dir;
    in.include_engine = false;
    run_layer_probes(in, spans, report);
    serve_layer_probe(stream, 0.3 * budget, args.seed, spans, report);
    // The serve probe set the serve loop's overhead; this workload's is
    // the sweep's.
    report.set("trace.overhead_ratio",
               median(traced_times) / median(plain_times), "ratio");
    print_self_times(spans);
    set_span_metrics(spans, report);
    spans.write_tsv(args.work_dir + "/spans_" + args.workload + ".tsv");
  }
  report.verified = true;
  std::printf("verify: %llu engine reports compared with a 2-thread run, "
              "%llu mismatched cells\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.mismatches));
}

}  // namespace perfbench
