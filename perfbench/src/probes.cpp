// Layer probes for the traced run: each module's public functions timed
// from outside, in blocks of calls, on the workload's own data. A block is
// one span in the log; the per-call figure is the block time over its
// call count, reported as p50 (p99 and the block count printed).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/analytic.h"
#include "core/policies.h"
#include "core/solver_lp.h"
#include "engine/eval_session.h"
#include "engine/strategy.h"
#include "engine/vehicle_cache.h"
#include "harness.h"
#include "lp/arena.h"
#include "robust/health_monitor.h"
#include "robust/input_guard.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "sim/evaluator.h"
#include "stats/rolling.h"
#include "util/random.h"

namespace perfbench {

namespace core = idlered::core;
namespace engine = idlered::engine;
namespace serve = idlered::serve;
namespace robust = idlered::robust;
namespace sim = idlered::sim;

namespace {

constexpr std::size_t kBlock = 1024;
constexpr std::size_t kMinCalls = 64 * kBlock;  ///< per-vehicle probes cycle

/// Time `calls` invocations of fn(i) in blocks; one span per block.
/// Returns nanoseconds per call, one sample per block.
std::vector<double> blocks(SpanLog& spans, const std::string& name,
                           std::size_t calls,
                           const std::function<void(std::size_t)>& fn) {
  const std::uint32_t id = spans.intern(name);
  std::vector<double> ns;
  for (std::size_t b = 0; b < calls; b += kBlock) {
    const std::size_t e = std::min(calls, b + kBlock);
    const double t = now_s();
    for (std::size_t i = b; i < e; ++i) fn(i);
    const double t1 = now_s();
    spans.add(id, b / kBlock, t, t1);
    ns.push_back((t1 - t) * 1e9 / static_cast<double>(e - b));
  }
  return ns;
}

}  // namespace

void run_layer_probes(const ProbeInput& in, SpanLog& spans, Report& report) {
  const sim::Fleet& fleet = *in.fleet;
  const EventStream& stream = *in.stream;
  const double B = in.break_even;
  const std::size_t V = fleet.size();
  std::printf("\nlayer probes over %zu vehicles, B=%.0f s\n", V, B);

  // --- stats: O(1) accumulator per vehicle over its whole trace ---
  std::vector<std::pair<std::uint32_t, double>> stops;
  for (std::size_t v = 0; v < V; ++v)
    for (double y : fleet[v].stops)
      stops.emplace_back(static_cast<std::uint32_t>(v), y);
  std::vector<idlered::stats::ShortStopAccumulator> accs(
      V, idlered::stats::ShortStopAccumulator(B));
  report.set_quantiles("stats.acc_insert_ns",
                       blocks(spans, "stats.acc_insert", stops.size(),
                              [&](std::size_t i) {
                                accs[stops[i].first].insert(stops[i].second);
                              }),
                       1.0, "ns");
  std::vector<idlered::dist::ShortStopStats> st(V);
  report.set_quantiles("stats.acc_stats_ns",
                       blocks(spans, "stats.acc_stats", std::max(V, kMinCalls),
                              [&](std::size_t i) {
                                st[i % V] = accs[i % V].stats();
                              }),
                       1.0, "ns");

  // --- robust: input guard and the eq. 36 trust check ---
  std::vector<robust::InputGuard> guards(V, robust::InputGuard(
                                                robust::GuardConfig{}));
  std::vector<double> clock(V, 0.0);
  std::size_t rejected = 0;
  report.set_quantiles(
      "robust.guard_admit_ns",
      blocks(spans, "robust.guard_admit", stops.size(),
             [&](std::size_t i) {
               const auto v = stops[i].first;
               clock[v] += 60.0;
               rejected += guards[v].admit(stops[i].second, clock[v]) !=
                           robust::Verdict::kAccept;
             }),
      1.0, "ns");
  std::size_t trusted = 0;
  report.set_quantiles("robust.trust_b_det_ns",
                       blocks(spans, "robust.trust_b_det",
                              std::max(V, kMinCalls),
                              [&](std::size_t i) {
                                trusted +=
                                    robust::trust_b_det(st[i % V], B, 0.9);
                              }),
                       1.0, "ns");

  // --- core: the COA vertex choice, LP on a workspace vs closed form ---
  idlered::lp::Workspace ws(2, 3);
  std::vector<core::Strategy> lp_pick(V), closed_pick(V);
  report.set_quantiles(
      "core.coa_lp_ns",
      blocks(spans, "core.coa_lp", std::max(V, kMinCalls),
             [&](std::size_t i) {
               lp_pick[i % V] =
                   core::solve_constrained_lp(st[i % V], B, ws).strategy;
             }),
      1.0, "ns");
  report.set_quantiles(
      "core.coa_closed_ns",
      blocks(spans, "core.coa_closed", std::max(V, kMinCalls),
             [&](std::size_t i) {
               closed_pick[i % V] =
                   core::choose_strategy(st[i % V], B).strategy;
             }),
      1.0, "ns");
  std::size_t mismatch = 0;
  std::size_t share[4] = {0, 0, 0, 0};
  for (std::size_t v = 0; v < V; ++v) {
    mismatch += lp_pick[v] != closed_pick[v];
    ++share[static_cast<std::size_t>(closed_pick[v])];
  }
  report.set("core.coa_vertex_mismatch", static_cast<double>(mismatch),
             "count");
  const char* vertex[4] = {"toi", "det", "bdet", "nrand"};
  for (int k = 0; k < 4; ++k)
    report.set(std::string("core.vertex_share.") + vertex[k],
               static_cast<double>(share[k]) / static_cast<double>(V),
               "ratio");
  std::printf("  input guard rejected %zu of %zu raw trace stops\n", rejected,
              stops.size());
  std::printf("  COA vertices: TOI %zu, DET %zu, b-DET %zu, N-Rand %zu; "
              "LP vs closed-form mismatches %zu\n",
              share[0], share[1], share[2], share[3], mismatch);
  if (mismatch) report.mismatches += mismatch;

  const core::NRandPolicy nrand(B);
  idlered::util::Rng rng(0x6e72616eULL);
  double draws = 0.0;
  report.set_quantiles("core.nrand_sample_ns",
                       blocks(spans, "core.nrand_sample", kMinCalls,
                              [&](std::size_t) {
                                draws += nrand.sample_threshold(rng);
                              }),
                       1.0, "ns");

  // --- engine: the per-vehicle statistics cache, sampled across B ---
  const engine::FleetCache cache(fleet);
  const double bs[4] = {B, B * 0.75, B * 1.25, B * 1.5};
  report.set_quantiles(
      "engine.stats_for_ns",
      blocks(spans, "engine.stats_for", std::max(4 * V, kMinCalls),
             [&](std::size_t i) {
               draws += cache.vehicle(i % V)
                            .stats_for(bs[(i / V) % 4])
                            .mu_b_minus;
             }),
      1.0, "ns");

  // --- sim: the scalar evaluation kernel, ns per stop ---
  const core::PolicyPtr eval_policy = core::make_n_rand(B);
  const std::uint32_t kernel_span = spans.intern("sim.evaluate");
  std::vector<double> per_stop;
  for (std::size_t v = 0; v < V; v += 16) {
    const std::size_t e = std::min(V, v + 16);
    std::size_t n = 0;
    const double t = now_s();
    for (std::size_t u = v; u < e; ++u) {
      draws += sim::evaluate(*eval_policy, fleet[u].stops).online;
      n += fleet[u].stops.size();
    }
    const double t1 = now_s();
    spans.add(kernel_span, v, t, t1);
    per_stop.push_back((t1 - t) * 1e9 / static_cast<double>(n));
  }
  report.set_quantiles("sim.kernel_ns_per_stop", per_stop, 1.0, "ns");

  // --- serve storage codecs: the stream's events as drain batches ---
  const std::string dir = in.work_dir + "/probe_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    serve::WalWriter wal;
    wal.open(dir, 0, true);
    const std::size_t n = std::min<std::size_t>(stream.cycle(), 65536);
    const std::uint32_t append = spans.intern("serve.wal_append");
    const std::uint32_t flush = spans.intern("serve.wal_flush");
    std::vector<double> append_ns;
    for (std::size_t b = 0; b < n; b += 64) {
      const std::size_t e = std::min(n, b + 64);
      const double t = now_s();
      for (std::size_t i = b; i < e; ++i)
        wal.append(serve::WalRecord{i + 1, stream.at(i),
                                    robust::ControllerMode::kProposed});
      const double t1 = now_s();
      wal.flush();
      const double t2 = now_s();
      spans.add(append, b, t, t1);
      spans.add(flush, b, t1, t2);
      append_ns.push_back((t1 - t) * 1e9 / static_cast<double>(e - b));
    }
    report.set_quantiles("serve.wal_append_ns", append_ns, 1.0, "ns");
  }
  if (!in.durable_measured) {
    // What checkpoint() and recover() do to the bytes, on this state.
    serve::ShardSnap snap;
    for (std::size_t v = 0; v < V; ++v) {
      serve::VehicleSnap s;
      s.vehicle = v + 1;
      s.last_seq = accs[v].count();
      s.count = accs[v].count();
      s.long_count = accs[v].long_count();
      s.short_sum = accs[v].short_sum();
      s.guard = guards[v].state();
      snap.vehicles.push_back(s);
    }
    const std::uint32_t ck = spans.intern("serve.checkpoint");
    const std::uint32_t rs = spans.intern("serve.read_snapshot");
    const std::uint32_t rw = spans.intern("serve.read_wal");
    for (int i = 0; i < 3; ++i) {
      double t = now_s();
      serve::write_shard_snapshot(dir, 0, snap);
      spans.add(ck, static_cast<std::uint64_t>(i), t, now_s());
      t = now_s();
      const auto back = serve::read_shard_snapshot(dir, 0);
      spans.add(rs, static_cast<std::uint64_t>(i), t, now_s());
      if (!back || back->vehicles.size() != V) ++report.mismatches;
      t = now_s();
      draws += static_cast<double>(serve::read_wal(dir, 0).size());
      spans.add(rw, static_cast<std::uint64_t>(i), t, now_s());
    }
    // A one-shard service recovered from that snapshot: every vehicle's
    // state rebuilt, then compacted into a fresh snapshot as recover()
    // does. The WAL is emptied first, since that compaction empties it too
    // and every recovery timed should do the same work.
    serve::WalWriter().open(dir, 0, true);
    serve::ServeConfig config;
    config.num_shards = 1;
    config.break_even = B;
    config.warmup_stops = 8;
    config.seed = in.seed;
    config.durable_dir = dir;
    serve::write_meta(dir, serve::ServeMeta{1, B, in.seed, 8});
    const std::uint32_t rec = spans.intern("serve.recover");
    for (int i = 0; i < 3; ++i) {
      const double t = now_s();
      const auto back = serve::DecisionService::recover(config);
      spans.add(rec, static_cast<std::uint64_t>(i), t, now_s());
      if (back.service->last_applied_seq(V) != snap.vehicles.back().last_seq)
        ++report.mismatches;
    }
  }
  std::filesystem::remove_all(dir);

  // --- engine session over (at most 10K vehicles of) this fleet ---
  if (in.include_engine) {
    auto sub = std::make_shared<sim::Fleet>(
        fleet.begin(),
        fleet.begin() + static_cast<long>(std::min<std::size_t>(V, 10000)));
    engine::EvalPlan plan =
        engine::EvalPlan::single(sub, B, engine::standard_strategy_set());
    plan.threads = 1;
    engine::EvalSession session(std::move(plan));
    const std::uint32_t run = spans.intern("engine.session_run");
    const double t = now_s();
    const engine::EvalReport r = session.run();
    spans.add(run, 0, t, now_s());
    report.set("engine.cache_build_s", r.cache_build_seconds, "s");
    report.set("engine.eval_s", r.eval_seconds, "s");
    report.set("engine.cells_per_s",
               static_cast<double>(r.cells) / r.eval_seconds, "1/s");
  }
  // Printing what the probed calls returned keeps them from being elided.
  std::printf("  probe checksum %.6g, b-DET trusted %zu times\n", draws,
              trusted);
}

void set_span_metrics(const SpanLog& spans, Report& report) {
  struct Map {
    const char* span;
    const char* metric;
    double scale;
    const char* unit;
  };
  static const Map maps[] = {
      {"serve.submit", "serve.submit_ns", 1e9, "ns"},
      {"serve.queue_wait", "serve.queue_wait_us", 1e6, "us"},
      {"serve.pump_call", "serve.pump_us", 1e6, "us"},
      {"serve.wal_flush", "serve.wal_flush_us", 1e6, "us"},
      {"serve.checkpoint", "serve.checkpoint_ms", 1e3, "ms"},
      {"serve.read_wal", "serve.read_wal_ms", 1e3, "ms"},
      {"serve.read_snapshot", "serve.read_snapshot_ms", 1e3, "ms"},
      {"serve.recover", "serve.recover_ms", 1e3, "ms"},
  };
  std::printf("\nper-layer metrics from span self times\n");
  auto self = spans.self_times();
  for (const Map& m : maps) {
    auto it = self.find(m.span);
    if (it == self.end()) {
      ++report.failed;  // every layer must have been measured
      std::printf("  %s: no spans recorded\n", m.span);
      continue;
    }
    report.set_quantiles(m.metric, std::move(it->second), m.scale, m.unit);
  }
}

}  // namespace perfbench
