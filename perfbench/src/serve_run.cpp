// The serve workloads: one seeded event stream replayed through a
// DecisionService. The calling thread is both the generator and the pump()
// caller — between pumps it submits every event that has come due — and
// the service's own pool has one worker, so 2 threads in all, both kept on
// one CPU.
//
// Untraced phases, in order, on one long-lived service:
//   setup      stream generation, service construction and an untimed
//              warm-up replay (repeated; the median is setup_s)
//   rounds     closed loop (256 events outstanding, the next submitted as
//              a decision frees a slot): throughput_dps; then open loop at
//              the workload's fixed rate: latency p50/p90, and its
//              thresholds are priced for realized_cr
//   crash      (serve_durable) destroy without shutdown, recover, resume
// Every decision is then checked against a 1-thread reference replay.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>

#include "harness.h"
#include "serve/service.h"
#include "util/random.h"

namespace perfbench {

namespace serve = idlered::serve;
namespace robust = idlered::robust;
namespace sim = idlered::sim;

namespace {

// The latency tail the latency metric uses. p99 is printed too, but not
// gated: on a shared 4-vCPU VM a spinning thread loses ~1% of wall time to
// gaps of 0.05-10 ms (hypervisor steal), which is what sets p99.
constexpr double kTailPct = 90.0;
constexpr double kRetryBudgetS = 1.0;  ///< per event, then it counts failed
constexpr std::uint8_t kNone = 0xff;

struct Spec {
  std::size_t warm_cycles = 1;
  double fixed_rate = 0.0;  ///< events/s of the latency phase
  bool whole_cycle_windows = false;  ///< see closed_window()
  bool durable = false;
  std::size_t snapshot_every = 0;
};

Spec spec_for(const std::string& workload) {
  Spec s;
  if (workload == "serve_study") {
    s.warm_cycles = 3;
    s.fixed_rate = 100000.0;
  } else if (workload == "serve_100k") {
    s.warm_cycles = 2;  // 8 stops per vehicle: past the warm-up rung
    s.fixed_rate = 50000.0;
  } else {
    s.warm_cycles = 1;  // 16 stops per vehicle
    s.fixed_rate = 50000.0;
    s.durable = true;
    // About one checkpoint per shard per cycle; windows of a whole cycle
    // then hold one each, where shorter ones would hold none or one.
    s.snapshot_every = 40000;
    s.whole_cycle_windows = true;
  }
  return s;
}

/// Events per closed-loop window: a third of a cycle, at most 50000, so
/// that a run holds many windows; or a whole cycle.
std::uint64_t closed_window(const Spec& spec, const EventStream& stream) {
  return spec.whole_cycle_windows
             ? stream.cycle()
             : std::min<std::uint64_t>(stream.cycle() / 3, 50000);
}

serve::ServeConfig service_config(const EventStream& stream,
                                  std::uint64_t seed, const std::string& dir,
                                  std::size_t snapshot_every) {
  serve::ServeConfig c;
  c.num_shards = 4;
  // One pool worker: on a VM whose host backs its vCPUs with fewer cores
  // than it shows, a second worker let serve_100k's closed-loop rate swing
  // from 0.73M to 1.34M decisions/s over four runs (one worker: 0.63M to
  // 0.76M).
  c.threads = 1;
  c.break_even = stream.break_even;
  c.warmup_stops = 8;
  c.queue_capacity = 256;
  c.drain_batch = 64;
  c.seed = idlered::util::mix64(seed ^ 20140601ULL);
  c.durable_dir = dir;
  c.snapshot_every = snapshot_every;
  return c;
}

int severity(robust::ControllerMode m) { return static_cast<int>(m); }

/// Every decision the measured service emitted, by stream index.
struct DecisionLog {
  std::vector<double> threshold;
  std::vector<std::uint8_t> tag;  ///< outcome << 4 | rung; kNone = absent

  void ensure(std::uint64_t n) {
    if (tag.size() < n) {
      threshold.resize(n, 0.0);
      tag.resize(n, kNone);
    }
  }
  void put(std::uint64_t j, const serve::Decision& d) {
    threshold[j] = d.threshold;
    tag[j] = static_cast<std::uint8_t>(static_cast<int>(d.outcome) << 4 |
                                       static_cast<int>(d.rung));
  }
};

struct Phase {
  std::uint64_t events = 0;
  std::uint64_t decided = 0;      ///< kDecided outcomes
  std::uint64_t off_coa = 0;      ///< decided below the COA rung
  std::uint64_t not_decided = 0;  ///< any other outcome (a failure)
  std::uint64_t gave_up = 0;      ///< retry budget exhausted (a failure)
  std::uint64_t refusals = 0;
  std::uint64_t pumps = 0;        ///< pumps that emitted decisions
  double elapsed = 0.0;           ///< first submit to last decision
  std::vector<double> latency_us; ///< open loop: due -> pump return
  std::vector<double> lag_us;     ///< open loop: generator lateness
};

/// Span names of the traced run.
struct SpanNames {
  std::uint32_t event, submit, wait, pump, pump_call;
  explicit SpanNames(SpanLog& log)
      : event(log.intern("serve.event")),
        submit(log.intern("serve.submit")),
        wait(log.intern("serve.queue_wait")),
        pump(log.intern("serve.pump")),
        pump_call(log.intern("serve.pump_call")) {}
};

class Replayer {
 public:
  /// The decision log is sized for `reserve` events up front, so the
  /// service's memory can be read apart from the harness's (see open()).
  Replayer(const EventStream& stream, serve::ServeConfig config,
         std::uint64_t reserve)
      : stream_(stream), config_(std::move(config)) {
    log_.ensure(reserve);
  }

  /// Construct the service.
  void open() { service_ = std::make_unique<serve::DecisionService>(config_); }

  serve::DecisionService& service() { return *service_; }
  std::uint64_t cursor() const { return cursor_; }
  DecisionLog& log() { return log_; }
  const serve::ServeConfig& config() const { return config_; }

  /// Replay the next n events of the stream. rate > 0: open loop at that
  /// offered rate; rate == 0: closed loop. `spans`, when given, records
  /// every layer call.
  Phase run(std::uint64_t n, double rate, SpanLog* spans = nullptr);

  /// Destroy the service with no shutdown, recover it from its durable
  /// directory, check the replayed decisions and resume the stream from
  /// the recovered per-vehicle cursors. Returns recover()'s wall time.
  double crash_and_recover(std::uint64_t chunk, Report& report,
                           SpanLog* spans);

 private:
  const EventStream& stream_;
  serve::ServeConfig config_;
  std::unique_ptr<serve::DecisionService> service_;
  DecisionLog log_;
  std::uint64_t cursor_ = 0;
};

Phase Replayer::run(std::uint64_t n, double rate, SpanLog* spans) {
  Phase ph;
  ph.events = n;
  const std::uint64_t j0 = cursor_;
  cursor_ += n;
  log_.ensure(cursor_);
  const bool open = rate > 0.0;
  if (open) {
    ph.latency_us.assign(n, 0.0);
    ph.lag_us.assign(n, 0.0);
  }
  std::vector<double> sub_start, sub_end;
  if (spans) {
    sub_start.assign(n, 0.0);
    sub_end.assign(n, 0.0);
  }
  std::unique_ptr<SpanNames> names;
  if (spans) names = std::make_unique<SpanNames>(*spans);

  serve::DecisionService& svc = *service_;
  std::vector<serve::Decision> out;
  out.reserve(config_.num_shards * config_.drain_batch);
  // Closed loop: one drain batch per shard outstanding, like that many
  // callers each waiting for its decision — queues stay under the shed
  // watermark, so saturation measures the COA path, not the shed ladder.
  const std::uint64_t window = config_.num_shards * config_.drain_batch;
  // Durable: write back what earlier phases left dirty first, so that
  // their writeback does not land in this phase's timing.
  if (!config_.durable_dir.empty()) sync_filesystem(config_.durable_dir);
  const double t0 = now_s();
  auto due = [&](std::uint64_t i) {
    return t0 + static_cast<double>(i) / rate;
  };
  std::uint64_t next = 0;        // next event to submit
  std::uint64_t finished = 0;    // decided or given up
  double first_try = 0.0;        // when `next` was first offered
  double last = t0;
  while (finished < n) {
    // Generator: submit everything that has come due (closed loop: all),
    // until the service refuses; a refused event is retried after the
    // next pump, and given up once its retry budget is spent.
    double now = now_s();
    while (next < n &&
           (open ? due(next) <= now : next - finished < window)) {
      if (first_try == 0.0) {
        first_try = now;
        if (open) ph.lag_us[next] = (now - due(next)) * 1e6;
      }
      if (svc.submit(stream_.at(j0 + next)) != serve::Admit::kAccepted) {
        ++ph.refusals;
        if (now - first_try <= kRetryBudgetS) break;
        ++ph.gave_up;
        ++finished;
      } else if (spans) {
        sub_start[next] = first_try;
        sub_end[next] = now_s();
      }
      ++next;
      first_try = 0.0;
      if (open) now = now_s();
    }
    out.clear();
    const double ps = now_s();
    svc.pump(out);
    const double pe = now_s();
    if (out.empty()) continue;
    ++ph.pumps;
    last = pe;
    if (spans) spans->add(names->pump_call, ph.pumps, ps, pe);
    for (const serve::Decision& d : out) {
      const std::uint64_t j = stream_.index_of(d.vehicle, d.seq);
      const std::uint64_t i = j - j0;
      log_.put(j, d);
      const bool decided = d.outcome == serve::Outcome::kDecided;
      if (decided) {
        ++ph.decided;
        if (d.rung != robust::ControllerMode::kProposed) ++ph.off_coa;
      } else {
        ++ph.not_decided;
      }
      if (open) ph.latency_us[i] = (pe - due(i)) * 1e6;
      if (spans) {
        const std::int32_t root = spans->add(
            names->event, j, open ? due(i) : sub_start[i], pe);
        spans->add(names->submit, j, sub_start[i], sub_end[i], root);
        spans->add(names->wait, j, sub_end[i], std::max(sub_end[i], ps),
                   root);
        spans->add(names->pump, j, ps, pe, root);
      }
    }
    finished += out.size();
  }
  ph.elapsed = last - t0;
  return ph;
}

double Replayer::crash_and_recover(std::uint64_t chunk, Report& report,
                                 SpanLog* spans) {
  // Queue a chunk and apply only part of it, so the crash leaves admitted
  // but unapplied events behind, then drop the service without shutdown.
  const std::uint64_t j0 = cursor_;
  cursor_ += chunk;
  log_.ensure(cursor_);
  report.attempted += chunk;
  std::vector<serve::Decision> out;
  std::uint64_t next = j0;
  std::uint64_t applied = 0;
  while (applied < chunk / 2) {
    while (next < cursor_ && service_->submit(stream_.at(next)) ==
                                 serve::Admit::kAccepted)
      ++next;
    out.clear();
    service_->pump(out);
    for (const serve::Decision& d : out)
      log_.put(stream_.index_of(d.vehicle, d.seq), d);
    applied += out.size();
  }
  service_.reset();

  if (spans) {
    // The recovery's two reads, timed on their own over the same files.
    const std::uint32_t snap = spans->intern("serve.read_snapshot");
    const std::uint32_t wal = spans->intern("serve.read_wal");
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      double t = now_s();
      (void)serve::read_shard_snapshot(config_.durable_dir, s);
      spans->add(snap, s, t, now_s());
      t = now_s();
      (void)serve::read_wal(config_.durable_dir, s);
      spans->add(wal, s, t, now_s());
    }
  }

  const double t = now_s();
  serve::DecisionService::Recovered rec =
      serve::DecisionService::recover(config_);
  const double recover_s = now_s() - t;
  if (spans) spans->add(spans->intern("serve.recover"), 0, t, t + recover_s);
  service_ = std::move(rec.service);

  // Replayed decisions re-derive what the crashed service emitted: each
  // must match the recorded one bit for bit.
  for (const serve::Decision& d : rec.replayed) {
    const std::uint64_t j = stream_.index_of(d.vehicle, d.seq);
    ++report.attempted;
    if (log_.tag[j] == kNone) {
      log_.put(j, d);
      continue;
    }
    const auto tag = static_cast<std::uint8_t>(
        static_cast<int>(d.outcome) << 4 | static_cast<int>(d.rung));
    if (tag != log_.tag[j] ||
        std::memcmp(&d.threshold, &log_.threshold[j], sizeof(double)) != 0)
      ++report.mismatches;
  }

  // Resume: the producer re-sends what the recovered cursors lack.
  for (std::uint64_t j = j0; j < cursor_; ++j) {
    const serve::StopEvent e = stream_.at(j);
    if (e.seq <= service_->last_applied_seq(e.vehicle)) continue;
    while (service_->submit(e) != serve::Admit::kAccepted) {
      out.clear();
      service_->pump(out);
      for (const serve::Decision& d : out)
        log_.put(stream_.index_of(d.vehicle, d.seq), d);
    }
  }
  out.clear();
  service_->drain_all(out);
  for (const serve::Decision& d : out)
    log_.put(stream_.index_of(d.vehicle, d.seq), d);
  return recover_s;
}

/// Replay events [0, end) through a 1-thread in-memory reference service
/// that never sheds, and compare: a decision at the reference's rung must
/// be bit-identical; a worse rung is load shedding (not compared); a
/// better rung, a missing decision or a non-decided outcome is a failure.
/// Along the way `cr` prices the measured thresholds issued inside
/// `priced` ranges of the stream, each by its vehicle's next stop.
void verify(const EventStream& stream, const serve::ServeConfig& measured,
            const DecisionLog& log, std::uint64_t end, Report& report,
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>& priced,
            RealizedCost& cr) {
  serve::ServeConfig cfg = measured;
  cfg.threads = 1;
  cfg.queue_capacity = 4096;
  cfg.drain_batch = 4096;
  cfg.durable_dir.clear();
  cfg.snapshot_every = 0;
  serve::DecisionService ref(cfg);

  constexpr std::uint64_t kChunk = 1024;  // < watermark * capacity per shard
  std::vector<serve::Decision> out;
  std::uint64_t shed = 0;
  for (std::uint64_t j0 = 0; j0 < end; j0 += kChunk) {
    const std::uint64_t j1 = std::min(end, j0 + kChunk);
    for (std::uint64_t j = j0; j < j1; ++j)
      if (ref.submit(stream.at(j)) != serve::Admit::kAccepted)
        ++report.mismatches;
    out.clear();
    ref.drain_all(out);
    for (const serve::Decision& d : out) {
      const std::uint64_t j = stream.index_of(d.vehicle, d.seq);
      const std::uint8_t tag = log.tag[j];
      const bool issued =
          tag >> 4 == static_cast<int>(serve::Outcome::kDecided);
      bool in_range = false;
      for (const auto& [lo, hi] : priced) in_range |= j >= lo && j < hi;
      cr.observe(d.vehicle - 1, stream.stop_at(j),
                 issued && in_range
                     ? log.threshold[j]
                     : std::numeric_limits<double>::quiet_NaN());
      if (tag == kNone || d.outcome != serve::Outcome::kDecided) {
        ++report.mismatches;
        continue;
      }
      if (tag >> 4 != static_cast<int>(serve::Outcome::kDecided))
        continue;  // already counted as a failed operation
      const int rung = tag & 0xf;
      const int want = severity(d.rung);
      if (rung > want) {
        ++shed;
      } else if (rung < want || std::memcmp(&d.threshold, &log.threshold[j],
                                            sizeof(double)) != 0) {
        ++report.mismatches;
      }
    }
  }
  for (std::size_t s = 0; s < ref.num_shards(); ++s)
    if (!ref.shard(s).shedder().transitions().empty()) ++report.mismatches;
  report.verified = true;
  std::printf("verify: %llu events replayed on a 1-thread reference, "
              "%llu shed decisions not compared, %llu mismatches\n",
              static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(report.mismatches));
}

void count(const Phase& ph, Report& report) {
  report.attempted += ph.events;
  report.failed += ph.gave_up + ph.not_decided;
}

EventStream make_workload_stream(const std::string& workload,
                                 std::uint64_t seed) {
  if (workload == "serve_study") return study_stream(seed);
  if (workload == "serve_100k") return fleet100k_stream(seed);
  return durable_stream(seed);
}

std::string fresh_dir(const std::string& work, const std::string& name) {
  const std::string dir = work + "/" + name + "_state";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}


/// Closed loop in windows of `window` events until `seconds` have passed
/// and at least `min_windows` ran; appends each window's time in
/// reference seconds to `times` and returns the summed phase counters.
Phase closed_loop(Replayer& drv, std::uint64_t window, double seconds,
                  int min_windows, Report& report, SpanLog* spans,
                  std::vector<double>& times) {
  std::vector<double> mine;
  Phase total;
  const double start = now_s();
  while (mine.size() < static_cast<std::size_t>(min_windows) ||
         now_s() - start < seconds) {
    const double scale = reference_scale();
    const Phase ph = drv.run(window, 0.0, spans);
    count(ph, report);
    mine.push_back(ph.elapsed * scale);
    total.refusals += ph.refusals;
    total.events += ph.events;
    total.decided += ph.decided;
    total.off_coa += ph.off_coa;
    total.pumps += ph.pumps;
  }
  times.insert(times.end(), mine.begin(), mine.end());
  std::sort(mine.begin(), mine.end());
  std::printf("closed loop%s: %zu windows of %llu events, min %.5f p25 %.5f "
              "median %.5f max %.5f reference s, %llu refusals retried\n",
              spans ? " (traced)" : "", mine.size(),
              static_cast<unsigned long long>(window), mine.front(),
              mine[mine.size() / 4], median(mine), mine.back(),
              static_cast<unsigned long long>(total.refusals));
  return total;
}

/// The traced run's serve phases: the closed loop untraced then traced
/// (their ratio is the tracing overhead), a traced fixed-rate phase, and
/// quiesced state lookups.
void traced_phases(Replayer& drv, const EventStream& stream,
                   std::uint64_t window, double fixed_rate, double budget,
                   SpanLog& spans, Report& report) {
  std::vector<double> plain_times, traced_times;
  closed_loop(drv, window, 0.15 * budget, 3, report, nullptr, plain_times);
  const Phase tr =
      closed_loop(drv, window, 0.0, 3, report, &spans, traced_times);
  report.set("trace.overhead_ratio",
             median(traced_times) / median(plain_times), "ratio");
  report.set("serve.off_coa_share",
             static_cast<double>(tr.off_coa) /
                 static_cast<double>(std::max<std::uint64_t>(1, tr.decided)),
             "ratio");
  report.set("serve.refused_share",
             static_cast<double>(tr.refusals) /
                 static_cast<double>(tr.refusals + tr.events),
             "ratio");
  report.set("serve.pump_events",
             static_cast<double>(tr.decided) /
                 static_cast<double>(std::max<std::uint64_t>(1, tr.pumps)),
             "count");

  const std::uint64_t n = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(fixed_rate * 0.25 * budget), 300000);
  const Phase fixed = drv.run(n, fixed_rate, &spans);
  count(fixed, report);
  report.set_quantiles("gen.lag_us", fixed.lag_us, 1.0, "us");
  report.set("serve.decided_share",
             static_cast<double>(fixed.decided) /
                 static_cast<double>(fixed.events),
             "ratio");
  std::size_t high_water = 0;
  for (std::size_t s = 0; s < drv.service().num_shards(); ++s)
    high_water =
        std::max(high_water, drv.service().shard(s).queue().high_water());
  report.set("serve.queue_high_water", static_cast<double>(high_water),
             "count");

  // Quiesced state lookups over the workload's own vehicle ids, in an
  // order unrelated to id order.
  std::vector<double> lookup_ns;
  const std::size_t calls = std::max<std::size_t>(stream.vehicles(), 65536);
  std::uint64_t sink = 0;
  for (std::size_t b = 0; b < calls; b += 1024) {
    const std::size_t e = std::min(calls, b + 1024);
    const double t = now_s();
    for (std::size_t i = b; i < e; ++i)
      sink += drv.service().last_applied_seq(
          stream.base[(i * 7919) % stream.cycle()].vehicle);
    lookup_ns.push_back((now_s() - t) * 1e9 / static_cast<double>(e - b));
  }
  if (sink == 0) ++report.failed;  // every vehicle has been seen
  report.set_quantiles("serve.state_lookup_ns", lookup_ns, 1.0, "ns");
}

}  // namespace

void serve_layer_probe(const EventStream& stream, double seconds,
                       std::uint64_t seed, SpanLog& spans, Report& report) {
  Replayer drv(stream, service_config(stream, seed, "", 0), stream.cycle());
  drv.open();
  count(drv.run(stream.cycle(), 0.0), report);
  traced_phases(drv, stream, closed_window(Spec{}, stream), 150000.0, seconds,
                spans, report);
  const serve::ServeConfig config = drv.config();
  RealizedCost unused(stream.vehicles(), stream.break_even);
  verify(stream, config, drv.log(), drv.cursor(), report, {}, unused);
}

void run_serve(const Args& args, Report& report) {
  const Spec spec = spec_for(args.workload);
  const double budget = args.seconds;
  // Before any service exists: its pool worker inherits the CPU.
  pin_to_current_cpu();

  // --- setup: generate, construct, warm up (3x; the last one is kept) ---
  std::vector<double> setup_s, warm_s, gen_s;
  double harness_mb = 0.0, peak_mb = 0.0;
  std::unique_ptr<EventStream> stream;
  std::unique_ptr<Replayer> replayer;
  for (int rep = 0; rep < 3; ++rep) {
    replayer.reset();
    stream.reset();
    const double scale_before = reference_scale();
    const double t0 = now_s();
    stream = std::make_unique<EventStream>(
        make_workload_stream(args.workload, args.seed));
    // The traces behind the stream only feed the traced run's probes.
    if (!args.trace) sim::Fleet().swap(stream->fleet);
    const std::string dir =
        spec.durable ? fresh_dir(args.work_dir, args.workload) : "";
    const std::uint64_t warm_events = spec.warm_cycles * stream->cycle();
    replayer = std::make_unique<Replayer>(
        *stream,
        service_config(*stream, args.seed, dir, spec.snapshot_every),
        warm_events);
    // Memory, on the kept set-up: the peak from here to the end of the
    // warm-up is the service (construction plus every vehicle's state) on
    // top of the harness's inputs and decision log, which are held by now.
    double untimed = 0.0;
    if (rep == 2) {
      const double tm = now_s();
      restart_peak_rss();
      harness_mb = rss_mb();
      untimed = now_s() - tm;
    }
    replayer->open();
    const double tw = now_s();
    const Phase warm = replayer->run(warm_events, 0.0);
    const double t1 = now_s();
    if (rep == 2) peak_mb = peak_rss_mb();
    count(warm, report);
    // A set-up lasts up to seconds: the host's speed is read at both ends.
    const double scale = 0.5 * (scale_before + reference_scale());
    setup_s.push_back((t1 - t0 - untimed) * scale);
    warm_s.push_back(t1 - tw);
    gen_s.push_back(stream->gen_seconds);
  }
  std::printf("%s: %zu vehicles, %zu events per cycle, B=%.0f s\n",
              args.workload.c_str(), stream->vehicles(), stream->cycle(),
              stream->break_even);
  std::printf("setup: median %.3f reference s over 3 (wall: warm-up replay "
              "%.3f s, traces generation %.3f s)\n",
              median(setup_s), median(warm_s), median(gen_s));
  std::printf("memory: peak %.1f MiB, of which %.1f MiB held by the harness "
              "before the service was built\n",
              peak_mb, harness_mb);

  Replayer& drv = *replayer;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fixed_ranges;
  SpanLog spans;
  SpanLog* traced = args.trace ? &spans : nullptr;

  if (!args.trace) {
    // Rounds of closed loop then fixed rate, each read as the median of
    // many short windows; a round per ~3 s of budget (at least 3), so each
    // metric samples the whole run and a slow spell of the host moves some
    // windows, not all.
    const int rounds = std::max(3, args.seconds / 3);
    const double round_s = budget / rounds;
    std::vector<double> windows, p50s, tails;
    for (int round = 0; round < rounds; ++round) {
      closed_loop(drv, closed_window(spec, *stream), 0.5 * round_s, 1, report,
                  nullptr, windows);
      const std::uint64_t fixed_start = drv.cursor();
      const double scale = reference_scale();
      const Phase fixed = drv.run(
          static_cast<std::uint64_t>(spec.fixed_rate * 0.45 * round_s),
          spec.fixed_rate);
      fixed_ranges.emplace_back(fixed_start, drv.cursor());
      count(fixed, report);
      window_quantiles(fixed.latency_us, 5, kTailPct, scale, p50s, tails);
      std::vector<double> all = fixed.latency_us;
      const Quantiles q99 = quantiles(all);
      std::vector<double> lag = fixed.lag_us;
      const Quantiles lq = quantiles(lag);
      std::printf("fixed rate %.0f/s: n=%zu, p%.4g %.1f us; generator lag "
                  "p50 %.2f us p%.4g %.2f us; off-COA %.4f\n",
                  spec.fixed_rate, q99.count, q99.tail_pct, q99.tail, lq.p50,
                  lq.tail_pct, lq.tail,
                  fixed.decided ? static_cast<double>(fixed.off_coa) /
                                      static_cast<double>(fixed.decided)
                                : 0.0);
    }
    const double throughput =
        static_cast<double>(closed_window(spec, *stream)) / median(windows);
    std::printf("rounds, in reference seconds: %.0f decisions/s (median of "
                "%zu windows); latency p50 %.1f us p%.4g %.1f us (medians of "
                "%zu windows)\n",
                throughput, windows.size(), median(p50s), kTailPct,
                median(tails), tails.size());
    report.set("throughput_dps", throughput, "1/s");
    report.set("latency_p50_us", median(p50s), "us");
    report.set("latency_p90_us", median(tails), "us");
  } else {
    traced_phases(drv, *stream, closed_window(spec, *stream), spec.fixed_rate,
                  budget, spans, report);
    if (spec.durable) {
      const std::uint32_t ck = spans.intern("serve.checkpoint");
      for (int i = 0; i < 3; ++i) {
        const double t = now_s();
        drv.service().checkpoint();
        spans.add(ck, static_cast<std::uint64_t>(i), t, now_s());
      }
    }
  }

  if (spec.durable) {
    std::vector<double> recover_s;
    for (int i = 0; i < 5; ++i)
      recover_s.push_back(drv.crash_and_recover(4000, report, traced));
    std::printf("recover: median %.4f s of %zu crashes\n", median(recover_s),
                recover_s.size());
  }

  if (!args.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_mb, "MiB");
  } else {
    report.set("traces.fleet_gen_s", median(gen_s), "s");
    ProbeInput in;
    in.fleet = &stream->fleet;
    in.stream = stream.get();
    in.break_even = stream->break_even;
    in.seed = args.seed;
    in.work_dir = args.work_dir;
    in.durable_measured = spec.durable;
    run_layer_probes(in, spans, report);
  }

  const serve::ServeConfig config = drv.config();
  const std::uint64_t end = drv.cursor();
  DecisionLog log = std::move(drv.log());
  replayer.reset();  // the measured service's memory is not the reference's
  RealizedCost cr(stream->vehicles(), stream->break_even);
  verify(*stream, config, log, end, report, fixed_ranges, cr);
  if (!args.trace) {
    std::printf("realized cost over the fixed-rate phases: online %.1f s / "
                "OPT %.1f s over %zu thresholds\n",
                cr.online(), cr.opt(), cr.priced());
    if (cr.priced() == 0) ++report.failed;
    report.set("realized_cr", cr.ratio(), "ratio");
  }
  if (spec.durable) std::filesystem::remove_all(config.durable_dir);

  if (args.trace) {
    print_self_times(spans);
    set_span_metrics(spans, report);
    spans.write_tsv(args.work_dir + "/spans_" + args.workload + ".tsv");
  }
}

}  // namespace perfbench
