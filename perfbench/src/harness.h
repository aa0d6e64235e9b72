// Shared declarations of the benchmark harness: the report every workload
// fills, the serve event streams, the engine sweep grids, and the layer
// probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "args.h"
#include "measure.h"
#include "serve/event.h"
#include "sim/trace.h"
#include "spans.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one run prints: metrics by name and unit, plus the failure count
/// over attempted operations. Human-readable detail goes to stdout as the
/// run proceeds; the JSON result line comes last.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< correctness-check disagreements
  bool verified = false;         ///< the correctness check ran to the end

  void set(const std::string& name, double value, const std::string& unit);
  /// Latency-style per-layer metric: value = p50, p99 and count printed.
  void set_quantiles(const std::string& name, std::vector<double> samples,
                     double scale, const std::string& unit);
  bool correct() const { return verified && failed == 0 && mismatches == 0; }
  std::string json() const;
};

// ---------------------------------------------------------------------------
// Serve event streams.
//
// One *cycle* of events is generated up front (every vehicle's stops for
// the cycle, in the workload's arrival order); the stream repeats the cycle
// with seq and timestamps continuing, so event j of the run is an O(1)
// function of j and an event is located from (vehicle, seq) by index
// arithmetic — no associative lookup on the timed path.
struct EventStream {
  std::string name;
  double break_even = 28.0;
  std::vector<idlered::serve::StopEvent> base;  ///< one cycle
  std::vector<std::uint32_t> per_vehicle;  ///< events per vehicle per cycle
  std::vector<std::uint32_t> first;        ///< CSR offsets into `order`
  std::vector<std::uint32_t> order;        ///< base index by (vehicle, k)
  double cycle_s = 0.0;                    ///< timestamp span of one cycle
  idlered::sim::Fleet fleet;               ///< the traces the stops came from
  double gen_seconds = 0.0;                ///< traces:: generation time

  std::size_t vehicles() const { return per_vehicle.size(); }
  std::size_t cycle() const { return base.size(); }

  idlered::serve::StopEvent at(std::uint64_t j) const {
    const std::uint64_t r = j / base.size();
    idlered::serve::StopEvent e = base[j % base.size()];
    e.seq += r * per_vehicle[e.vehicle - 1];
    e.timestamp_s += static_cast<double>(r) * cycle_s;
    return e;
  }
  double stop_at(std::uint64_t j) const {
    return base[j % base.size()].stop_length_s;
  }
  std::uint64_t index_of(std::uint64_t vehicle, std::uint64_t seq) const {
    const std::size_t v = vehicle - 1;
    const std::uint64_t s0 = seq - 1;
    const std::uint64_t n = per_vehicle[v];
    return (s0 / n) * base.size() + order[first[v] + s0 % n];
  }
};

enum class Arrival { kTimeOrdered, kRoundRobin };

/// Build a stream over `fleet`: each vehicle contributes `per_cycle` stops
/// per cycle (0 = its whole trace), taken cyclically from its trace and
/// clamped into the service's plausibility range. Vehicles with fewer than
/// two stops are left out (a one-value trace repeated forever is what the
/// frozen-sensor guard exists to reject).
EventStream make_stream(std::string name, idlered::sim::Fleet fleet,
                        double break_even, std::size_t per_cycle,
                        Arrival arrival, std::uint64_t seed);

/// The serve workloads' streams, generated from `seed`.
EventStream study_stream(std::uint64_t seed);
EventStream fleet100k_stream(std::uint64_t seed);
EventStream durable_stream(std::uint64_t seed);

/// `vehicles` traces in the paper study's area mix (217:312:653).
idlered::sim::Fleet area_mix_fleet(std::size_t vehicles, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Workload runners. Each fills `report` (end-to-end metrics untraced,
// per-layer metrics traced) and counts attempted/failed operations.

void run_serve(const Args& args, Report& report);
void run_engine(const Args& args, Report& report);

/// The serve layer's traced phases over another workload's stream
/// (engine_sweep measures the serve layer metrics on its own fleets),
/// with the same 1-thread reference check.
void serve_layer_probe(const EventStream& stream, double seconds,
                       std::uint64_t seed, SpanLog& spans, Report& report);

// ---------------------------------------------------------------------------
// Layer probes: time calls into each module's public functions on the
// workload's own data (traced runs only).
struct ProbeInput {
  const idlered::sim::Fleet* fleet = nullptr;
  const EventStream* stream = nullptr;  ///< the fleet's events (WAL probe)
  double break_even = 28.0;
  std::uint64_t seed = 1;
  std::string work_dir;
  /// The durable service itself supplied checkpoint and recovery spans;
  /// otherwise the snapshot/WAL codecs and a recover() over them are
  /// timed on this data.
  bool durable_measured = false;
  bool include_engine = true;  ///< one EvalSession over `fleet`
};

void run_layer_probes(const ProbeInput& in, SpanLog& spans, Report& report);

/// Print every span name's self-time quantiles.
void print_self_times(const SpanLog& spans);

/// Per-layer metrics that come from span self times (serve.submit_ns,
/// serve.queue_wait_us, serve.pump_us, serve.checkpoint_ms, ...).
void set_span_metrics(const SpanLog& spans, Report& report);

}  // namespace perfbench
