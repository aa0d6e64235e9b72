// Input generation for every workload: serve event streams and the
// area-mix fleets behind them. Everything here is a pure function of the
// seed, and all of it runs before any timed phase.
#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "harness.h"
#include "robust/input_guard.h"
#include "traces/area_profiles.h"
#include "traces/fleet_generator.h"
#include "util/random.h"

namespace perfbench {

using idlered::serve::StopEvent;
namespace sim = idlered::sim;
namespace traces = idlered::traces;
namespace util = idlered::util;

namespace {

constexpr double kWeek = 7.0 * 24.0 * 3600.0;

}  // namespace

sim::Fleet area_mix_fleet(std::size_t vehicles, std::uint64_t seed) {
  // The study's area proportions (California 217, Chicago 312, Atlanta 653
  // of 1182), each area drawn from its own law with per-vehicle scaling.
  const auto areas = traces::all_areas();
  double total = 0.0;
  for (const auto& a : areas) total += a.num_vehicles_driving;
  util::Rng rng(seed);
  sim::Fleet fleet;
  fleet.reserve(vehicles);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < areas.size(); ++i) {
    const std::size_t n =
        i + 1 == areas.size()
            ? vehicles - assigned
            : static_cast<std::size_t>(std::llround(
                  static_cast<double>(vehicles) *
                  areas[i].num_vehicles_driving / total));
    assigned += n;
    util::Rng area_rng = rng.fork(std::hash<std::string>{}(areas[i].name));
    sim::Fleet part = traces::generate_scaled_fleet(
        areas[i], areas[i].mean_stop_s, static_cast<int>(n), area_rng);
    for (auto& t : part) fleet.push_back(std::move(t));
  }
  return fleet;
}

EventStream make_stream(std::string name, sim::Fleet fleet, double break_even,
                        std::size_t per_cycle, Arrival arrival,
                        std::uint64_t seed) {
  EventStream s;
  s.name = std::move(name);
  s.break_even = break_even;
  s.cycle_s = kWeek;
  fleet.erase(std::remove_if(fleet.begin(), fleet.end(),
                             [](const sim::StopTrace& t) {
                               return t.stops.size() < 2;
                             }),
              fleet.end());
  if (fleet.empty()) throw std::runtime_error(s.name + ": empty fleet");
  if (arrival == Arrival::kRoundRobin && per_cycle == 0)
    throw std::invalid_argument("round-robin arrival needs a fixed cycle");

  const double max_stop = idlered::robust::GuardConfig{}.max_stop_s - 1.0;
  const std::size_t vehicles = fleet.size();
  s.per_vehicle.resize(vehicles);
  s.first.resize(vehicles + 1, 0);
  for (std::size_t v = 0; v < vehicles; ++v) {
    s.per_vehicle[v] = static_cast<std::uint32_t>(
        per_cycle ? per_cycle : fleet[v].stops.size());
    s.first[v + 1] = s.first[v] + s.per_vehicle[v];
  }
  const std::size_t total = s.first[vehicles];
  s.base.resize(total);
  s.order.resize(total);

  auto make_event = [&](std::size_t v, std::size_t k, double t) {
    const auto& stops = fleet[v].stops;
    StopEvent e;
    e.vehicle = v + 1;
    e.seq = k + 1;
    e.timestamp_s = t;
    e.stop_length_s = std::min(stops[k % stops.size()], max_stop);
    return e;
  };

  util::Rng rng(util::mix64(seed ^ 0x5eedULL));
  if (arrival == Arrival::kTimeOrdered) {
    // Each vehicle's stops spread over the cycle with jitter, strictly
    // increasing per vehicle (and across cycle boundaries), then merged
    // into one time-ordered stream.
    std::vector<StopEvent> events;
    events.reserve(total);
    for (std::size_t v = 0; v < vehicles; ++v) {
      const double slot = s.cycle_s / s.per_vehicle[v];
      for (std::size_t k = 0; k < s.per_vehicle[v]; ++k)
        events.push_back(make_event(
            v, k, (static_cast<double>(k) + 0.5 + rng.uniform(-0.45, 0.45)) *
                      slot));
    }
    std::sort(events.begin(), events.end(),
              [](const StopEvent& a, const StopEvent& b) {
                return a.timestamp_s < b.timestamp_s ||
                       (a.timestamp_s == b.timestamp_s &&
                        a.vehicle < b.vehicle);
              });
    s.base = std::move(events);
  } else {
    // Every vehicle once per round, in one fixed shuffled order, so
    // consecutive events always hit different vehicles.
    std::vector<std::size_t> perm(vehicles);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = vehicles; i > 1; --i)
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i - 1)))]);
    const double step = s.cycle_s / static_cast<double>(total);
    std::size_t b = 0;
    for (std::size_t k = 0; k < per_cycle; ++k)
      for (std::size_t p = 0; p < vehicles; ++p, ++b)
        s.base[b] = make_event(perm[p], k, static_cast<double>(b) * step);
  }
  for (std::size_t b = 0; b < total; ++b) {
    const StopEvent& e = s.base[b];
    s.order[s.first[e.vehicle - 1] + (e.seq - 1)] =
        static_cast<std::uint32_t>(b);
  }
  s.fleet = std::move(fleet);
  return s;
}

EventStream study_stream(std::uint64_t seed) {
  const double t0 = now_s();
  sim::Fleet fleet = traces::generate_study_fleet(seed);
  const double gen = now_s() - t0;
  EventStream s = make_stream("serve_study", std::move(fleet), 28.0, 0,
                              Arrival::kTimeOrdered, seed);
  s.gen_seconds = gen;
  return s;
}

EventStream fleet100k_stream(std::uint64_t seed) {
  const double t0 = now_s();
  sim::Fleet fleet = area_mix_fleet(100000, seed);
  const double gen = now_s() - t0;
  EventStream s = make_stream("serve_100k", std::move(fleet), 28.0, 4,
                              Arrival::kRoundRobin, seed);
  s.gen_seconds = gen;
  return s;
}

EventStream durable_stream(std::uint64_t seed) {
  const double t0 = now_s();
  sim::Fleet fleet = area_mix_fleet(10000, seed);
  const double gen = now_s() - t0;
  EventStream s = make_stream("serve_durable", std::move(fleet), 28.0, 16,
                              Arrival::kTimeOrdered, seed);
  s.gen_seconds = gen;
  return s;
}

}  // namespace perfbench
