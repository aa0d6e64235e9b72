#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/analytic.h"
#include "core/policies.h"
#include "core/solver_lp.h"
#include "obs/decision_trace.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "robust/health_monitor.h"
#include "util/contracts.h"
#include "util/random.h"

namespace idlered::serve {

namespace {

int severity(robust::ControllerMode mode) { return static_cast<int>(mode); }

double quiet_nan() { return std::numeric_limits<double>::quiet_NaN(); }

// Throwaway per-decision stream: a pure function of (service seed,
// vehicle, seq), so the same event draws the same threshold on replay, on
// any thread, in any batch.
std::uint64_t decision_seed(std::uint64_t seed, const StopEvent& event) {
  return util::mix64(util::mix64(seed ^ event.vehicle) ^ event.seq);
}

// One drain-batch summary for the obs timeline; lines up with the shed
// transitions and the queue-depth gauge.
void trace_drain([[maybe_unused]] std::size_t shard,
                 [[maybe_unused]] std::uint64_t pump,
                 [[maybe_unused]] std::size_t depth,
                 [[maybe_unused]] std::size_t popped,
                 [[maybe_unused]] robust::ControllerMode ceiling) {
  IDLERED_OBS_ONLY(if (obs::enabled()) {
    util::JsonValue ev = util::JsonValue::object();
    ev.set("type", "serve_drain");
    ev.set("shard", static_cast<double>(shard));
    ev.set("pump", static_cast<double>(pump));
    ev.set("depth", depth);
    ev.set("popped", popped);
    ev.set("ceiling", robust::to_string(ceiling));
    obs::recorder().emit(std::move(ev));
  })
}

// The dspan chain (obs/decision_trace.h): every stage recomputes the
// trace id from (seed, vehicle, seq), so no wire format changes and the
// Decision stream stays bit-identical traced vs untraced.

// Root of the chain, emitted from the producer thread when the queue
// accepts the event. A point event: its timestamp is the admission time.
void trace_ingest([[maybe_unused]] std::uint64_t seed,
                  [[maybe_unused]] std::size_t shard,
                  [[maybe_unused]] const StopEvent& event) {
  IDLERED_OBS_ONLY(if (obs::enabled()) {
    const double t0 = obs::recorder().now();
    util::JsonValue ev = obs::make_dspan(
        obs::decision_trace_id(seed, event.vehicle, event.seq), "ingest",
        nullptr, t0, 0.0);
    ev.set("shard", static_cast<double>(shard));
    ev.set("vehicle", event.vehicle);
    ev.set("seq", event.seq);
    obs::recorder().emit(std::move(ev));
  })
}

// Pricing stage, parented on the durability barrier when there is one.
void trace_solve([[maybe_unused]] std::uint64_t seed,
                 [[maybe_unused]] std::size_t shard,
                 [[maybe_unused]] const StopEvent& event,
                 [[maybe_unused]] robust::ControllerMode rung,
                 [[maybe_unused]] const char* parent,
                 [[maybe_unused]] double t0, [[maybe_unused]] bool replay) {
  IDLERED_OBS_ONLY(if (obs::enabled()) {
    const double dur = obs::recorder().now() - t0;
    util::JsonValue ev = obs::make_dspan(
        obs::decision_trace_id(seed, event.vehicle, event.seq), "solve",
        parent, t0, dur);
    ev.set("shard", static_cast<double>(shard));
    ev.set("rung", robust::to_string(rung));
    if (replay) ev.set("replay", true);
    obs::recorder().emit(std::move(ev));
  })
}

// Terminal stage, emitted for every outcome. The parent names the last
// stage the event actually passed through: solve for priced events, the
// WAL barrier for applied-but-rejected events on durable shards, ingest
// for stale duplicates (which are never WAL-appended) and for
// non-durable shards.
void trace_decision([[maybe_unused]] std::uint64_t seed,
                    [[maybe_unused]] std::size_t shard,
                    [[maybe_unused]] const StopEvent& event,
                    [[maybe_unused]] const Decision& d,
                    [[maybe_unused]] bool durable,
                    [[maybe_unused]] double t0, [[maybe_unused]] bool replay) {
  IDLERED_OBS_ONLY(if (obs::enabled()) {
    const double dur = obs::recorder().now() - t0;
    const char* parent = "ingest";
    if (d.outcome == Outcome::kDecided) {
      parent = "solve";
    } else if (d.outcome != Outcome::kRejectedStale && durable) {
      parent = "wal";
    }
    util::JsonValue ev = obs::make_dspan(
        obs::decision_trace_id(seed, event.vehicle, event.seq), "decision",
        parent, t0, dur);
    ev.set("shard", static_cast<double>(shard));
    ev.set("vehicle", event.vehicle);
    ev.set("seq", event.seq);
    ev.set("outcome", to_string(d.outcome));
    ev.set("rung", robust::to_string(d.rung));
    ev.set("durable", durable);
    if (replay) ev.set("replay", true);
    obs::recorder().emit(std::move(ev));
  })
}

}  // namespace

void ShardParams::validate() const {
  if (!(break_even > 0.0) || !std::isfinite(break_even))
    throw std::invalid_argument("ShardParams: break_even must be finite > 0");
  if (queue_capacity == 0)
    throw std::invalid_argument("ShardParams: queue_capacity must be >= 1");
  if (drain_batch == 0)
    throw std::invalid_argument("ShardParams: drain_batch must be >= 1");
  if (warmup_stops == 0)
    throw std::invalid_argument("ShardParams: warmup_stops must be >= 1");
  if (!(b_det_margin > 0.0) || b_det_margin > 1.0)
    throw std::invalid_argument("ShardParams: b_det_margin must be in (0, 1]");
  guard.validate();
  shed.validate();
}

Shard::Shard(const ShardParams& params)
    : params_(params),
      queue_(params.queue_capacity),
      shedder_(params.shed,
               util::mix64(params.seed ^ (params.index + 0x5e17ULL))) {
  params_.validate();
}

void Shard::attach_durable(const std::string& dir, bool fresh) {
  std::filesystem::create_directories(dir);
  dir_ = dir;
  wal_.open(dir, params_.index, fresh);
}

Admit Shard::submit(const StopEvent& event) {
  if (queue_.try_push(event)) {
    trace_ingest(params_.seed, params_.index, event);
    return Admit::kAccepted;
  }
  IDLERED_COUNT("serve.submit.rejected");
  return Admit::kRejectedQueueFull;
}

std::size_t Shard::drain(std::vector<Decision>& out) {
  IDLERED_LOG_TIMER("serve.drain.seconds");
  const std::size_t depth = queue_.size();
  const robust::ControllerMode ceiling =
      shedder_.observe(depth, queue_.capacity());
  IDLERED_OBS_ONLY({
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    if (!gauge_registered_) {
      gauge_id_ =
          reg.gauge("serve.queue_depth." + std::to_string(params_.index));
      gauge_registered_ = true;
    }
    reg.set(gauge_id_, static_cast<double>(depth));
  })

  batch_.clear();
  queue_.pop_up_to(params_.drain_batch, batch_);
  if (batch_.empty()) return 0;
  trace_drain(params_.index, shedder_.pumps(), depth, batch_.size(), ceiling);

  // Durability barrier: every event that will mutate state goes to the
  // WAL — flushed — *before* any of the batch's decisions are emitted, so
  // a crash can lose only decisions nobody has seen yet. Staleness is the
  // one thing predicted here instead of discovered in apply_event; the
  // prediction tracks in-batch seq advances so it matches apply order
  // exactly. pending_ holds at most drain_batch entries, so it is scanned
  // linearly.
  if (durable()) {
    IDLERED_OBS_ONLY(
        const bool tracing = obs::enabled();
        const double wal_t0 = tracing ? obs::recorder().now() : 0.0;
        std::vector<const StopEvent*> walled;)
    pending_.clear();
    std::uint64_t index = apply_index_;
    for (const StopEvent& ev : batch_) {
      const auto p =
          std::find_if(pending_.begin(), pending_.end(),
                       [&](const auto& e) { return e.first == ev.vehicle; });
      std::uint64_t last = 0;
      if (p != pending_.end()) {
        last = p->second;
      } else if (const VehicleState* s = states_.find(ev.vehicle)) {
        last = s->last_seq;
      }
      if (ev.seq == 0 || ev.seq <= last) continue;  // stale: pure no-op
      if (p != pending_.end()) {
        p->second = ev.seq;
      } else {
        pending_.emplace_back(ev.vehicle, ev.seq);
      }
      wal_.append(WalRecord{++index, ev, ceiling});
      IDLERED_OBS_ONLY(if (tracing) walled.push_back(&ev);)
    }
    {
      IDLERED_LOG_TIMER("serve.wal_flush.seconds");
      wal_.flush();
    }
    // One barrier, one dspan per record it covered: every record shares
    // the barrier's t0/dur because none of its decisions may be emitted
    // before the whole flush returns.
    IDLERED_OBS_ONLY(if (tracing) {
      const double wal_dur = obs::recorder().now() - wal_t0;
      for (const StopEvent* ev : walled) {
        util::JsonValue dspan = obs::make_dspan(
            obs::decision_trace_id(params_.seed, ev->vehicle, ev->seq),
            "wal", "ingest", wal_t0, wal_dur);
        dspan.set("shard", static_cast<double>(params_.index));
        obs::recorder().emit(std::move(dspan));
      }
    })
  }

  std::size_t applied = 0;
  for (const StopEvent& ev : batch_) {
    const std::uint64_t before = apply_index_;
    out.push_back(apply_event(ev, ceiling));
    applied += static_cast<std::size_t>(apply_index_ - before);
  }

  if (durable() && params_.snapshot_every > 0 &&
      applied_since_checkpoint_ >= params_.snapshot_every)
    checkpoint();
  return applied;
}

VehicleState& Shard::vehicle(std::uint64_t id) {
  return *states_.try_emplace(id, params_.break_even, params_.guard).first;
}

Decision Shard::apply_event(const StopEvent& event,
                            robust::ControllerMode ceiling) {
  double apply_t0 = 0.0;
  IDLERED_OBS_ONLY(if (obs::enabled()) apply_t0 = obs::recorder().now();)
  const Decision d = apply_event_impl(event, ceiling);
  trace_decision(params_.seed, params_.index, event, d, durable(), apply_t0,
                 replaying_);
  return d;
}

Decision Shard::apply_event_impl(const StopEvent& event,
                                 robust::ControllerMode ceiling) {
  Decision d;
  d.vehicle = event.vehicle;
  d.seq = event.seq;
  d.rung = ceiling;
  d.threshold = quiet_nan();

  // Stale check without creating state: a duplicate for an unseen vehicle
  // must stay a pure no-op or replayed shards would track different
  // vehicle sets than the original.
  VehicleState* const found = states_.find(event.vehicle);
  const std::uint64_t last = found == nullptr ? 0 : found->last_seq;
  if (event.seq == 0 || event.seq <= last) {
    d.outcome = Outcome::kRejectedStale;
    IDLERED_COUNT("serve.events.stale");
    return d;
  }

  VehicleState& state = found != nullptr ? *found : vehicle(event.vehicle);
  state.last_seq = event.seq;
  ++apply_index_;
  ++applied_since_checkpoint_;

  if (state.quarantined) {
    d.outcome = Outcome::kQuarantined;
    IDLERED_COUNT("serve.events.quarantined");
    return d;
  }

  const robust::Verdict verdict =
      state.guard.admit(event.stop_length_s, event.timestamp_s);
  if (verdict != robust::Verdict::kAccept) {
    d.outcome = verdict == robust::Verdict::kRejectOutOfOrder
                    ? Outcome::kRejectedOutOfOrder
                    : Outcome::kRejectedInvalid;
    IDLERED_COUNT("serve.events.rejected");
    ++state.strikes;
    if (params_.poison_strikes > 0 &&
        state.strikes >= params_.poison_strikes) {
      state.quarantined = true;
      IDLERED_COUNT("serve.quarantines");
    }
    return d;
  }

  state.strikes = 0;
  state.acc.insert(event.stop_length_s);
  d.outcome = Outcome::kDecided;
  robust::ControllerMode rung = ceiling;
  double solve_t0 = 0.0;
  IDLERED_OBS_ONLY(if (obs::enabled()) solve_t0 = obs::recorder().now();)
  d.threshold = decide_threshold(event, state, rung);
  d.rung = rung;
  trace_solve(params_.seed, params_.index, event, rung,
              durable() ? "wal" : "ingest", solve_t0, replaying_);
  IDLERED_COUNT("serve.decisions");
  return d;
}

double Shard::decide_threshold(const StopEvent& event, VehicleState& state,
                               robust::ControllerMode& rung) {
  // The effective rung is the worse of the shed ceiling and the vehicle's
  // own warm-up rung: a cold vehicle gets the distribution-free N-Rand
  // guarantee even when the shard itself is healthy.
  const bool warmed = state.acc.count() >= params_.warmup_stops;
  if (!warmed && severity(robust::ControllerMode::kNRand) > severity(rung))
    rung = robust::ControllerMode::kNRand;

  if (rung == robust::ControllerMode::kProposed) {
    // COA re-solve on the arena workspace: the eq. (32)-(33) vertex LP runs
    // allocation-free in lp_ws_, and its selection agrees with the
    // closed-form choose_strategy() (cross-checked in tests), so the
    // decision stream is unchanged from the ProposedPolicy-based path.
    const dist::ShortStopStats stats = state.acc.stats();
    const core::LpStrategySolution sol =
        core::solve_constrained_lp(stats, params_.break_even, lp_ws_);
    if (sol.strategy == core::Strategy::kBDet &&
        !robust::trust_b_det(stats, params_.break_even,
                             params_.b_det_margin)) {
      // Estimation error near the eq. 36 boundary flips the LP vertex;
      // DET keeps 2-competitiveness on this stop regardless.
      rung = robust::ControllerMode::kDet;
    } else {
      switch (sol.strategy) {
        case core::Strategy::kToi:
          return 0.0;
        case core::Strategy::kDet:
          return params_.break_even;
        case core::Strategy::kBDet:
          return sol.b;
        case core::Strategy::kNRand: {
          const core::NRandPolicy n_rand(params_.break_even);
          util::Rng rng(decision_seed(params_.seed, event));
          return n_rand.sample_threshold(rng);
        }
      }
    }
  }
  switch (rung) {
    case robust::ControllerMode::kProposed:
      break;  // unreachable: handled above
    case robust::ControllerMode::kDet:
      return params_.break_even;
    case robust::ControllerMode::kNRand: {
      const core::NRandPolicy n_rand(params_.break_even);
      util::Rng rng(decision_seed(params_.seed, event));
      return n_rand.sample_threshold(rng);
    }
    case robust::ControllerMode::kNev:
      return std::numeric_limits<double>::infinity();
  }
  return params_.break_even;
}

void Shard::checkpoint() {
  if (!durable()) return;
  IDLERED_SPAN("serve.checkpoint");
  // The table iterates in arrival order; sorting by id makes the snapshot
  // bytes a function of the state alone (and the reader requires it).
  std::vector<std::pair<std::uint64_t, const VehicleState*>> order;
  order.reserve(states_.size());
  states_.for_each([&](std::uint64_t id, const VehicleState& state) {
    order.emplace_back(id, &state);
  });
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ShardSnap snap;
  snap.cursor = apply_index_;
  snap.vehicles.reserve(order.size());
  for (const auto& [id, state_ptr] : order) {
    const VehicleState& state = *state_ptr;
    VehicleSnap v;
    v.vehicle = id;
    v.last_seq = state.last_seq;
    v.count = state.acc.count();
    v.long_count = state.acc.long_count();
    v.short_sum = state.acc.short_sum();
    v.guard = state.guard.state();
    v.strikes = state.strikes;
    v.quarantined = state.quarantined;
    snap.vehicles.push_back(v);
  }
  write_shard_snapshot(dir_, params_.index, snap);
  wal_.reset();
  applied_since_checkpoint_ = 0;
  IDLERED_COUNT("serve.checkpoints");
}

std::vector<Decision> Shard::recover() {
  if (!durable())
    throw std::logic_error("Shard::recover: no durable storage attached");
  IDLERED_SPAN("serve.recover");
  states_.clear();
  apply_index_ = 0;
  applied_since_checkpoint_ = 0;

  if (const auto snap = read_shard_snapshot(dir_, params_.index)) {
    apply_index_ = snap->cursor;
    for (const VehicleSnap& v : snap->vehicles) {
      VehicleState state(params_.break_even, params_.guard);
      state.acc = stats::ShortStopAccumulator::restore(
          params_.break_even, static_cast<std::size_t>(v.count), v.short_sum,
          static_cast<std::size_t>(v.long_count));
      state.guard.restore(v.guard);
      state.last_seq = v.last_seq;
      state.strikes = v.strikes;
      state.quarantined = v.quarantined;
      states_.try_emplace(v.vehicle, std::move(state));
    }
  }

  std::vector<Decision> replayed;
  replaying_ = true;
  for (const WalRecord& rec : read_wal(dir_, params_.index)) {
    if (rec.index <= apply_index_) continue;  // already in the snapshot
    replayed.push_back(apply_event(rec.event, rec.ceiling));
    // Every WAL record past the cursor must advance the apply index by
    // exactly one; a mismatch means the log and snapshot disagree.
    IDLERED_ENSURES(apply_index_ == rec.index,
                    "WAL replay index out of step with snapshot cursor");
  }
  replaying_ = false;
  IDLERED_COUNT_ADD("serve.replayed", replayed.size());
  return replayed;
}

std::uint64_t Shard::last_applied_seq(std::uint64_t vehicle_id) const {
  const VehicleState* state = states_.find(vehicle_id);
  return state == nullptr ? 0 : state->last_seq;
}

std::uint64_t Shard::quarantined_vehicles() const {
  std::uint64_t n = 0;
  states_.for_each([&](std::uint64_t, const VehicleState& state) {
    if (state.quarantined) ++n;
  });
  return n;
}

}  // namespace idlered::serve
