// One shard of the streaming decision service: a bounded ingress queue, a
// load shedder, per-vehicle state, and (optionally) a durable snapshot +
// replay log.
//
// Threading contract: submit() is the only method safe to call from
// producer threads — it touches nothing but the queue's mutex-guarded
// ring. Everything else (drain, checkpoint, recover, the accessors over
// vehicle state) belongs to the single pump pass; the service runs pumps
// on the engine thread pool with one task per shard, so shard internals
// never need their own locks. The contract is compiler-checked on clang:
// pump-side methods require the shard's `pump_role()` capability, which
// callers claim with a util::ScopedAssumeRole — see DESIGN.md §13.
//
// Decision core, per event, in apply order:
//   1. dedupe on per-vehicle seq (stale events are pure no-ops);
//   2. quarantine check (a vehicle past `poison_strikes` consecutive
//      invalid events is fenced off — one poisoned source cannot keep
//      burning validation work);
//   3. InputGuard validation (value + event-time monotonicity);
//   4. accepted stops fold into the O(1) ShortStopAccumulator, and the
//      answer is priced at the *effective rung*: the worse of the shed
//      ceiling recorded for the batch and the vehicle's own warm-up rung,
//      with the COA -> DET trust demotion (eq. 36) applied on top.
//
// Determinism: thresholds that need randomness (N-Rand, COA's N-Rand
// vertex) draw from a throwaway Rng seeded by mix64 over (service seed,
// vehicle, seq) — never from a long-lived stream — so a decision depends
// only on durable data plus the WAL-recorded ceiling, never on thread
// interleaving or replay position. That is the whole crash-recovery
// story: recover() restores the snapshot, re-applies WAL records beyond
// the snapshot cursor, and necessarily re-derives bit-identical decisions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/arena.h"
#include "robust/fallback.h"
#include "robust/input_guard.h"
#include "serve/event.h"
#include "serve/queue.h"
#include "serve/shedder.h"
#include "serve/snapshot.h"
#include "serve/vehicle_table.h"
#include "stats/rolling.h"
#include "util/thread_annotations.h"

namespace idlered::serve {

struct ShardParams {
  std::size_t index = 0;  ///< shard ordinal (names the durable files)
  double break_even = 60.0;
  /// Accepted stops a vehicle needs before COA is offered; below it the
  /// vehicle is priced at N-Rand (distribution-free guarantee).
  std::size_t warmup_stops = 8;
  std::size_t queue_capacity = 256;
  std::size_t drain_batch = 64;
  /// Consecutive invalid events that quarantine a vehicle; 0 disables.
  std::size_t poison_strikes = 4;
  /// COA's b-DET vertex is only trusted when eq. 36 holds with this
  /// margin; otherwise the decision demotes to DET (2-competitive).
  double b_det_margin = 0.9;
  robust::GuardConfig guard;
  ShedConfig shed;
  std::uint64_t seed = 1;
  /// Auto-checkpoint after this many applied events (durable shards only;
  /// 0 = checkpoint only when the service asks).
  std::size_t snapshot_every = 0;

  /// Throws std::invalid_argument on non-positive break_even, zero
  /// capacities, a margin outside (0, 1], or invalid sub-configs.
  void validate() const;
};

/// Mutable per-vehicle state; exactly what VehicleSnap persists.
struct VehicleState {
  stats::ShortStopAccumulator acc;
  robust::InputGuard guard;
  std::uint64_t last_seq = 0;  ///< highest processed seq (0 = none)
  std::uint64_t strikes = 0;   ///< consecutive invalid events
  bool quarantined = false;

  VehicleState(double break_even, const robust::GuardConfig& guard_config)
      : acc(break_even), guard(guard_config) {}
};

class Shard {
 public:
  explicit Shard(const ShardParams& params);

  /// Attach durable storage under `dir`. fresh=true truncates any
  /// existing WAL (new service); fresh=false appends (post-recovery).
  void attach_durable(const std::string& dir, bool fresh)
      IDLERED_REQUIRES(pump_role_);
  bool durable() const IDLERED_REQUIRES(pump_role_) { return !dir_.empty(); }

  /// Producer side; thread-safe. Refuses (kRejectedQueueFull) when the
  /// bounded queue is at capacity — backpressure, not buffering.
  Admit submit(const StopEvent& event);

  /// One pump pass: sample depth into the shedder, pop a drain batch,
  /// make the batch durable (WAL append + flush), then apply it,
  /// appending decisions to `out`. Returns how many events were applied.
  /// Pump-thread only.
  std::size_t drain(std::vector<Decision>& out) IDLERED_REQUIRES(pump_role_);

  /// Write a snapshot (tmp + rename) and truncate the WAL. Pump-thread
  /// only; no-op for non-durable shards.
  void checkpoint() IDLERED_REQUIRES(pump_role_);

  /// Load the snapshot (if any) and re-apply WAL records past its cursor.
  /// Returns the decisions the replay re-derived — bit-identical to what
  /// the pre-crash shard emitted for those events. Call once, before the
  /// first drain, with durable storage attached.
  std::vector<Decision> recover() IDLERED_REQUIRES(pump_role_);

  /// Highest processed seq for a vehicle (0 = never seen). The crash-
  /// resume handshake: producers restart from last_applied_seq + 1.
  std::uint64_t last_applied_seq(std::uint64_t vehicle) const
      IDLERED_REQUIRES(pump_role_);

  const BoundedEventQueue& queue() const { return queue_; }
  const LoadShedder& shedder() const { return shedder_; }
  const ShardParams& params() const { return params_; }
  std::uint64_t applied() const IDLERED_REQUIRES(pump_role_) {
    return apply_index_;
  }
  std::size_t vehicles_tracked() const IDLERED_REQUIRES(pump_role_) {
    return states_.size();
  }
  std::uint64_t quarantined_vehicles() const IDLERED_REQUIRES(pump_role_);

  /// The single-pump-thread capability. A caller that has established it is
  /// on the (sole) pump thread of this shard; claim it with
  /// util::ScopedAssumeRole before calling the pump-side methods.
  util::ThreadRole& pump_role() const IDLERED_RETURN_CAPABILITY(pump_role_) {
    return pump_role_;
  }

 private:
  VehicleState& vehicle(std::uint64_t id) IDLERED_REQUIRES(pump_role_);
  /// Thin tracing wrapper over apply_event_impl: times the apply and
  /// emits the terminal "decision" dspan (obs builds, tracing on).
  Decision apply_event(const StopEvent& event, robust::ControllerMode ceiling)
      IDLERED_REQUIRES(pump_role_);
  Decision apply_event_impl(const StopEvent& event,
                            robust::ControllerMode ceiling)
      IDLERED_REQUIRES(pump_role_);
  double decide_threshold(const StopEvent& event, VehicleState& state,
                          robust::ControllerMode& rung)
      IDLERED_REQUIRES(pump_role_);

  ShardParams params_;
  BoundedEventQueue queue_;
  LoadShedder shedder_;
  /// Flat open-addressed table (serve/vehicle_table.h). It iterates in
  /// arrival order, so checkpoint() sorts by vehicle id to keep snapshot
  /// bytes a function of state alone.
  VehicleTable<VehicleState> states_ IDLERED_GUARDED_BY(pump_role_);
  /// WAL index of the last applied event.
  std::uint64_t apply_index_ IDLERED_GUARDED_BY(pump_role_) = 0;
  std::uint64_t applied_since_checkpoint_ IDLERED_GUARDED_BY(pump_role_) = 0;
  std::string dir_ IDLERED_GUARDED_BY(pump_role_);
  WalWriter wal_ IDLERED_GUARDED_BY(pump_role_);
  /// Drain scratch, reused across pumps.
  std::vector<StopEvent> batch_ IDLERED_GUARDED_BY(pump_role_);
  /// WAL-barrier scratch: (vehicle, highest seq walled so far) for the
  /// vehicles of the current batch, reused across pumps.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending_
      IDLERED_GUARDED_BY(pump_role_);
  /// Arena for the COA vertex LP (eq. 32-33: <= 2 constraints, 3 vars),
  /// reused across every decision this shard prices — the re-solve loop
  /// never touches the heap. Pump-thread only, like all decision state.
  lp::Workspace lp_ws_ IDLERED_GUARDED_BY(pump_role_){2, 3};
  /// Lazily registered per-shard queue-depth gauge (obs builds only).
  std::size_t gauge_id_ IDLERED_GUARDED_BY(pump_role_) = 0;
  bool gauge_registered_ IDLERED_GUARDED_BY(pump_role_) = false;
  /// True while recover() replays the WAL: replayed dspans are flagged so
  /// chain checks can exclude re-derived decisions.
  bool replaying_ IDLERED_GUARDED_BY(pump_role_) = false;
  /// Zero-state capability object naming the pump-thread contract.
  mutable util::ThreadRole pump_role_;
};

}  // namespace idlered::serve
