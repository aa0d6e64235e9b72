// Durable state for crash recovery: per-shard snapshots + a bounded
// replay log (WAL).
//
// Recovery contract: load the newest complete snapshot, replay every WAL
// record with index > snapshot cursor, and the shard is bit-identical to
// the pre-crash shard — including the decisions the replay re-derives,
// because each WAL record stores the shed ceiling that was in force when
// the event was first processed (shedding depends on transient queue
// depth, which a replay cannot reproduce; the recorded ceiling makes the
// decision a pure function of durable data).
//
// Crash safety is layered:
//   * snapshots are written to a temp file and renamed into place, so a
//     kill mid-snapshot leaves the previous complete snapshot intact (a
//     snapshot without its `end` marker is rejected as corrupt);
//   * WAL records are one line each with an FNV-1a checksum; a SIGKILL
//     can tear at most the final buffered batch, and read_wal stops at
//     the first torn or checksum-failing line instead of propagating
//     garbage into vehicle state;
//   * the WAL is truncated only after its snapshot is durably renamed,
//     and records carry a per-shard apply index, so a kill between rename
//     and truncate cannot double-apply events on replay.
//
// Encoding: text lines, with every double stored as the hex of its IEEE
// bit pattern — recovery must reproduce *bit-identical* decisions, and a
// decimal round-trip would be off by an ulp exactly often enough to fail
// that contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "robust/fallback.h"
#include "robust/input_guard.h"
#include "serve/event.h"

namespace idlered::serve {

/// Service-level identity, checked on recovery so a snapshot directory is
/// never replayed under an incompatible configuration.
struct ServeMeta {
  std::size_t num_shards = 0;
  double break_even = 0.0;
  std::uint64_t seed = 0;
  std::size_t warmup_stops = 0;
};

/// One vehicle's durable state: the rolling-stats sufficient statistics,
/// the input-guard state (stuck-run tracker + timestamp watermark), and
/// the dedupe/quarantine cursors.
struct VehicleSnap {
  std::uint64_t vehicle = 0;
  std::uint64_t last_seq = 0;  ///< highest processed seq (0 = none yet)
  std::uint64_t count = 0;     ///< accepted stops (accumulator n)
  std::uint64_t long_count = 0;
  double short_sum = 0.0;
  robust::InputGuard::State guard;
  std::uint64_t strikes = 0;  ///< consecutive invalid events
  bool quarantined = false;
};

struct ShardSnap {
  std::uint64_t cursor = 0;  ///< apply index of the last event included
  std::vector<VehicleSnap> vehicles;
};

/// One replay-log record: the event, its per-shard apply index, and the
/// shed ceiling under which it was decided.
struct WalRecord {
  std::uint64_t index = 0;  ///< 1-based per-shard apply ordinal
  StopEvent event;
  robust::ControllerMode ceiling = robust::ControllerMode::kProposed;
};

std::string meta_path(const std::string& dir);
std::string snapshot_path(const std::string& dir, std::size_t shard);
std::string wal_path(const std::string& dir, std::size_t shard);

/// Write/read the service identity file (tmp + rename). read returns
/// nullopt when absent and throws std::runtime_error on a corrupt or
/// version-mismatched file.
void write_meta(const std::string& dir, const ServeMeta& meta);
std::optional<ServeMeta> read_meta(const std::string& dir);

/// Atomic (tmp + rename) snapshot write; throws std::runtime_error on I/O
/// failure. Precondition: vehicle ids strictly increasing (the canonical
/// order that makes equal state produce equal bytes).
void write_shard_snapshot(const std::string& dir, std::size_t shard,
                          const ShardSnap& snap);

/// nullopt when no snapshot exists; throws std::runtime_error when one
/// exists but is corrupt (missing end marker / malformed line / vehicle
/// ids not strictly increasing).
std::optional<ShardSnap> read_shard_snapshot(const std::string& dir,
                                             std::size_t shard);

/// Append-side of the replay log. Records are buffered by append() and
/// made durable by flush() — the shard flushes once per drain batch,
/// *before* emitting that batch's decisions, so every emitted decision is
/// re-derivable after a crash.
class WalWriter {
 public:
  /// Opens (creating or appending) the shard's WAL. Throws
  /// std::runtime_error on I/O failure.
  void open(const std::string& dir, std::size_t shard, bool truncate);

  void append(const WalRecord& record);

  /// Push buffered records to the OS. After flush returns, a process kill
  /// cannot lose them.
  void flush();

  /// Truncate to empty (called right after a snapshot lands).
  void reset();

  bool is_open() const { return !path_.empty(); }
  std::uint64_t appended() const { return appended_; }

 private:
  std::string path_;
  std::string buffer_;
  std::uint64_t appended_ = 0;
};

/// Replay-side: every intact record, in append order. Tolerates a torn
/// tail (stops at the first malformed or checksum-failing line). Returns
/// empty when the file is absent.
std::vector<WalRecord> read_wal(const std::string& dir, std::size_t shard);

/// Exact double <-> text round-trip via the IEEE bit pattern (16 hex
/// chars). Exposed for the snapshot tests.
std::string encode_bits(double value);
double decode_bits(const std::string& hex);

}  // namespace idlered::serve
