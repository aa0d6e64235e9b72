// Crash-recovery contract tests.
//
// The property under test, stated once: for ANY kill point and ANY thread
// count, snapshot + WAL-replay recovery yields a decision stream that is
// bit-identical — per (vehicle, seq) — to the stream an uninterrupted
// service would have produced. Decisions may be observed more than once
// across the crash (emitted pre-crash AND re-derived by replay); every
// observation of the same (vehicle, seq) must agree bit for bit.
//
// Two layers:
//   * an in-process kill-point sweep (destroying the service object is
//     byte-equivalent to a crash at a batch boundary: the WAL is flushed
//     per drain batch and nothing is written at destruction), and
//   * a genuine fork + SIGKILL test that kills a child mid-stream — no
//     destructor runs, file buffers tear where they tear — then recovers
//     in the parent and resumes via the last_applied_seq handshake.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/thread_annotations.h"

namespace idlered::serve {
namespace {

namespace fs = std::filesystem;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "idlered_recover_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ServeConfig durable_config(const std::string& dir, int threads) {
  ServeConfig c;
  c.num_shards = 3;
  c.threads = threads;
  c.break_even = 60.0;
  c.warmup_stops = 4;
  c.queue_capacity = 256;
  c.drain_batch = 32;
  c.seed = 11;
  c.durable_dir = dir;
  c.snapshot_every = 16;
  return c;
}

// Deterministic fleet schedule over `vehicles` vehicles, round-robin, with
// hostile events mixed in: every 13th stop length is NaN (guard + strike
// machinery) and every 17th timestamp steps backwards (out-of-order path).
// Both must survive snapshot + replay, which is exactly why the guard
// state is part of the snapshot.
std::vector<StopEvent> fleet_schedule(std::size_t n, std::uint64_t vehicles) {
  std::vector<StopEvent> events;
  events.reserve(n);
  std::vector<std::uint64_t> next_seq(vehicles + 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = (i % vehicles) + 1;
    const std::uint64_t seq = next_seq[v]++;
    StopEvent e;
    e.vehicle = v;
    e.seq = seq;
    e.timestamp_s = static_cast<double>(seq);
    e.stop_length_s =
        15.0 + static_cast<double>((seq * 13 + v * 7) % 97);
    if (i % 13 == 5) e.stop_length_s = kNan;
    if (i % 17 == 9) e.timestamp_s = static_cast<double>(seq) - 1.5;
    events.push_back(e);
  }
  return events;
}

using DecisionMap = std::map<std::pair<std::uint64_t, std::uint64_t>, Decision>;

// Fold decisions into the map; any re-observation of a key must be
// bit-identical.
void merge(DecisionMap& map, const std::vector<Decision>& decisions) {
  for (const Decision& d : decisions) {
    const auto key = std::make_pair(d.vehicle, d.seq);
    const auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, d);
    } else {
      ASSERT_TRUE(bit_identical(it->second, d))
          << "divergent re-observation of vehicle " << d.vehicle << " seq "
          << d.seq;
    }
  }
}

// The uninterrupted reference: same schedule through an in-memory service.
DecisionMap reference_stream(const std::vector<StopEvent>& events) {
  ServeConfig cfg = durable_config("", 1);
  cfg.durable_dir.clear();
  DecisionService svc(cfg);
  std::vector<Decision> out;
  std::size_t i = 0;
  for (const StopEvent& e : events) {
    EXPECT_EQ(svc.submit(e), Admit::kAccepted);
    if (++i % 4 == 0) svc.pump(out);
  }
  svc.drain_all(out);
  DecisionMap map;
  merge(map, out);
  EXPECT_EQ(map.size(), events.size());
  return map;
}

void expect_equal(const DecisionMap& got, const DecisionMap& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, d] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << "missing vehicle " << key.first << " seq " << key.second;
    EXPECT_TRUE(bit_identical(it->second, d))
        << "vehicle " << key.first << " seq " << key.second;
  }
}

// ---- in-process kill-point sweep ------------------------------------------

TEST(RecoveryPropertyTest, AnyKillPointAnyThreadCountReplaysBitIdentical) {
  constexpr std::size_t kEvents = 120;
  const std::vector<StopEvent> events = fleet_schedule(kEvents, 7);
  const DecisionMap want = reference_stream(events);

  for (const int threads : {1, 2, 8}) {
    for (const std::size_t kill : {std::size_t{0}, std::size_t{5},
                                   std::size_t{23}, std::size_t{57},
                                   std::size_t{99}, kEvents}) {
      std::ostringstream tag;
      tag << "t" << threads << "_k" << kill;
      const std::string dir = fresh_dir(tag.str());
      DecisionMap got;

      {
        // Phase 1: run until the kill point, then "crash" — the service
        // is destroyed without shutdown or checkpoint; only what the WAL
        // flushed per batch survives, like a SIGKILL at a batch boundary.
        DecisionService svc(durable_config(dir, threads));
        std::vector<Decision> out;
        for (std::size_t i = 0; i < kill; ++i) {
          ASSERT_EQ(svc.submit(events[i]), Admit::kAccepted);
          if ((i + 1) % 4 == 0) svc.pump(out);
        }
        merge(got, out);
        if (HasFatalFailure()) return;
      }

      // Phase 2: recover. Replayed decisions re-derive whatever was
      // durable but possibly unseen; they must agree with phase 1 where
      // they overlap.
      auto recovered = DecisionService::recover(durable_config(dir, threads));
      merge(got, recovered.replayed);
      if (HasFatalFailure()) return;

      // Phase 3: the resume handshake — feed everything the recovered
      // service reports as not yet applied.
      std::vector<Decision> out;
      std::size_t i = 0;
      for (const StopEvent& e : events) {
        if (e.seq <= recovered.service->last_applied_seq(e.vehicle)) continue;
        ASSERT_EQ(recovered.service->submit(e), Admit::kAccepted);
        if (++i % 4 == 0) recovered.service->pump(out);
      }
      recovered.service->drain_all(out);
      merge(got, out);
      if (HasFatalFailure()) return;

      expect_equal(got, want);
      if (HasFatalFailure()) return;
    }
  }
}

// ---- fork + SIGKILL -------------------------------------------------------

std::string decisions_log_path(const std::string& dir) {
  return dir + "/decisions.log";
}

void append_decisions(const std::string& path,
                      const std::vector<Decision>& decisions) {
  std::ofstream out(path, std::ios::app);
  for (const Decision& d : decisions)
    out << d.vehicle << ' ' << d.seq << ' ' << static_cast<int>(d.outcome)
        << ' ' << static_cast<int>(d.rung) << ' ' << encode_bits(d.threshold)
        << '\n';
  out.flush();
}

// Parse the child's decision log, skipping a torn final line.
std::vector<Decision> read_decisions_log(const std::string& path) {
  std::vector<Decision> decisions;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Decision d;
    int outcome = 0;
    int rung = 0;
    std::string bits;
    if (!(fields >> d.vehicle >> d.seq >> outcome >> rung >> bits) ||
        bits.size() != 16)
      break;
    d.outcome = static_cast<Outcome>(outcome);
    d.rung = static_cast<robust::ControllerMode>(rung);
    try {
      d.threshold = decode_bits(bits);
    } catch (const std::runtime_error&) {
      break;  // torn inside the hex field
    }
    decisions.push_back(d);
  }
  return decisions;
}

// Child body: stream the schedule with pacing so the parent can land a
// SIGKILL mid-stream. Every decision reaching `out` is appended (and
// flushed) to the log — the "emitted to a consumer" boundary the
// durability contract is stated over.
[[noreturn]] void run_child(const std::string& dir,
                            const std::vector<StopEvent>& events,
                            int threads) {
  DecisionService svc(durable_config(dir, threads));
  std::vector<Decision> out;
  std::size_t i = 0;
  for (const StopEvent& e : events) {
    svc.submit(e);
    if (++i % 3 == 0) {
      out.clear();
      svc.pump(out);
      append_decisions(decisions_log_path(dir), out);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  out.clear();
  svc.drain_all(out);
  append_decisions(decisions_log_path(dir), out);
  _exit(0);
}

TEST(CrashKillTest, SigkillMidStreamThenRecoverEmitsBitIdenticalDecisions) {
  constexpr std::size_t kEvents = 3000;
  const std::vector<StopEvent> events = fleet_schedule(kEvents, 11);
  const DecisionMap want = reference_stream(events);

  for (const int threads : {1, 2, 8}) {
    const std::string dir =
        fresh_dir("sigkill_t" + std::to_string(threads));

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) run_child(dir, events, threads);  // never returns

    // Let the child make real progress, then kill it dead — no handlers,
    // no destructors, no flushes beyond what already hit the OS.
    const std::string log = decisions_log_path(dir);
    for (int spin = 0; spin < 5000; ++spin) {
      std::error_code ec;
      if (fs::exists(log, ec) && fs::file_size(log, ec) > 2048) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child finished before the kill landed; nothing was tested";

    DecisionMap got;
    merge(got, read_decisions_log(log));
    if (HasFatalFailure()) return;

    auto recovered = DecisionService::recover(durable_config(dir, threads));
    merge(got, recovered.replayed);
    if (HasFatalFailure()) return;

    std::vector<Decision> out;
    std::size_t i = 0;
    for (const StopEvent& e : events) {
      if (e.seq <= recovered.service->last_applied_seq(e.vehicle)) continue;
      ASSERT_EQ(recovered.service->submit(e), Admit::kAccepted);
      if (++i % 4 == 0) recovered.service->pump(out);
    }
    recovered.service->drain_all(out);
    merge(got, out);
    if (HasFatalFailure()) return;

    expect_equal(got, want);
    if (HasFatalFailure()) return;
  }
}

// A second crash immediately after recovery must also be harmless: the
// post-recovery checkpoint compacted the WAL, so a recover-recover chain
// replays nothing twice.
TEST(RecoveryPropertyTest, DoubleRecoveryIsIdempotent) {
  const std::vector<StopEvent> events = fleet_schedule(60, 5);
  const DecisionMap want = reference_stream(events);
  const std::string dir = fresh_dir("double");

  DecisionMap got;
  {
    DecisionService svc(durable_config(dir, 2));
    std::vector<Decision> out;
    std::size_t i = 0;
    for (const StopEvent& e : events) {
      svc.submit(e);
      if (++i % 4 == 0) svc.pump(out);
    }
    merge(got, out);  // crash before the final drain
    if (HasFatalFailure()) return;
  }

  auto first = DecisionService::recover(durable_config(dir, 2));
  merge(got, first.replayed);
  first.service.reset();  // crash again, right after recovery

  auto second = DecisionService::recover(durable_config(dir, 2));
  EXPECT_TRUE(second.replayed.empty())
      << "post-recovery checkpoint should have compacted the WAL";

  std::vector<Decision> out;
  for (const StopEvent& e : events) {
    if (e.seq <= second.service->last_applied_seq(e.vehicle)) continue;
    ASSERT_EQ(second.service->submit(e), Admit::kAccepted);
  }
  second.service->drain_all(out);
  merge(got, out);
  if (HasFatalFailure()) return;
  expect_equal(got, want);
}

TEST(RecoveryTest, MetaMismatchIsRefused) {
  const std::string dir = fresh_dir("meta_mismatch");
  {
    DecisionService svc(durable_config(dir, 1));
    std::vector<Decision> out;
    svc.submit(fleet_schedule(1, 1)[0]);
    svc.drain_all(out);
  }
  ServeConfig other = durable_config(dir, 1);
  other.seed = 999;  // different identity: decisions would diverge
  EXPECT_THROW(DecisionService::recover(other), std::runtime_error);
  ServeConfig missing = durable_config(fresh_dir("no_meta"), 1);
  EXPECT_THROW(DecisionService::recover(missing), std::runtime_error);
}

// ---- snapshot determinism and recovery at fleet scale --------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

std::vector<std::string> snapshot_bytes(const std::string& dir,
                                        std::size_t shards) {
  std::vector<std::string> bytes;
  for (std::size_t s = 0; s < shards; ++s)
    bytes.push_back(read_bytes(snapshot_path(dir, s)));
  return bytes;
}

void feed(DecisionService& svc, const std::vector<StopEvent>& events) {
  std::vector<Decision> out;
  std::size_t i = 0;
  for (const StopEvent& e : events) {
    ASSERT_EQ(svc.submit(e), Admit::kAccepted);
    if (++i % 4 == 0) svc.pump(out);
  }
  svc.drain_all(out);
}

// The state table iterates in arrival order; the snapshot must not. Two
// services see the same per-vehicle event sequences, interleaved
// differently (round-robin vs vehicle-major, last vehicle first), and must
// write byte-identical snapshots — before and after a recovery.
TEST(SnapshotDeterminismTest, BytesDoNotDependOnArrivalOrder) {
  const std::vector<StopEvent> round_robin = fleet_schedule(400, 23);
  std::vector<StopEvent> vehicle_major = round_robin;
  std::stable_sort(vehicle_major.begin(), vehicle_major.end(),
                   [](const StopEvent& a, const StopEvent& b) {
                     return a.vehicle > b.vehicle;
                   });
  ASSERT_NE(round_robin.front().vehicle, vehicle_major.front().vehicle);

  const std::string dir_a = fresh_dir("order_a");
  const std::string dir_b = fresh_dir("order_b");
  ServeConfig cfg_a = durable_config(dir_a, 2);
  ServeConfig cfg_b = durable_config(dir_b, 2);
  cfg_a.snapshot_every = cfg_b.snapshot_every = 0;  // checkpoint once, below
  std::vector<std::string> before;
  {
    DecisionService a(cfg_a);
    DecisionService b(cfg_b);
    feed(a, round_robin);
    feed(b, vehicle_major);
    if (HasFatalFailure()) return;
    a.checkpoint();
    b.checkpoint();
    before = snapshot_bytes(dir_a, cfg_a.num_shards);
    EXPECT_EQ(before, snapshot_bytes(dir_b, cfg_b.num_shards));
  }

  auto ra = DecisionService::recover(cfg_a);
  auto rb = DecisionService::recover(cfg_b);
  EXPECT_TRUE(ra.replayed.empty());
  EXPECT_TRUE(rb.replayed.empty());
  ra.service->checkpoint();
  rb.service->checkpoint();
  EXPECT_EQ(snapshot_bytes(dir_a, cfg_a.num_shards), before);
  EXPECT_EQ(snapshot_bytes(dir_b, cfg_b.num_shards), before);
}

struct ShardView {
  std::size_t tracked = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t applied = 0;
};

std::vector<ShardView> shard_views(const DecisionService& svc) {
  std::vector<ShardView> views;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    const Shard& shard = svc.shard(s);
    util::ScopedAssumeRole role(shard.pump_role());  // quiesced service
    views.push_back(
        {shard.vehicles_tracked(), shard.quarantined_vehicles(),
         shard.applied()});
  }
  return views;
}

// 100K vehicles: a checkpoint, a WAL tail that quarantines vehicles and
// adds new ones, a crash, then recovery — which rebuilds each shard's
// state table from scratch, growing it through every doubling. The
// recovered shards must track exactly the pre-crash vehicle set.
TEST(RecoveryScaleTest, HundredThousandVehiclesRecoverExactly) {
  constexpr std::uint64_t kVehicles = 100000;
  constexpr std::uint64_t kNew = 5000;  // first seen in the WAL tail
  const std::string dir = fresh_dir("scale");
  ServeConfig cfg = durable_config(dir, 1);
  cfg.num_shards = 4;
  cfg.queue_capacity = 4096;
  cfg.drain_batch = 1024;
  cfg.snapshot_every = 0;

  // One stop per vehicle; vehicles 0 mod 1000 are poisoned into
  // quarantine before the checkpoint, 500 mod 1000 after it.
  const auto stop = [](std::uint64_t v, std::uint64_t seq, bool poison) {
    StopEvent e;
    e.vehicle = v;
    e.seq = seq;
    e.timestamp_s = static_cast<double>(seq);
    e.stop_length_s = poison ? kNan : 10.0 + static_cast<double>(v % 89);
    return e;
  };
  std::vector<StopEvent> head;
  std::vector<StopEvent> tail;
  for (std::uint64_t v = 1; v <= kVehicles; ++v) {
    const bool poison_head = v % 1000 == 0;
    for (std::uint64_t seq = 1; seq <= (poison_head ? 4 : 1); ++seq)
      head.push_back(stop(v, seq, poison_head));
    if (v % 1000 == 500) {
      for (std::uint64_t seq = 2; seq <= 5; ++seq)
        tail.push_back(stop(v, seq, true));
    } else if (v % 97 == 0) {
      tail.push_back(stop(v, poison_head ? 5 : 2, false));
    }
  }
  for (std::uint64_t v = kVehicles + 1; v <= kVehicles + kNew; ++v)
    tail.push_back(stop(v, 1, false));

  std::vector<ShardView> want;
  std::vector<std::uint64_t> want_seq;
  {
    DecisionService svc(cfg);
    std::vector<Decision> out;
    const auto run = [&](const std::vector<StopEvent>& events) {
      for (const StopEvent& e : events) {
        while (svc.submit(e) == Admit::kRejectedQueueFull) {
          out.clear();
          svc.pump(out);
        }
      }
      out.clear();
      svc.drain_all(out);
    };
    run(head);
    svc.checkpoint();
    run(tail);
    want = shard_views(svc);
    for (std::uint64_t v = 1; v <= kVehicles + kNew + 1; ++v)
      want_seq.push_back(svc.last_applied_seq(v));
  }  // crash: no shutdown, no final checkpoint

  std::uint64_t tracked = 0;
  std::uint64_t quarantined = 0;
  for (const ShardView& w : want) {
    tracked += w.tracked;
    quarantined += w.quarantined;
  }
  ASSERT_EQ(tracked, kVehicles + kNew);
  ASSERT_EQ(quarantined, 2 * kVehicles / 1000);

  auto recovered = DecisionService::recover(cfg);
  EXPECT_EQ(recovered.replayed.size(), tail.size());
  const std::vector<ShardView> got = shard_views(*recovered.service);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].tracked, want[s].tracked) << "shard " << s;
    EXPECT_EQ(got[s].quarantined, want[s].quarantined) << "shard " << s;
    EXPECT_EQ(got[s].applied, want[s].applied) << "shard " << s;
  }
  std::size_t mismatched = 0;
  for (std::uint64_t v = 1; v <= kVehicles + kNew + 1; ++v)
    if (recovered.service->last_applied_seq(v) != want_seq[v - 1])
      ++mismatched;
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(want_seq.back(), 0u);  // one id past the fleet: never seen
}

}  // namespace
}  // namespace idlered::serve
