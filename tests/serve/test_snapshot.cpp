#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace idlered::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "idlered_snap_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(BitEncodingTest, RoundTripsExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           0.1,
                           1e-308,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    const double back = decode_bits(encode_bits(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << "value " << v;
  }
}

TEST(BitEncodingTest, RejectsMalformedPatterns) {
  EXPECT_THROW(decode_bits(""), std::runtime_error);
  EXPECT_THROW(decode_bits("xyz"), std::runtime_error);
  EXPECT_THROW(decode_bits("0123"), std::runtime_error);  // wrong length
}

TEST(MetaTest, RoundTripAndAbsence) {
  const std::string dir = fresh_dir("meta");
  EXPECT_FALSE(read_meta(dir).has_value());
  ServeMeta meta;
  meta.num_shards = 7;
  meta.break_even = 61.25;
  meta.seed = 0xdeadbeefULL;
  meta.warmup_stops = 12;
  write_meta(dir, meta);
  const auto back = read_meta(dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_shards, 7u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back->break_even),
            std::bit_cast<std::uint64_t>(61.25));
  EXPECT_EQ(back->seed, 0xdeadbeefULL);
  EXPECT_EQ(back->warmup_stops, 12u);
}

TEST(MetaTest, CorruptFileThrows) {
  const std::string dir = fresh_dir("meta_bad");
  std::ofstream(meta_path(dir)) << "not a meta file\n";
  EXPECT_THROW(read_meta(dir), std::runtime_error);
}

ShardSnap sample_snap() {
  ShardSnap snap;
  snap.cursor = 41;
  VehicleSnap v;
  v.vehicle = 0x12345678ULL;
  v.last_seq = 9;
  v.count = 5;
  v.long_count = 2;
  v.short_sum = 123.456789;
  v.guard.counts.accepted = 5;
  v.guard.counts.non_finite = 1;
  v.guard.counts.out_of_order = 2;
  v.guard.last_value = 17.25;
  v.guard.run_length = 3;
  v.guard.last_timestamp = 99.5;
  v.guard.has_timestamp = true;
  v.strikes = 1;
  v.quarantined = false;
  snap.vehicles.push_back(v);
  v.vehicle = 0x9abcdef0ULL;  // ids strictly increasing, as the writer needs
  v.quarantined = true;
  snap.vehicles.push_back(v);
  return snap;
}

TEST(ShardSnapshotTest, RoundTripsEveryField) {
  const std::string dir = fresh_dir("snap");
  EXPECT_FALSE(read_shard_snapshot(dir, 0).has_value());
  write_shard_snapshot(dir, 0, sample_snap());
  const auto back = read_shard_snapshot(dir, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cursor, 41u);
  ASSERT_EQ(back->vehicles.size(), 2u);
  const VehicleSnap& v = back->vehicles[0];
  EXPECT_EQ(v.vehicle, 0x12345678ULL);
  EXPECT_EQ(v.last_seq, 9u);
  EXPECT_EQ(v.count, 5u);
  EXPECT_EQ(v.long_count, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.short_sum),
            std::bit_cast<std::uint64_t>(123.456789));
  EXPECT_EQ(v.guard.counts.accepted, 5u);
  EXPECT_EQ(v.guard.counts.non_finite, 1u);
  EXPECT_EQ(v.guard.counts.out_of_order, 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v.guard.last_value),
            std::bit_cast<std::uint64_t>(17.25));
  EXPECT_EQ(v.guard.run_length, 3u);
  EXPECT_TRUE(v.guard.has_timestamp);
  EXPECT_EQ(v.strikes, 1u);
  EXPECT_FALSE(v.quarantined);
  EXPECT_TRUE(back->vehicles[1].quarantined);
}

TEST(ShardSnapshotTest, TruncatedSnapshotIsRejectedNotMisread) {
  const std::string dir = fresh_dir("snap_torn");
  write_shard_snapshot(dir, 0, sample_snap());
  // Chop the end marker off — the situation after a kill mid-write if the
  // write were not atomic. The reader must refuse rather than return a
  // half-loaded shard.
  const std::string path = snapshot_path(dir, 0);
  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    body.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << body.substr(0, body.size() - 5);
  EXPECT_THROW(read_shard_snapshot(dir, 0), std::runtime_error);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// Rewrites the snapshot's two vehicle lines (lines 3 and 4) as
// `first`, `second`, chosen from the original pair by index.
void rewrite_vehicle_lines(const std::string& path, int first, int second) {
  const std::string body = read_file(path);
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < body.size()) {
    const std::size_t nl = body.find('\n', at);
    lines.push_back(body.substr(at, nl + 1 - at));
    at = nl + 1;
  }
  ASSERT_EQ(lines.size(), 6u);  // magic, cursor, vehicles, v, v, end
  const std::string v[2] = {lines[3], lines[4]};
  lines[3] = v[first];
  lines[4] = v[second];
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line;
}

void expect_rejected_for_order(const std::string& dir) {
  try {
    read_shard_snapshot(dir, 0);
    ADD_FAILURE() << "snapshot with misordered ids was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("strictly increasing"),
              std::string::npos)
        << e.what();
  }
}

// A duplicated vehicle line (count still matching the header) would
// otherwise restore as two live entries for one vehicle.
TEST(ShardSnapshotTest, DuplicatedVehicleLineIsRejected) {
  const std::string dir = fresh_dir("snap_dup");
  write_shard_snapshot(dir, 0, sample_snap());
  rewrite_vehicle_lines(snapshot_path(dir, 0), 0, 0);
  if (HasFatalFailure()) return;
  expect_rejected_for_order(dir);
}

TEST(ShardSnapshotTest, SwappedVehicleLinesAreRejected) {
  const std::string dir = fresh_dir("snap_swap");
  write_shard_snapshot(dir, 0, sample_snap());
  rewrite_vehicle_lines(snapshot_path(dir, 0), 1, 0);
  if (HasFatalFailure()) return;
  expect_rejected_for_order(dir);
}

TEST(ShardSnapshotTest, WriterRefusesUnsortedIds) {
  const std::string dir = fresh_dir("snap_unsorted");
  ShardSnap snap = sample_snap();
  std::swap(snap.vehicles[0], snap.vehicles[1]);
  util::contracts::ScopedMode mode(util::contracts::Mode::kThrow);
  EXPECT_THROW(write_shard_snapshot(dir, 0, snap),
               util::contracts::ContractViolation);
  EXPECT_FALSE(read_shard_snapshot(dir, 0).has_value());
}

WalRecord rec(std::uint64_t index, std::uint64_t seq) {
  WalRecord r;
  r.index = index;
  r.event.vehicle = 3;
  r.event.seq = seq;
  r.event.timestamp_s = static_cast<double>(seq) + 0.5;
  r.event.stop_length_s = 42.125;
  r.ceiling = robust::ControllerMode::kDet;
  return r;
}

TEST(WalTest, AppendFlushReadRoundTrip) {
  const std::string dir = fresh_dir("wal");
  WalWriter w;
  w.open(dir, 0, /*truncate=*/true);
  for (std::uint64_t i = 1; i <= 5; ++i) w.append(rec(i, i));
  w.flush();
  const auto records = read_wal(dir, 0);
  ASSERT_EQ(records.size(), 5u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(records[i - 1].index, i);
    EXPECT_EQ(records[i - 1].event.seq, i);
    EXPECT_EQ(records[i - 1].ceiling, robust::ControllerMode::kDet);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(records[i - 1].event.stop_length_s),
              std::bit_cast<std::uint64_t>(42.125));
  }
}

TEST(WalTest, UnflushedRecordsAreNotDurable) {
  const std::string dir = fresh_dir("wal_buf");
  WalWriter w;
  w.open(dir, 0, /*truncate=*/true);
  w.append(rec(1, 1));
  EXPECT_TRUE(read_wal(dir, 0).empty());  // still buffered
  w.flush();
  EXPECT_EQ(read_wal(dir, 0).size(), 1u);
}

TEST(WalTest, TornTailIsDroppedEarlierRecordsSurvive) {
  const std::string dir = fresh_dir("wal_torn");
  WalWriter w;
  w.open(dir, 0, /*truncate=*/true);
  for (std::uint64_t i = 1; i <= 3; ++i) w.append(rec(i, i));
  w.flush();
  // Simulate a SIGKILL mid-write: truncate the file inside the last line.
  const std::string path = wal_path(dir, 0);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 7);
  const auto records = read_wal(dir, 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].index, 2u);
}

TEST(WalTest, ChecksumFailureStopsTheReplay) {
  const std::string dir = fresh_dir("wal_bitrot");
  WalWriter w;
  w.open(dir, 0, /*truncate=*/true);
  for (std::uint64_t i = 1; i <= 3; ++i) w.append(rec(i, i));
  w.flush();
  // Flip one byte in the middle record's body.
  const std::string path = wal_path(dir, 0);
  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    body.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t first_nl = body.find('\n');
  body[first_nl + 3] = body[first_nl + 3] == '0' ? '1' : '0';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << body;
  // Only the intact prefix is replayed; nothing after the corrupt line.
  EXPECT_EQ(read_wal(dir, 0).size(), 1u);
}

TEST(WalTest, ResetTruncates) {
  const std::string dir = fresh_dir("wal_reset");
  WalWriter w;
  w.open(dir, 0, /*truncate=*/true);
  w.append(rec(1, 1));
  w.flush();
  w.reset();
  EXPECT_TRUE(read_wal(dir, 0).empty());
}

}  // namespace
}  // namespace idlered::serve
