#include "serve/snapshot.h"

#include "util/bits.h"
#include "util/contracts.h"
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace idlered::serve {

namespace {

namespace fs = std::filesystem;

constexpr char kMetaMagic[] = "idlered-serve-meta v1";
constexpr char kSnapMagic[] = "idlered-serve-snap v1";

std::string shard_file(const std::string& dir, std::size_t shard,
                       const char* ext) {
  std::ostringstream os;
  os << dir << "/shard_" << shard << ext;
  return os.str();
}

// Checksums and hex codecs come from util/bits.h — the audited,
// UBSan-clean home for every bit-level conversion in the tree.
using util::fnv1a64;
using util::parse_hex64;
using util::to_hex64;

// Replace the target atomically: write everything to a sibling temp file,
// flush, then rename over the destination. A kill mid-write leaves the old
// file untouched.
void write_atomically(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("serve: cannot open " + tmp);
    out << body;
    out.flush();
    if (!out) throw std::runtime_error("serve: write failed on " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("serve: rename " + tmp + " -> " + path +
                             " failed: " + ec.message());
}

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw std::runtime_error("serve: corrupt file " + path + ": " + why);
}

}  // namespace

std::string meta_path(const std::string& dir) { return dir + "/meta"; }

std::string snapshot_path(const std::string& dir, std::size_t shard) {
  return shard_file(dir, shard, ".snap");
}

std::string wal_path(const std::string& dir, std::size_t shard) {
  return shard_file(dir, shard, ".wal");
}

std::string encode_bits(double value) {
  return util::encode_double_bits(value);
}

double decode_bits(const std::string& hex) {
  std::uint64_t bits = 0;
  if (hex.size() != 16 || !parse_hex64(hex, bits))
    throw std::runtime_error("serve: bad double bit pattern '" + hex + "'");
  return util::bit_cast<double>(bits);
}

void write_meta(const std::string& dir, const ServeMeta& meta) {
  std::ostringstream os;
  os << kMetaMagic << '\n'
     << "shards " << meta.num_shards << '\n'
     << "break_even " << encode_bits(meta.break_even) << '\n'
     << "seed " << to_hex64(meta.seed) << '\n'
     << "warmup " << meta.warmup_stops << '\n'
     << "end\n";
  write_atomically(meta_path(dir), os.str());
}

std::optional<ServeMeta> read_meta(const std::string& dir) {
  const std::string path = meta_path(dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  std::string line;
  if (!std::getline(in, line) || line != kMetaMagic)
    corrupt(path, "bad magic");

  ServeMeta meta;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key, value;
    if (!(fields >> key >> value)) corrupt(path, "malformed line");
    if (key == "shards") {
      meta.num_shards = static_cast<std::size_t>(std::stoull(value));
    } else if (key == "break_even") {
      meta.break_even = decode_bits(value);
    } else if (key == "seed") {
      if (!parse_hex64(value, meta.seed)) corrupt(path, "bad seed");
    } else if (key == "warmup") {
      meta.warmup_stops = static_cast<std::size_t>(std::stoull(value));
    } else {
      corrupt(path, "unknown key '" + key + "'");
    }
  }
  if (!saw_end) corrupt(path, "missing end marker");
  return meta;
}

void write_shard_snapshot(const std::string& dir, std::size_t shard,
                          const ShardSnap& snap) {
  for (std::size_t i = 1; i < snap.vehicles.size(); ++i)
    IDLERED_EXPECTS(snap.vehicles[i - 1].vehicle < snap.vehicles[i].vehicle,
                    "write_shard_snapshot: vehicle ids must be strictly "
                    "increasing");
  std::ostringstream os;
  os << kSnapMagic << '\n'
     << "cursor " << snap.cursor << '\n'
     << "vehicles " << snap.vehicles.size() << '\n';
  for (const VehicleSnap& v : snap.vehicles) {
    const robust::GuardCounts& c = v.guard.counts;
    os << "v " << to_hex64(v.vehicle) << ' ' << v.last_seq << ' ' << v.count
       << ' ' << v.long_count << ' ' << encode_bits(v.short_sum) << ' '
       << v.strikes << ' ' << (v.quarantined ? 1 : 0) << " g " << c.accepted
       << ' ' << c.non_finite << ' ' << c.negative << ' ' << c.out_of_range
       << ' ' << c.stuck << ' ' << c.out_of_order << ' ' << c.dropped << ' '
       << encode_bits(v.guard.last_value) << ' ' << v.guard.run_length << ' '
       << encode_bits(v.guard.last_timestamp) << ' '
       << (v.guard.has_timestamp ? 1 : 0) << '\n';
  }
  os << "end\n";
  write_atomically(snapshot_path(dir, shard), os.str());
}

std::optional<ShardSnap> read_shard_snapshot(const std::string& dir,
                                             std::size_t shard) {
  const std::string path = snapshot_path(dir, shard);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  std::string line;
  if (!std::getline(in, line) || line != kSnapMagic) corrupt(path, "bad magic");

  ShardSnap snap;
  std::size_t declared = 0;
  {
    std::string key;
    std::istringstream fields;
    if (!std::getline(in, line)) corrupt(path, "missing cursor");
    fields.str(line);
    if (!(fields >> key >> snap.cursor) || key != "cursor")
      corrupt(path, "bad cursor line");
    if (!std::getline(in, line)) corrupt(path, "missing vehicle count");
    fields.clear();
    fields.str(line);
    if (!(fields >> key >> declared) || key != "vehicles")
      corrupt(path, "bad vehicles line");
  }

  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string tag, vehicle_hex, short_bits, guard_tag, last_value_bits,
        last_ts_bits;
    VehicleSnap v;
    robust::GuardCounts& c = v.guard.counts;
    int quarantined = 0;
    int has_ts = 0;
    if (!(fields >> tag >> vehicle_hex >> v.last_seq >> v.count >>
          v.long_count >> short_bits >> v.strikes >> quarantined >>
          guard_tag >> c.accepted >> c.non_finite >> c.negative >>
          c.out_of_range >> c.stuck >> c.out_of_order >> c.dropped >>
          last_value_bits >> v.guard.run_length >> last_ts_bits >> has_ts) ||
        tag != "v" || guard_tag != "g")
      corrupt(path, "malformed vehicle line");
    if (!parse_hex64(vehicle_hex, v.vehicle)) corrupt(path, "bad vehicle id");
    // The writer emits ids strictly increasing; a repeated or out-of-order
    // id is damage, and restoring it would track one vehicle twice.
    if (!snap.vehicles.empty() && v.vehicle <= snap.vehicles.back().vehicle)
      corrupt(path, "vehicle ids not strictly increasing");
    v.short_sum = decode_bits(short_bits);
    v.guard.last_value = decode_bits(last_value_bits);
    v.guard.last_timestamp = decode_bits(last_ts_bits);
    v.quarantined = quarantined != 0;
    v.guard.has_timestamp = has_ts != 0;
    snap.vehicles.push_back(v);
  }
  if (!saw_end) corrupt(path, "missing end marker");
  if (snap.vehicles.size() != declared)
    corrupt(path, "vehicle count mismatch");
  return snap;
}

void WalWriter::open(const std::string& dir, std::size_t shard,
                     bool truncate) {
  path_ = wal_path(dir, shard);
  buffer_.clear();
  if (truncate) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("serve: cannot open " + path_);
  }
}

void WalWriter::append(const WalRecord& record) {
  std::ostringstream os;
  os << "e " << record.index << ' ' << to_hex64(record.event.vehicle) << ' '
     << record.event.seq << ' ' << encode_bits(record.event.timestamp_s)
     << ' ' << encode_bits(record.event.stop_length_s) << ' '
     << static_cast<int>(record.ceiling);
  const std::string body = os.str();
  buffer_ += body;
  buffer_ += ' ';
  buffer_ += to_hex64(fnv1a64(body));
  buffer_ += '\n';
  ++appended_;
}

void WalWriter::flush() {
  if (buffer_.empty()) return;
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("serve: cannot open " + path_);
  out << buffer_;
  out.flush();
  if (!out) throw std::runtime_error("serve: WAL flush failed on " + path_);
  buffer_.clear();
}

void WalWriter::reset() {
  buffer_.clear();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("serve: cannot open " + path_);
}

std::vector<WalRecord> read_wal(const std::string& dir, std::size_t shard) {
  std::vector<WalRecord> records;
  std::ifstream in(wal_path(dir, shard), std::ios::binary);
  if (!in) return records;

  std::string line;
  while (std::getline(in, line)) {
    // Everything after the last space is the checksum of everything before
    // it; any mismatch (including a line torn by a crash) ends the replay.
    const std::size_t split = line.rfind(' ');
    if (split == std::string::npos) break;
    const std::string body = line.substr(0, split);
    std::uint64_t stored = 0;
    if (!parse_hex64(line.substr(split + 1), stored) ||
        stored != fnv1a64(body))
      break;

    std::istringstream fields(body);
    std::string tag, vehicle_hex, ts_bits, len_bits;
    WalRecord rec;
    int ceiling = 0;
    if (!(fields >> tag >> rec.index >> vehicle_hex >> rec.event.seq >>
          ts_bits >> len_bits >> ceiling) ||
        tag != "e")
      break;
    if (!parse_hex64(vehicle_hex, rec.event.vehicle)) break;
    if (ceiling < 0 || ceiling > static_cast<int>(robust::ControllerMode::kNev))
      break;
    rec.event.timestamp_s = decode_bits(ts_bits);
    rec.event.stop_length_s = decode_bits(len_bits);
    rec.ceiling = static_cast<robust::ControllerMode>(ceiling);
    records.push_back(rec);
  }
  return records;
}

}  // namespace idlered::serve
