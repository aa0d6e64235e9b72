// Per-shard vehicle-state table: open addressing over chunked, never-moved
// entries.
//
// Every event a shard applies starts with a lookup of its vehicle's state,
// so this is the shard's hottest structure. Two parts:
//   * entries {id, value} are appended densely into fixed-size chunks of
//     kChunkEntries. A chunk is allocated once at full size and never
//     reallocated, so a pointer returned by find()/try_emplace() stays
//     valid until clear(), and growth adds one chunk — no copy of existing
//     states and no transient second array of them;
//   * a power-of-two slot array of uint32 dense positions indexes the
//     entries, with linear probing at a load factor of at most 1/2.
//
// The home slot comes from the *high* bits of util::mix64(id). The service
// routes a vehicle to shard mix64(id) % num_shards, so inside one shard the
// low bits of mix64 are (nearly) constant; indexing by them would crowd
// every key of the shard onto 1/num_shards of the slots.
//
// for_each() visits entries in insertion order, which depends on how
// events interleaved; a caller that needs a canonical order (the snapshot
// writer) sorts by id.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/contracts.h"
#include "util/random.h"

namespace idlered::serve {

template <typename V>
class VehicleTable {
 public:
  /// Entries per chunk; a power of two so a dense position splits into
  /// (chunk, offset) with a shift and a mask.
  static constexpr std::size_t kChunkEntries = 1024;

  std::size_t size() const { return size_; }
  /// Slot count (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  V* find(std::uint64_t id) {
    const std::uint32_t pos = position(id);
    return pos == kEmpty ? nullptr : &entry(pos).value;
  }
  const V* find(std::uint64_t id) const {
    const std::uint32_t pos = position(id);
    return pos == kEmpty ? nullptr : &entry(pos).value;
  }

  /// The value for `id`, constructing it from `args` if absent. Returns
  /// the value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(std::uint64_t id, Args&&... args) {
    std::size_t slot = 0;
    if (!slots_.empty()) {
      slot = probe(id);
      if (slots_[slot] != kEmpty) return {&entry(slots_[slot]).value, false};
    }
    IDLERED_EXPECTS(size_ < kEmpty,
                    "VehicleTable: a shard tracks fewer than UINT32_MAX "
                    "vehicles (slots hold uint32 dense positions)");
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      slot = probe(id);
    }
    if (size_ % kChunkEntries == 0) {
      chunks_.emplace_back();
      chunks_.back().reserve(kChunkEntries);
    }
    Entry& e = chunks_.back().emplace_back(id, std::forward<Args>(args)...);
    slots_[slot] = static_cast<std::uint32_t>(size_);
    ++size_;
    return {&e.value, true};
  }

  /// Calls f(id, value) for every entry, in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const std::vector<Entry>& chunk : chunks_)
      for (const Entry& e : chunk) f(e.id, e.value);
  }

  /// Drops every entry and releases all memory.
  void clear() { *this = VehicleTable(); }

  /// Slots between `id`'s home slot and the slot holding it (diagnostic:
  /// the probe cost of a lookup). Precondition: `id` is present.
  std::size_t displacement(std::uint64_t id) const {
    IDLERED_EXPECTS(position(id) != kEmpty,
                    "VehicleTable::displacement: id not present");
    return (probe(id) - home(id)) & (slots_.size() - 1);
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMinSlots = 16;

  struct Entry {
    template <typename... Args>
    explicit Entry(std::uint64_t key, Args&&... args)
        : id(key), value(std::forward<Args>(args)...) {}
    std::uint64_t id;
    V value;
  };

  Entry& entry(std::uint32_t pos) {
    return chunks_[pos / kChunkEntries][pos % kChunkEntries];
  }
  const Entry& entry(std::uint32_t pos) const {
    return chunks_[pos / kChunkEntries][pos % kChunkEntries];
  }

  /// Requires a non-empty slot array: shift_ is 64 - log2(slots) <= 60.
  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>(util::mix64(id) >> shift_);
  }

  /// The slot holding `id`, or the empty slot ending its probe sequence.
  /// Terminates because the load factor stays at most 1/2.
  std::size_t probe(std::uint64_t id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = home(id);
    while (slots_[slot] != kEmpty && entry(slots_[slot]).id != id)
      slot = (slot + 1) & mask;
    return slot;
  }

  /// Dense position of `id`, or kEmpty. An empty table has no slots (and
  /// no valid shift), so it answers without probing.
  std::uint32_t position(std::uint64_t id) const {
    return slots_.empty() ? kEmpty : slots_[probe(id)];
  }

  /// Double the slot array and re-index every entry; entries stay put.
  void grow() {
    const std::size_t slots =
        slots_.empty() ? kMinSlots : 2 * slots_.size();
    slots_.assign(slots, kEmpty);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t pos = 0; pos < size_; ++pos) {
      const auto p = static_cast<std::uint32_t>(pos);
      slots_[probe(entry(p).id)] = p;
    }
  }

  std::vector<std::vector<Entry>> chunks_;
  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace idlered::serve
