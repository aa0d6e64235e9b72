// VehicleTable: the shard's open-addressed vehicle-state index.
//
// The table is only ever fed the ids that route to one shard, so the key
// set here is the same: ids whose util::mix64 is 0 mod 4 (shard 0 of 4),
// which leaves the low bits of the hash constant.
#include "serve/vehicle_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "serve/shard.h"
#include "util/random.h"

namespace idlered::serve {
namespace {

// A value type without a default constructor, like VehicleState.
struct Payload {
  explicit Payload(std::uint64_t x) : value(x), check(~x) {}
  std::uint64_t value;
  std::uint64_t check;
};

using Table = VehicleTable<Payload>;

std::vector<std::uint64_t> shard_keys(std::size_t n, std::uint64_t start = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t id = start; keys.size() < n; ++id)
    if (util::mix64(id) % 4 == 0) keys.push_back(id);
  return keys;
}

// Home slot as the table defines it: the top log2(capacity) bits of mix64.
std::size_t home_of(std::uint64_t id, std::size_t capacity) {
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < capacity) ++bits;
  return static_cast<std::size_t>(util::mix64(id) >> (64 - bits));
}

TEST(VehicleTableTest, EmptyTableLookupsAreSafe) {
  Table table;
  const Table& ro = table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  for (const std::uint64_t id : {std::uint64_t{0}, std::uint64_t{1},
                                 ~std::uint64_t{0}}) {
    EXPECT_EQ(table.find(id), nullptr);
    EXPECT_EQ(ro.find(id), nullptr);
  }
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t, const Payload&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(VehicleTableTest, ShardRoutedKeysSitNearTheirHomeSlots) {
  const std::vector<std::uint64_t> keys = shard_keys(20000);
  VehicleTable<VehicleState> table;
  const robust::GuardConfig guard;
  for (const std::uint64_t id : keys) {
    const auto [state, inserted] = table.try_emplace(id, 60.0, guard);
    ASSERT_TRUE(inserted);
    state->last_seq = id;
  }
  ASSERT_EQ(table.size(), keys.size());
  ASSERT_EQ(table.capacity(), 65536u);  // load 0.305
  double total = 0.0;
  std::size_t at_home = 0;
  for (const std::uint64_t id : keys) {
    const VehicleState* state = table.find(id);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->last_seq, id);
    const std::size_t d = table.displacement(id);
    total += static_cast<double>(d);
    at_home += d == 0 ? 1 : 0;
  }
  // Uniform homes under linear probing at this load: mean displacement
  // about (1/(1-a) - 1)/2 = 0.22, with ~85% of keys in their home slot.
  // Homes from the low bits (constant inside a shard) could only land on
  // every 4th slot: measured 0.62 and 58% for these keys.
  const double n = static_cast<double>(keys.size());
  EXPECT_LT(total / n, 0.35);
  EXPECT_GT(static_cast<double>(at_home) / n, 0.75);
}

TEST(VehicleTableTest, GrowsAcrossDoublingsAndChunkBoundaries) {
  const std::size_t n = 5 * Table::kChunkEntries + 17;
  const std::vector<std::uint64_t> keys = shard_keys(n);
  Table table;
  std::size_t capacity = 0;
  std::size_t doublings = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table.try_emplace(keys[i], keys[i]).second);
    if (table.capacity() != capacity) {
      if (capacity != 0) {
        EXPECT_EQ(table.capacity(), 2 * capacity);
        ++doublings;
      }
      capacity = table.capacity();
    }
    EXPECT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_GE(doublings, 8u);
  for (std::size_t i = 0; i < n; ++i) {
    const Payload* p = table.find(keys[i]);
    ASSERT_NE(p, nullptr) << "key " << i;
    EXPECT_EQ(p->value, keys[i]);
    EXPECT_EQ(p->check, ~keys[i]);
  }
  // A second emplace finds the existing entry and leaves it alone.
  const auto again = table.try_emplace(keys[3], 0);
  EXPECT_FALSE(again.second);
  EXPECT_EQ(again.first->value, keys[3]);
  EXPECT_EQ(table.size(), n);
}

TEST(VehicleTableTest, ProbeWrapsAroundTheEndOfTheSlotArray) {
  Table table;
  table.try_emplace(shard_keys(1)[0], 0);
  const std::size_t capacity = table.capacity();
  ASSERT_GT(capacity, 0u);
  // Three ids homed on the last slot, and one homed on slot 0.
  std::vector<std::uint64_t> last;
  std::uint64_t first = 0;
  for (std::uint64_t id = 1000; last.size() < 3 || first == 0; ++id) {
    const std::size_t home = home_of(id, capacity);
    if (home == capacity - 1 && last.size() < 3)
      last.push_back(id);
    if (home == 0 && first == 0) first = id;
  }
  table.clear();
  for (const std::uint64_t id : last) table.try_emplace(id, id);
  table.try_emplace(first, first);
  ASSERT_EQ(table.capacity(), capacity);  // no growth reshuffled the slots
  EXPECT_EQ(table.displacement(last[0]), 0u);
  EXPECT_EQ(table.displacement(last[1]), 1u);  // wrapped to slot 0
  EXPECT_EQ(table.displacement(last[2]), 2u);  // wrapped to slot 1
  EXPECT_EQ(table.displacement(first), 2u);    // pushed past both
  for (const std::uint64_t id : last) {
    ASSERT_NE(table.find(id), nullptr);
    EXPECT_EQ(table.find(id)->value, id);
  }
  EXPECT_EQ(table.find(first)->value, first);
  // A miss homed on the last slot probes across the wrap to an empty slot.
  for (std::uint64_t id = 1; id < 100000; ++id) {
    if (home_of(id, capacity) != capacity - 1) continue;
    if (id == last[0] || id == last[1] || id == last[2]) continue;
    EXPECT_EQ(table.find(id), nullptr);
    break;
  }
}

TEST(VehicleTableTest, FoundPointerSurvivesTenThousandInserts) {
  Table table;
  const std::vector<std::uint64_t> keys = shard_keys(10001);
  Payload* const kept = table.try_emplace(keys[0], 7).first;
  ASSERT_EQ(table.find(keys[0]), kept);
  for (std::size_t i = 1; i < keys.size(); ++i)
    table.try_emplace(keys[i], keys[i]);
  EXPECT_EQ(table.find(keys[0]), kept);
  EXPECT_EQ(kept->value, 7u);
  EXPECT_EQ(kept->check, ~std::uint64_t{7});
  kept->value = 99;
  EXPECT_EQ(table.find(keys[0])->value, 99u);
}

TEST(VehicleTableTest, ClearThenReinsert) {
  Table table;
  const std::vector<std::uint64_t> keys = shard_keys(3000);
  for (const std::uint64_t id : keys) table.try_emplace(id, id);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  for (const std::uint64_t id : keys) EXPECT_EQ(table.find(id), nullptr);
  for (std::size_t i = 0; i < keys.size(); i += 2)
    EXPECT_TRUE(table.try_emplace(keys[i], i).second);
  EXPECT_EQ(table.size(), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Payload* p = table.find(keys[i]);
    if (i % 2 == 0) {
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->value, i);
    } else {
      EXPECT_EQ(p, nullptr);
    }
  }
}

TEST(VehicleTableTest, MatchesStdMapUnderRandomFindAndInsert) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    // Shard-routed ids plus a slice of unrouted ones, so hits and misses
    // both come up often.
    std::vector<std::uint64_t> universe = shard_keys(6000);
    for (std::uint64_t id = 0; id < 2000; ++id) universe.push_back(id);
    Table table;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (int op = 0; op < 60000; ++op) {
      const std::uint64_t id = universe[rng() % universe.size()];
      if (rng() % 5 < 3) {
        const Payload* p = table.find(id);
        const auto it = oracle.find(id);
        ASSERT_EQ(p != nullptr, it != oracle.end()) << "seed " << seed;
        if (p != nullptr) {
          ASSERT_EQ(p->value, it->second);
        }
      } else {
        const std::uint64_t fresh = rng();
        const auto [p, inserted] = table.try_emplace(id, fresh);
        const auto [it, oracle_inserted] = oracle.try_emplace(id, fresh);
        ASSERT_EQ(inserted, oracle_inserted) << "seed " << seed;
        ASSERT_EQ(p->value, it->second);
        p->value += 1;  // mutate through the returned pointer
        it->second += 1;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
    std::map<std::uint64_t, std::uint64_t> seen;
    table.for_each([&](std::uint64_t id, const Payload& p) {
      EXPECT_TRUE(seen.emplace(id, p.value).second) << "id twice: " << id;
    });
    EXPECT_EQ(seen, oracle);
  }
}

}  // namespace
}  // namespace idlered::serve
