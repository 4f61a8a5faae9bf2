// The fleet's id table against std::unordered_map as the oracle: random
// insert / find / take sequences over sequential and strided ids, growth
// through several doublings, and probe chains that wrap past the end of
// the table, whose backward-shift erase is the delicate part.
#include "shard/id_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace tdmd::shard {
namespace {

using Table = IdTable<std::int64_t>;
using Oracle = std::unordered_map<std::uint64_t, std::int64_t>;

void ExpectSameContents(const Table& table, const Oracle& oracle,
                        const std::string& label) {
  ASSERT_EQ(table.size(), oracle.size()) << label;
  std::size_t visited = 0;
  table.ForEach([&](std::uint64_t id, std::int64_t value) {
    ++visited;
    const auto it = oracle.find(id);
    ASSERT_NE(it, oracle.end()) << label << ": stray id " << id;
    EXPECT_EQ(value, it->second) << label << ": id " << id;
  });
  EXPECT_EQ(visited, oracle.size()) << label;
  for (const auto& [id, value] : oracle) {
    const std::int64_t* found = table.Find(id);
    ASSERT_NE(found, nullptr) << label << ": lost id " << id;
    EXPECT_EQ(*found, value) << label << ": id " << id;
  }
}

/// Runs `steps` random operations over the ids k * stride, k = 0, 1, ...
void RunRandomOps(std::uint64_t seed, std::uint64_t stride,
                  std::size_t steps) {
  const std::string label =
      "seed " + std::to_string(seed) + " stride " + std::to_string(stride);
  Rng rng(seed);
  Table table;
  Oracle oracle;
  std::uint64_t next = 0;  // ids are handed out like fleet ids
  std::vector<std::uint64_t> handed_out;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5 || handed_out.empty()) {
      // Insert a fresh id, or re-insert one handed out before (refused
      // while live).
      const bool fresh = handed_out.empty() || rng.NextBounded(8) != 0;
      const std::uint64_t id =
          fresh ? next++ * stride
                : handed_out[static_cast<std::size_t>(
                      rng.NextBounded(handed_out.size()))];
      if (fresh) handed_out.push_back(id);
      const auto value = static_cast<std::int64_t>(rng.NextBounded(1000));
      const bool inserted = table.Insert(id, value);
      EXPECT_EQ(inserted, oracle.emplace(id, value).second)
          << label << " step " << step;
      EXPECT_LE(table.size() * 8, table.capacity() * 7)
          << label << ": load above 7/8 at step " << step;
    } else if (op < 8) {
      // Take a live or departed id.
      const std::uint64_t id = handed_out[static_cast<std::size_t>(
          rng.NextBounded(handed_out.size()))];
      std::int64_t value = -1;
      const bool taken = table.Take(id, &value);
      const auto it = oracle.find(id);
      ASSERT_EQ(taken, it != oracle.end()) << label << " step " << step;
      if (taken) {
        EXPECT_EQ(value, it->second) << label << " step " << step;
        oracle.erase(it);
      }
    } else {
      // Find a handed-out id or one never handed out.
      const std::uint64_t id =
          op == 8 ? handed_out[static_cast<std::size_t>(
                        rng.NextBounded(handed_out.size()))]
                  : next * stride + 1 + rng.NextBounded(stride);
      const std::int64_t* found = table.Find(id);
      const auto it = oracle.find(id);
      ASSERT_EQ(found != nullptr, it != oracle.end())
          << label << " step " << step;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second) << label << " step " << step;
      }
    }
    if (step % 1024 == 0) ExpectSameContents(table, oracle, label);
  }
  ExpectSameContents(table, oracle, label);
}

TEST(ShardIdTableTest, RandomOperationsMatchUnorderedMap) {
  // Sequential ids (the fleet's), strided ids whose low bits never vary,
  // and a stride past 2^32.
  for (const std::uint64_t stride :
       {std::uint64_t{1}, std::uint64_t{16}, std::uint64_t{1024},
        (std::uint64_t{1} << 32) + 7}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RunRandomOps(seed, stride, 20000);
    }
  }
}

TEST(ShardIdTableTest, GrowsThroughDoublingsAndDrainsToEmpty) {
  Table table;
  Oracle oracle;
  constexpr std::uint64_t kIds = 50000;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    ASSERT_TRUE(table.Insert(id, static_cast<std::int64_t>(id * 3)));
    oracle.emplace(id, static_cast<std::int64_t>(id * 3));
  }
  EXPECT_GE(table.capacity() * 7, kIds * 8);
  ExpectSameContents(table, oracle, "filled");
  // Depart every other id, then the rest in descending order.
  for (std::uint64_t id = 0; id < kIds; id += 2) {
    std::int64_t value = 0;
    ASSERT_TRUE(table.Take(id, &value));
    EXPECT_EQ(value, static_cast<std::int64_t>(id * 3));
    oracle.erase(id);
  }
  ExpectSameContents(table, oracle, "half departed");
  for (std::uint64_t id = kIds; id-- > 0;) {
    std::int64_t value = 0;
    EXPECT_EQ(table.Take(id, &value), id % 2 == 1) << id;
  }
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(1), nullptr);
}

/// The home slot of `id` in a table of 2^bits entries: the top bits of
/// its Fibonacci hash, as IdTable computes it.
std::size_t HomeSlot(std::uint64_t id, unsigned bits) {
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                  (64 - bits));
}

TEST(ShardIdTableTest, ProbeChainsWrapPastTheEnd) {
  // A fresh table holds 16 slots until its 15th entry.  Ids homed in its
  // last three slots build one chain that wraps to the front; erasing them
  // in 50 random orders must keep the rest findable after every erase.
  std::vector<std::uint64_t> tail_ids;
  for (std::uint64_t id = 0; tail_ids.size() < 9; ++id) {
    if (HomeSlot(id, 4) >= 13) tail_ids.push_back(id);
  }
  std::vector<std::uint64_t> front_ids;  // homed where the chain wraps to
  for (std::uint64_t id = 0; front_ids.size() < 3; ++id) {
    if (HomeSlot(id, 4) <= 1) front_ids.push_back(id);
  }
  Rng rng(42);
  for (int order = 0; order < 50; ++order) {
    Table table;
    Oracle oracle;
    std::vector<std::uint64_t> ids = tail_ids;
    ids.insert(ids.end(), front_ids.begin(), front_ids.end());
    rng.Shuffle(ids);
    for (std::uint64_t id : ids) {
      ASSERT_TRUE(table.Insert(id, static_cast<std::int64_t>(id)));
      oracle.emplace(id, static_cast<std::int64_t>(id));
    }
    ASSERT_EQ(table.capacity(), 16u);
    ExpectSameContents(table, oracle, "wrapped, order " +
                                          std::to_string(order));
    rng.Shuffle(ids);
    for (std::uint64_t id : ids) {
      std::int64_t value = -1;
      ASSERT_TRUE(table.Take(id, &value));
      EXPECT_EQ(value, static_cast<std::int64_t>(id));
      oracle.erase(id);
      ExpectSameContents(table, oracle,
                         "after taking " + std::to_string(id) + ", order " +
                             std::to_string(order));
    }
  }
}

TEST(ShardIdTableTest, CopyIsAnIndependentSnapshot) {
  Table table;
  for (std::uint64_t id = 0; id < 100; ++id) {
    table.Insert(id, static_cast<std::int64_t>(id));
  }
  const Table copy = table;  // a supervisor capture
  std::int64_t value = 0;
  ASSERT_TRUE(table.Take(7, &value));
  table.Insert(1000, 1);
  ASSERT_NE(copy.Find(7), nullptr);
  EXPECT_EQ(*copy.Find(7), 7);
  EXPECT_EQ(copy.Find(1000), nullptr);
  EXPECT_EQ(copy.size(), 100u);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_TRUE(table.Insert(0, 5));
  EXPECT_EQ(*table.Find(0), 5);
}

}  // namespace
}  // namespace tdmd::shard
