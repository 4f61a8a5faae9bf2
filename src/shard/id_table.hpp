// IdTable: the fleet's map from sequential fleet flow ids to a small value
// (the owner shard on the coordinator, the engine ticket on a worker).
//
// Fleet ids are handed out by one counter, so a Fibonacci hash spreads
// them evenly and open addressing with linear probing keeps every entry
// in one flat array: a lookup, insert or erase touches one cache line in
// the common case and allocates nothing (growth aside), and copying the
// table — a supervisor capture — is one vector copy.  Erase uses backward
// shift, so there are no tombstones and probe chains stay as short as the
// load allows.  The table doubles before its load would pass 7/8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace tdmd::shard {

template <typename Value>
class IdTable {
 public:
  struct Entry {
    std::uint64_t id = kEmpty;
    Value value{};
  };

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots, a power of two (0 before the first insert).
  std::size_t capacity() const { return entries_.size(); }

  /// The value of `id`, or nullptr when absent.
  const Value* Find(std::uint64_t id) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = Home(id);; i = (i + 1) & mask_) {
      const Entry& entry = entries_[i];
      if (entry.id == id) return &entry.value;
      if (entry.id == kEmpty) return nullptr;
    }
  }

  /// Inserts `id`; returns false (and changes nothing) when it is present.
  bool Insert(std::uint64_t id, Value value) {
    TDMD_DCHECK(id != kEmpty);
    if ((size_ + 1) * 8 > entries_.size() * 7) Grow();
    std::size_t i = Home(id);
    for (; entries_[i].id != kEmpty; i = (i + 1) & mask_) {
      if (entries_[i].id == id) return false;
    }
    entries_[i] = Entry{id, std::move(value)};
    ++size_;
    return true;
  }

  /// Removes `id` and stores its value in `*value`; returns false when
  /// `id` is absent.
  bool Take(std::uint64_t id, Value* value) {
    if (size_ == 0) return false;
    std::size_t hole = Home(id);
    for (; entries_[hole].id != id; hole = (hole + 1) & mask_) {
      if (entries_[hole].id == kEmpty) return false;
    }
    *value = std::move(entries_[hole].value);
    // Backward shift: pull each later entry of the chain into the hole
    // unless its home lies cyclically in (hole, i], where it must stay.
    for (std::size_t i = (hole + 1) & mask_; entries_[i].id != kEmpty;
         i = (i + 1) & mask_) {
      const std::size_t home = Home(entries_[i].id);
      const bool stays = hole <= i ? (hole < home && home <= i)
                                   : (hole < home || home <= i);
      if (stays) continue;
      entries_[hole] = std::move(entries_[i]);
      hole = i;
    }
    entries_[hole] = Entry{};
    --size_;
    return true;
  }

  void Clear() {
    entries_.clear();
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

  /// Calls f(id, value) for every entry, in table order.
  template <typename F>
  void ForEach(F&& f) const {
    for (const Entry& entry : entries_) {
      if (entry.id != kEmpty) f(entry.id, entry.value);
    }
  }

  /// Owned heap bytes.
  std::size_t MemoryFootprint() const {
    return entries_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t Home(std::uint64_t id) const {
    // Fibonacci hashing: the top bits of id * 2^64 / phi.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_) &
           mask_;
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    const std::size_t slots = old.empty() ? kMinCapacity : 2 * old.size();
    entries_.assign(slots, Entry{});
    mask_ = slots - 1;
    shift_ = 64;
    for (std::size_t c = slots; c > 1; c >>= 1) --shift_;
    for (Entry& entry : old) {
      if (entry.id == kEmpty) continue;
      std::size_t i = Home(entry.id);
      while (entries_[i].id != kEmpty) i = (i + 1) & mask_;
      entries_[i] = std::move(entry);
    }
  }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace tdmd::shard
