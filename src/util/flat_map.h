// Open-addressed id -> value map for allocator bookkeeping hot paths.
//
// The node-based std::unordered_map costs a pointer chase plus a modulo
// per operation; on per-move bookkeeping that is the dominant cost.  This
// is the repo's one open-addressed id table: SlabStore's id -> slot map,
// SimpleAllocator's id -> layout position, GEO's id -> handle, the
// sharded engine's placements and the arena's payload bookkeeping all use
// it.  Power-of-two buckets, SplitMix64-finalized keys, linear probing
// grown at 5/8 load, backward-shift deletion (no tombstones).
//
// Keys are ItemIds; kNoItem is reserved as the empty-bucket sentinel and
// must never be inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace memreal {

template <typename V>
class FlatIdMap {
 public:
  explicit FlatIdMap(std::size_t initial_buckets = 64) {
    keys_.assign(initial_buckets, kNoItem);
    values_.resize(initial_buckets);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] V* find(ItemId key) {
    const std::size_t b = locate(key);
    return keys_[b] == key ? &values_[b] : nullptr;
  }
  [[nodiscard]] const V* find(ItemId key) const {
    const std::size_t b = locate(key);
    return keys_[b] == key ? &values_[b] : nullptr;
  }

  [[nodiscard]] bool contains(ItemId key) const {
    return find(key) != nullptr;
  }

  /// Value for an existing key; missing keys are a usage error.
  [[nodiscard]] const V& at(ItemId key) const {
    const V* v = find(key);
    MEMREAL_CHECK_MSG(v != nullptr, "unknown item id " << key);
    return *v;
  }

  /// Inserts value-initialized when absent, like std::unordered_map.
  [[nodiscard]] V& operator[](ItemId key) {
    const std::size_t b = slot_for(key);
    if (keys_[b] != key) {
      keys_[b] = key;
      values_[b] = V{};
      ++size_;
    }
    return values_[b];
  }

  /// Inserts `value` under an absent key in one probe; returns false and
  /// leaves the map unchanged when the key is already present.
  [[nodiscard]] bool insert(ItemId key, const V& value) {
    const std::size_t b = slot_for(key);
    if (keys_[b] == key) return false;
    keys_[b] = key;
    values_[b] = value;
    ++size_;
    return true;
  }

  void erase(ItemId key) {
    const std::size_t b = locate(key);
    if (keys_[b] == key) erase_at(b);
  }

  /// Removes `key` in one probe and returns its value; nullopt when absent.
  [[nodiscard]] std::optional<V> take(ItemId key) {
    const std::size_t b = locate(key);
    if (keys_[b] != key) return std::nullopt;
    std::optional<V> value(std::move(values_[b]));
    erase_at(b);
    return value;
  }

 private:
  /// Bucket of `key` after any growth an insert of it would need.
  [[nodiscard]] std::size_t slot_for(ItemId key) {
    MEMREAL_CHECK_MSG(key != kNoItem, "reserved key");
    if ((size_ + 1) * 8 >= keys_.size() * 5) grow();
    return locate(key);
  }

  void erase_at(std::size_t b) {
    --size_;
    const std::size_t mask = keys_.size() - 1;
    // Backward-shift deletion: re-seat every entry of the probe chain
    // that follows the hole, so lookups never need tombstones.
    std::size_t hole = b;
    std::size_t next = (b + 1) & mask;
    while (keys_[next] != kNoItem) {
      const std::size_t home =
          static_cast<std::size_t>(mix(keys_[next])) & mask;
      const bool reachable = hole <= next ? (home <= hole || home > next)
                                          : (home <= hole && home > next);
      if (reachable) {
        keys_[hole] = keys_[next];
        values_[hole] = values_[next];
        hole = next;
      }
      next = (next + 1) & mask;
    }
    keys_[hole] = kNoItem;
  }

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  /// Bucket holding `key`, or the empty bucket where it would go.
  [[nodiscard]] std::size_t locate(ItemId key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t b = static_cast<std::size_t>(mix(key)) & mask;
    while (keys_[b] != kNoItem && keys_[b] != key) b = (b + 1) & mask;
    return b;
  }

  void grow() {
    std::vector<ItemId> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kNoItem);
    values_.assign(old_keys.size() * 2, V{});
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kNoItem) continue;
      std::size_t b = static_cast<std::size_t>(mix(old_keys[i])) & mask;
      while (keys_[b] != kNoItem) b = (b + 1) & mask;
      keys_[b] = old_keys[i];
      values_[b] = old_values[i];
    }
  }

  std::vector<ItemId> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;
};

}  // namespace memreal
