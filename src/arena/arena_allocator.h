// A production-shaped byte allocator facade over any registry allocator.
//
// The tt-metal allocator::Algorithm surface — allocate(size_bytes),
// allocate_at_address(addr, size_bytes), deallocate(addr), plus
// capacity / minimum-allocation / alignment queries — adapted to the
// paper's reallocating model.  Internally the adapter owns an arena Cell:
// every call becomes an engine update against a real char arena, so
// payloads are stamped and verified and the byte/tick cost channels
// accumulate exactly as in a driven run.
//
// The one deliberate semantic difference from tt-metal: the paper's
// allocators REALLOCATE.  An address returned by allocate() is the item's
// current placement and may be invalidated by any later call; stable
// identity is the returned Allocation::id, and address_of(id) reports the
// current address.  deallocate(addr) resolves whichever live item's
// payload starts at `addr` right now — the natural reading of a byte
// free() against a compacting heap.
//
// allocate_at_address is attempt-and-check: the adapter cannot force a
// registry allocator's placement decision, so it performs the insert and
// keeps it only when the item landed exactly at `addr`, rolling the
// insert back otherwise.  Whether a given (addr, size) can succeed is
// policy-dependent — folklore-compact appends at the span end, so
// reserving the next span-aligned address succeeds deterministically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/cell.h"

namespace memreal {

struct ArenaAllocatorConfig {
  std::string allocator = "simple";  ///< registry name
  std::string engine = "validated";  ///< inner store flavor
  AllocatorParams params;
  Tick capacity_ticks = Tick{1} << 20;
  Tick bytes_per_tick = 8;  ///< granule = alignment = min allocation
  bool verify_payloads = true;
};

class ArenaAllocator {
 public:
  /// One live allocation: the stable id plus the placement at the time of
  /// the call (addresses move; re-query with address_of).
  struct Allocation {
    ItemId id = kNoItem;
    std::uint64_t address = 0;
    std::uint64_t size_bytes = 0;
  };

  explicit ArenaAllocator(const ArenaAllocatorConfig& config);

  // -- Capacity / granule queries (tt-metal surface) ------------------------

  [[nodiscard]] std::uint64_t max_size_bytes() const;
  [[nodiscard]] std::uint64_t min_allocation_size() const;
  [[nodiscard]] std::uint64_t alignment() const;
  /// `bytes` rounded up to the granule (the payload the arena will carve).
  [[nodiscard]] std::uint64_t align(std::uint64_t bytes) const;

  /// The byte band the underlying allocator's registry profile serves;
  /// allocate() returns nullopt outside it.
  [[nodiscard]] std::uint64_t min_item_bytes() const;
  [[nodiscard]] std::uint64_t max_item_bytes() const;

  // -- Allocation -----------------------------------------------------------

  /// Allocates `size_bytes`; nullopt when the size is outside the served
  /// band or the arena's load budget has no room.
  std::optional<Allocation> allocate(std::uint64_t size_bytes);

  /// Allocates iff the underlying policy places the item exactly at
  /// `addr` (granule-aligned); otherwise rolls the insert back and
  /// returns nullopt.
  std::optional<Allocation> allocate_at_address(std::uint64_t addr,
                                                std::uint64_t size_bytes);

  /// Frees the live allocation whose payload currently starts at `addr`;
  /// throws InvariantViolation when no allocation starts there.
  void deallocate(std::uint64_t addr);
  /// Frees by stable id.
  void deallocate_id(ItemId id);

  /// Frees everything (one delete update per live allocation).
  void clear();

  // -- Introspection --------------------------------------------------------

  [[nodiscard]] std::size_t allocation_count() const;
  [[nodiscard]] std::uint64_t allocated_bytes() const;
  /// Current address of a live allocation.
  [[nodiscard]] std::uint64_t address_of(ItemId id) const;
  /// Read-only view of a live allocation's payload.
  [[nodiscard]] std::span<const unsigned char> payload(ItemId id) const;

  /// Free byte ranges [start, end) that could hold an aligned allocation
  /// of `size_bytes`, including the tail beyond the current span.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  available_addresses(std::uint64_t size_bytes) const;

  /// Cost channels of the updates issued so far (tick + byte).
  [[nodiscard]] const RunStats& stats() const { return cell_->stats(); }

  /// Full structural + payload audit of the backing cell.
  void audit() { cell_->audit(); }

 private:
  [[nodiscard]] Tick ticks_for(std::uint64_t size_bytes) const;

  ArenaAllocatorConfig config_;
  Tick min_ticks_ = 0;  ///< registry size band, in ticks
  Tick max_ticks_ = 0;
  std::unique_ptr<Cell> cell_;
  ItemId next_id_ = 1;
};

}  // namespace memreal
