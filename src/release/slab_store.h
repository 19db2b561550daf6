// The release fast-path layout store.
//
// SlabStore implements the same LayoutStore contract as the validating
// Memory model, but swaps the node-based std::map/multiset machinery for a
// flat slab of SoA item records and performs NO per-update validation —
// only the O(1) cost counters the paper's model requires (moved mass,
// live/extent mass, update count).
//
// Layout of the slab:
//
//   ids_ / offsets_ / sizes_ / extents_   dense parallel arrays, one slot
//                                         per live item; slots are kept
//                                         dense by swap-with-last removal
//   slot_                                 FlatIdMap id -> slot: O(1)
//                                         point queries
//   by_offset_ / index_pos_ / pending_    slot indices sorted by
//                                         (offset, id), plus the inverse
//                                         map (slot -> position, or ->
//                                         pending_ index under kQueued):
//                                         ordered queries are binary
//                                         searches over contiguous memory;
//                                         mutations find their own entry
//                                         in O(1) via index_pos_
//   span_ / span_dirty_                   cached max offset+extent; moving
//                                         or shrinking the rightmost item
//                                         marks it dirty and the next
//                                         span_end() recomputes with one
//                                         O(n) scan of the slab
//
// One rule keeps the index cheap: a mutation whose slot stays
// (offset, id)-ordered against its nearest settled index neighbours is
// written in place (two array writes, two comparisons: every compaction
// move and rightmost placement).  An order-breaking move whose new key
// fits the index's only hole fills it, and its old entry becomes the hole:
// every swap delete (GEO, SIMPLE's main portion, DISCRETE's partner swap)
// removes an item and moves its partner into the freed slot, so the
// partner lands in the hole the remove left.  Anything else leaves a hole
// in by_offset_ and/or joins pending_, in O(1).  A partial apply_run
// settles the index first and applies the rule once its run has landed:
// all moved slots stay, or, when the run's slots alone fill one index
// window and its new first and last keys fit against the entries just
// outside it, the window is rewritten in run (= key) order — the window
// write, one sequential pass that takes every GEO level rebuild, whose run
// permutes its own stretch of memory; otherwise all moved slots queue in
// run order.  A run covering every item (SIMPLE's rebuild) is written to
// by_offset_ directly.  settle() repairs the index: it sorts the queue if
// needed, drops the holes and merges the queue back in place, rewriting
// only the stretch of by_offset_ that changes.  It runs at end_update, at
// the first ordered query inside an update, and before a partial run, so
// per-item moves pay one repair per update: a TINYSLAB unit rotation costs
// O(n + m log m), not one O(n) shift per move, and a swap delete's
// compaction run settles its one hole with no sort and no merge.  Between
// updates the index is exact and const queries write nothing, so
// shared-lock readers stay race-free.  The span cache is a lazily
// recomputed scalar: span_end() is rarely read between updates.
//
// The (offset, id) sort key matches Memory's index exactly, so every
// ordered query (item_at, first_at_or_after, neighbors_of, snapshot, ...)
// returns bit-identical results and any allocator run produces a
// bit-identical layout and per-update cost stream on either store.
//
// What is NOT checked here (and which tier covers it instead):
//
//   * extent disjointness, span/load bounds, mass-accounting drift — the
//     lockstep differential suite (ctest -L release) and the fuzz oracle's
//     release mode (memreal_fuzz --engine release) compare every update
//     against the validated engine; the explicit audit() below performs
//     the full structural check on demand (end-of-run, fuzz verdicts).
//   * adversary promises (load factor) per update — audited at run end.
//
// Only O(1) usage assertions remain on the hot path (unknown id, nested
// update, zero size): they prevent undefined behavior, not layout bugs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/layout_store.h"
#include "util/check.h"
#include "util/flat_map.h"
#include "util/types.h"

namespace memreal {

class SlabStore final : public LayoutStore {
 public:
  SlabStore(Tick capacity, Tick eps_ticks, ValidationPolicy policy = {});

  SlabStore(const SlabStore&) = delete;
  SlabStore& operator=(const SlabStore&) = delete;
  SlabStore(SlabStore&&) = default;
  SlabStore& operator=(SlabStore&&) = default;

  // -- Transactions -------------------------------------------------------

  void begin_update(Tick update_size, bool is_insert) override;
  Tick end_update() override;
  [[nodiscard]] bool in_update() const override { return in_update_; }
  [[nodiscard]] Tick moved_in_update() const override { return moved_; }

  // -- Layout mutation ----------------------------------------------------

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) override;
  void move_to(ItemId id, Tick offset) override;
  void set_extent(ItemId id, Tick extent) override;
  void reset_extent(ItemId id) override;
  void reset_extents(std::span<const ItemId> ids) override;
  void remove(ItemId id) override;
  Tick apply_run(std::span<const ItemId> ids, Tick offset) override;

  // -- Point queries ------------------------------------------------------

  [[nodiscard]] bool contains(ItemId id) const override {
    return slot_.contains(id);
  }
  [[nodiscard]] Tick offset_of(ItemId id) const override {
    return offsets_[slot_of(id)];
  }
  [[nodiscard]] Tick size_of(ItemId id) const override {
    return sizes_[slot_of(id)];
  }
  [[nodiscard]] Tick extent_of(ItemId id) const override {
    return extents_[slot_of(id)];
  }
  [[nodiscard]] Tick end_of(ItemId id) const override {
    const std::uint32_t s = slot_of(id);
    return offsets_[s] + extents_[s];
  }

  [[nodiscard]] std::size_t item_count() const override {
    return ids_.size();
  }
  [[nodiscard]] Tick live_mass() const override { return live_mass_; }
  [[nodiscard]] Tick extent_mass() const override { return extent_mass_; }
  [[nodiscard]] Tick span_end() const override {
    if (span_dirty_) recompute_span();
    return span_;
  }

  [[nodiscard]] Tick capacity() const override { return capacity_; }
  [[nodiscard]] Tick eps_ticks() const override { return eps_ticks_; }

  [[nodiscard]] Tick total_moved() const override { return total_moved_; }
  [[nodiscard]] std::size_t update_count() const override {
    return updates_;
  }

  // -- Ordered (by-offset) queries ----------------------------------------

  [[nodiscard]] std::optional<PlacedItem> item_at(Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> first_at_or_after(
      Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> last_before(
      Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> first_item() const override;
  [[nodiscard]] std::optional<PlacedItem> last_item() const override;
  [[nodiscard]] Neighbors neighbors_of(ItemId id) const override;
  [[nodiscard]] std::vector<PlacedItem> items_in(Tick from,
                                                 Tick to) const override;
  [[nodiscard]] std::vector<PlacedItem> snapshot() const override;
  [[nodiscard]] std::vector<std::pair<Tick, Tick>> gaps() const override;

  // -- Validation ---------------------------------------------------------

  /// Full O(n log n) structural check: SoA/map/index/span consistency
  /// (outside an update: nothing pending, no hole left), extent
  /// disjointness, mass totals, policy-gated span and load bounds.
  /// Never runs implicitly — a release cell runs it only on an explicit
  /// Cell::audit() (and the fuzz oracle when judging a failure).
  void audit() const override;

  [[nodiscard]] ValidationPolicy& policy() override { return policy_; }
  [[nodiscard]] const ValidationPolicy& policy() const override {
    return policy_;
  }

  /// Test-only fault injection: shifts the stored offset of the first
  /// item in offset order by `delta` WITHOUT touching by_offset_, the
  /// span cache, or the id map — exactly the stale-index corruption a
  /// slab bug would produce.  Exists so the fuzz oracle's release mode
  /// can prove it catches (and shrinks) slab corruption; never called
  /// outside tests.
  void debug_corrupt_first_offset(Tick delta);

 private:
  /// by_offset_ entry whose slot left it (removed, or queued in pending_).
  static constexpr std::uint32_t kHole = 0xFFFFFFFFu;
  /// index_pos_ flag: the low bits are the slot's pending_ index.
  static constexpr std::uint32_t kQueued = 0x80000000u;
  /// How many holes fits_at() looks past for a settled neighbour before
  /// it counts the slot as unordered (queueing it is always correct).
  static constexpr std::size_t kMaxHoleSkip = 8;

  /// (offset, id) order of two slots — the index sort key.
  [[nodiscard]] bool slot_less(std::uint32_t a, std::uint32_t b) const {
    return offsets_[a] != offsets_[b] ? offsets_[a] < offsets_[b]
                                      : ids_[a] < ids_[b];
  }
  /// Position in by_offset_[lo, hi) (hole-free) of the first slot with
  /// (offset, id) >= key.
  [[nodiscard]] std::size_t index_lower_bound(std::size_t lo, std::size_t hi,
                                              Tick offset, ItemId id) const;
  [[nodiscard]] std::size_t index_lower_bound(Tick offset, ItemId id) const {
    return index_lower_bound(0, by_offset_.size(), offset, id);
  }

  /// Slot of a live id; a missing id is a usage error.
  [[nodiscard]] std::uint32_t slot_of(ItemId id) const {
    const std::uint32_t* slot = slot_.find(id);
    MEMREAL_CHECK_MSG(slot != nullptr, "unknown item id " << id);
    return *slot;
  }

  /// True when `slot`, written at by_offset_[pos], is (offset, id)-ordered
  /// against the nearest settled entry on each side.
  [[nodiscard]] bool fits_at(std::size_t pos, std::uint32_t slot) const {
    std::size_t left = pos;
    while (left > 0 && by_offset_[left - 1] == kHole) {
      if (pos - left == kMaxHoleSkip) return false;
      --left;
    }
    if (left > 0 && !slot_less(by_offset_[left - 1], slot)) return false;
    std::size_t right = pos + 1;
    while (right < by_offset_.size() && by_offset_[right] == kHole) {
      if (right - pos > kMaxHoleSkip) return false;
      ++right;
    }
    return right >= by_offset_.size() || slot_less(slot, by_offset_[right]);
  }
  void punch_hole(std::size_t pos) {
    by_offset_[pos] = kHole;
    first_hole_ = holes_ == 0 ? pos : std::min(first_hole_, pos);
    last_hole_ = holes_ == 0 ? pos : std::max(last_hole_, pos);
    ++holes_;
  }
  void enqueue(std::uint32_t slot) {
    if (!pending_.empty() && !slot_less(pending_.back(), slot)) {
      pending_sorted_ = false;
    }
    index_pos_[slot] = kQueued | static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(slot);
  }
  /// Makes by_offset_ exact again (no hole, nothing pending).  Free when
  /// the index is already exact, which it always is between updates.
  void settle() const {
    if (holes_ != 0 || !pending_.empty()) repair_order();
  }
  void repair_order() const;

  [[nodiscard]] PlacedItem placed(std::uint32_t slot) const {
    return PlacedItem{ids_[slot], offsets_[slot], sizes_[slot],
                      extents_[slot]};
  }

  /// Span-cache maintenance: a new end can only raise a clean cache; a
  /// vanished end invalidates it only when it was the cached max.
  void span_add(Tick end) {
    if (!span_dirty_ && end > span_) span_ = end;
  }
  void span_drop(Tick end) {
    if (end >= span_) span_dirty_ = true;
  }
  void recompute_span() const;

  Tick capacity_;
  Tick eps_ticks_;
  ValidationPolicy policy_;

  std::vector<ItemId> ids_;
  std::vector<Tick> offsets_;
  std::vector<Tick> sizes_;
  std::vector<Tick> extents_;

  FlatIdMap<std::uint32_t> slot_;  ///< id -> slot

  // The order index.  Mutable because settle() repairs it lazily from
  // const ordered queries inside an update; between updates it is exact
  // and no const method writes it.
  mutable std::vector<std::uint32_t> by_offset_;  ///< kHole = vacated
  mutable std::vector<std::uint32_t> index_pos_;  ///< slot -> position
  mutable std::vector<std::uint32_t> pending_;    ///< slots out of order
  /// pending_ is in (offset, id) order; cleared when an append, a
  /// swap-with-last erase or a queued slot's move may have broken it.
  mutable bool pending_sorted_ = true;
  mutable std::size_t holes_ = 0;
  mutable std::size_t first_hole_ = 0;  ///< valid while holes_ > 0
  mutable std::size_t last_hole_ = 0;   ///< valid while holes_ > 0
  /// apply_run scratch: the run's slots, in run order.
  std::vector<std::uint32_t> run_slots_;

  Tick live_mass_ = 0;
  Tick extent_mass_ = 0;

  mutable Tick span_ = 0;
  mutable bool span_dirty_ = false;

  bool in_update_ = false;
  Tick moved_ = 0;
  Tick total_moved_ = 0;
  std::size_t updates_ = 0;
};

}  // namespace memreal
