// Update sequences and the builder that guarantees the adversary's promise.
//
// All generators produce a Sequence *offline* (fixed before the allocator
// draws any randomness), matching the paper's oblivious-adversary model.
// The builder tracks the live set so that every prefix respects
// live mass <= capacity - eps.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/update.h"
#include "util/rng.h"
#include "util/types.h"

namespace memreal {

struct Sequence {
  std::string name;
  Tick capacity = kDefaultCapacity;
  double eps = 0.0;
  Tick eps_ticks = 0;
  /// Byte-space granule for byte-mode sequences; 0 = tick-native (no
  /// update carries a payload size).  When nonzero, every update's
  /// size_bytes (if set) must round up to exactly its tick size.
  Tick bytes_per_tick = 0;
  std::vector<Update> updates;

  [[nodiscard]] std::size_t size() const { return updates.size(); }

  /// Replays the sequence against a virtual live set and checks the
  /// adversary's promise plus well-formedness (no duplicate live ids, no
  /// delete of absent items, byte sizes consistent with tick sizes).
  /// Throws InvariantViolation on failure.
  void check_well_formed() const;
};

/// Incrementally builds a well-formed sequence.  Pass a nonzero
/// bytes_per_tick to build a byte-mode sequence: insert_bytes then
/// records payload sizes and deletes echo them back.
class SequenceBuilder {
 public:
  SequenceBuilder(std::string name, Tick capacity, double eps,
                  Tick bytes_per_tick = 0);

  /// Max mass the adversary may have live.
  [[nodiscard]] Tick budget() const { return capacity_ - eps_ticks_; }
  [[nodiscard]] Tick live_mass() const { return live_mass_; }
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  /// Updates emitted so far.
  [[nodiscard]] std::size_t update_count() const {
    return seq_.updates.size();
  }
  [[nodiscard]] bool can_insert(Tick size) const {
    return live_mass_ + size <= budget();
  }

  /// Inserts a fresh item of `size`; returns its id.
  ItemId insert(Tick size);

  /// Byte-mode insert: ticks are derived from `size_bytes` by
  /// min-allocation rounding (requires a nonzero bytes_per_tick).
  ItemId insert_bytes(Tick size_bytes);

  /// Ticks a payload of `size_bytes` occupies under this builder's
  /// granule.
  [[nodiscard]] Tick ticks_for_bytes(Tick size_bytes) const;

  /// Deletes the live item at `index` (in insertion-compacted order).
  void erase_at(std::size_t index);

  /// Deletes a uniformly random live item.
  void erase_random(Rng& rng);

  /// Deletes a specific live id (linear scan; for scripted adversaries).
  void erase_id(ItemId id);

  [[nodiscard]] Tick size_at(std::size_t index) const {
    return live_[index].size;
  }
  [[nodiscard]] Tick bytes_at(std::size_t index) const {
    return live_[index].bytes;
  }

  [[nodiscard]] Sequence take();

 private:
  struct Live {
    ItemId id;
    Tick size;
    Tick bytes;  ///< 0 for tick-native items
  };

  Sequence seq_;
  std::vector<Live> live_;
  Tick live_mass_ = 0;
  ItemId next_id_ = 1;
  Tick capacity_;
  Tick eps_ticks_;
  Tick bytes_per_tick_;
};

// -- Mutation hooks ---------------------------------------------------------
//
// The fuzzer's mutator and shrinker edit update streams freely (dropping
// chunks, resizing items, splicing segments) and then *repair* the result
// back into a well-formed sequence instead of rejecting it.  Repair replays
// the edited stream against a virtual live set with SequenceBuilder's
// semantics and drops every update that no longer applies.  The repair is
// deterministic, idempotent, and its output always passes
// Sequence::check_well_formed().

/// Rebuilds a well-formed sequence from an arbitrarily edited update list:
/// drops inserts with non-positive size, inserts of an already-live id and
/// inserts that would break the load-factor promise; drops deletes of
/// absent ids and rewrites delete sizes to the live item's size.  Header
/// fields (name, capacity, eps) are taken from `base`.
[[nodiscard]] Sequence repair_sequence(const Sequence& base,
                                       std::vector<Update> updates);

/// Keeps only the updates with keep[i] true, then repairs well-formedness
/// (deletes whose insert was dropped are dropped too).  keep.size() must
/// equal base.size().
[[nodiscard]] Sequence subsequence(const Sequence& base,
                                   const std::vector<bool>& keep);

/// Rewrites the size of every update touching an id in `new_sizes`, then
/// repairs well-formedness (resized inserts that overflow the promise are
/// dropped along with their deletes).  Sizes of 0 are rejected.
[[nodiscard]] Sequence with_sizes(
    const Sequence& base, const std::unordered_map<ItemId, Tick>& new_sizes);

}  // namespace memreal
