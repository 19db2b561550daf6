// FLEXHASH — Lemma 4.9: a *relocatable* tiny-item allocator.
//
// FLEXHASH wraps the unit-structured tiny allocator (TINYSLAB, standing in
// for TINYHASH) and absorbs "external updates" — requests to shift its
// whole memory region left or right by k — at O(1) expected cost, without
// moving the bulk of its items.  The trick is a buffer between the region
// start and the first memory unit:
//
//  * external update sizes are split into C' = O(log eps^-1) geometric
//    update-types; type i owns a buffer account B_i in [0, 16M];
//  * an external update of type i adjusts B_i instead of moving items;
//  * units are *rotated* (one unit's items moved from one end of the unit
//    array to the other) to refill or drain a buffer account;
//  * large types (size >= M/100) restore B_i to within M of 8M whenever it
//    leaves [0, 16M]; small types accumulate pushed mass in counters
//    P_i / P'_i and rotate back to [7M, 9M] when a randomized threshold
//    R ~ U(2M, 4M) is crossed (Lemma 4.3 randomness, overflow carried).
//
// The physical unit array lives at fixed absolute "slots": slot s sits at
// anchor + s*M.  Rotations slide the live slot window [slot_lo, slot_hi)
// (a pop on one end of the window's unit deque and a push on the other);
// unit creation appends at slot_hi; unit destruction swaps the physically
// last unit into the vacated slot (the memory-unit swap the paper
// describes for resize operations).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "alloc/tinyslab.h"
#include "core/allocator.h"
#include "core/layout_store.h"
#include "util/rng.h"

namespace memreal {

struct FlexHashConfig {
  double eps = 1.0 / 64;
  /// Initial region start (Corollary 4.10 uses L1 + eps/2; standalone 0).
  Tick region_start = 0;
  /// Tiny-item bound; 0 = eps^4 * capacity.
  Tick max_tiny_size = 0;
  std::uint64_t seed = 0xF1E7;
};

class FlexHashAllocator final : public Allocator, public UnitSpace {
 public:
  FlexHashAllocator(LayoutStore& mem, const FlexHashConfig& config);

  // -- internal (tiny) updates ---------------------------------------------
  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override { return "flexhash"; }
  /// FLEXHASH is *relocatable*: its guarantee is relative to the externally
  /// managed region start, so the global span check does not apply when it
  /// runs standalone.  (The combined allocator re-enables the global check.)
  [[nodiscard]] bool resizable() const override { return false; }
  void check_invariants() const override;

  // -- external updates ----------------------------------------------------
  /// Shifts the region start right (push_right) or left by `size` ticks.
  /// Must be called inside an open Memory update; any unit rotations it
  /// performs are charged to that update.
  void external_update(Tick size, bool push_right);

  [[nodiscard]] Tick region_start() const { return region_start_; }
  [[nodiscard]] Tick unit_size() const { return tiny_->unit_size(); }
  [[nodiscard]] std::size_t unit_count() const { return tiny_->unit_count(); }
  [[nodiscard]] std::size_t rotations() const { return rotations_; }
  [[nodiscard]] std::size_t type_count() const { return num_types_; }
  [[nodiscard]] const TinySlabAllocator& tiny() const { return *tiny_; }
  /// End of the occupied region (just past the last unit; region_start when
  /// no units exist).
  [[nodiscard]] Tick region_end() const;

 private:
  // UnitSpace:
  [[nodiscard]] Tick unit_offset(std::size_t unit) const override;
  void on_unit_created(std::size_t unit) override;
  void on_unit_destroyed(std::size_t unit) override;

  [[nodiscard]] std::size_t type_of(Tick size) const;
  [[nodiscard]] long long first_unit_pos() const;
  void rotate_front_to_end(std::size_t type);
  void rotate_end_to_front(std::size_t type);
  /// Restores B[type] to within M of `target`, via single-unit rotations
  /// when few are needed, or by shifting the whole unit array when the
  /// deficit exceeds one full rotation cycle (an external update larger
  /// than the entire region: moving everything once costs O(1) relative).
  void restore_buffer(std::size_t type, long long target);
  void bulk_shift(std::size_t type, long long delta_units);

  LayoutStore* mem_;
  Rng rng_;
  std::unique_ptr<TinySlabAllocator> tiny_;
  Tick M_ = 0;
  Tick max_tiny_ = 0;
  Tick big_thr_ = 0;  ///< M / 100: larger external updates act immediately

  Tick region_start_ = 0;
  long long anchor_ = 0;    ///< absolute position of slot 0
  long long slot_lo_ = 0;   ///< live slots: [slot_lo_, slot_hi_)
  long long slot_hi_ = 0;
  std::vector<long long> perm_;  ///< logical unit -> slot
  /// Slot -> logical unit over the live window: unit_at_[s - slot_lo_].
  std::deque<std::size_t> unit_at_;

  std::size_t num_types_ = 0;
  std::vector<long long> B_;          ///< buffer accounts, in [0, 16M]
  std::vector<Tick> P_right_, P_left_;
  std::vector<Tick> R_right_, R_left_;  ///< thresholds ~ U(2M, 4M)
  std::size_t rotations_ = 0;
};

}  // namespace memreal
