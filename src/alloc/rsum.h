// RSUM — Theorem 6.1 / Algorithm 6: the allocator for delta-random-item
// sequences (sizes uniform in [delta, 2delta], random deletes).
//
// Expected update cost O(log eps^-1); the items to move per update are
// computed in expected O(eps^-1/2) time via meet-in-the-middle subset sums.
//
// Mechanics (Section 6):
//  * Items in the main body are grouped into blocks of
//    m = 2*ceil(log2(eps^-1)/2) items, marked valid until touched.
//  * A delete gathers a neighbourhood Y around the deleted item with total
//    size y in (3/4)m*delta ± delta, then scans valid blocks from the right
//    for one holding a subset S with sum in [y - g, y]
//    (g = eps*delta*log2(eps^-1)); failed candidates are invalidated.
//    S replaces Y; Y\{I} and B\S fill B's region; B and everything to its
//    right is pushed into the trash can (a suffix of memory), compacted.
//  * A buffer (free gap) separates main body and trash; items rotate from
//    the trash's back to its front to keep the buffer <= eps/2
//    (delta <= eps/4), or via the stash-and-rotate scheme of Lemma 6.8
//    (delta > eps/4).
//  * When fewer than r ~ U(delta^-1/(8m), delta^-1/(6m)) valid blocks
//    remain, RSUM randomly permutes all items, compacts, re-blocks from
//    the right, and resamples r.
//  * Inserts append to the trash at cost 1.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/allocator.h"
#include "core/layout_store.h"
#include "util/rng.h"

namespace memreal {

struct RSumConfig {
  double eps = 1.0 / 256;
  double delta = 0.0;  ///< 0 = eps^{3/4}
  std::uint64_t seed = 0x5D5;
  /// Items per block; 0 = the paper's 2*ceil(log2(eps^-1)/2).
  /// (Ablation T8c overrides this.)
  std::size_t block_items = 0;
};

class RSumAllocator final : public Allocator {
 public:
  RSumAllocator(LayoutStore& mem, const RSumConfig& config);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override { return "rsum"; }
  void check_invariants() const override;
  [[nodiscard]] double decision_seconds() const override {
    return decision_seconds_;
  }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t block_size() const { return m_; }
  [[nodiscard]] Tick gap_bound() const { return g_; }
  [[nodiscard]] bool big_delta_mode() const { return big_delta_; }
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] std::size_t valid_blocks() const { return valid_count_; }
  [[nodiscard]] std::size_t compat_checks() const { return compat_checks_; }
  [[nodiscard]] std::size_t compat_failures() const {
    return compat_failures_;
  }
  [[nodiscard]] std::pair<Tick, Tick> y_window() const {
    return {y_target_lo_, y_target_hi_};
  }

  /// The delete-neighbourhood window [target - d, target + d] in ticks,
  /// clamped at zero in double space: the naive `Tick(target) - d_ticks`
  /// wraps to a huge value for extreme eps/delta and would then *pass*
  /// the window sanity checks.
  [[nodiscard]] static std::pair<Tick, Tick> make_y_window(double target_mass,
                                                          Tick d_ticks);

 private:
  struct Block {
    std::vector<ItemId> items;  ///< left-to-right
    bool valid = false;
  };

  struct Loc {
    bool in_trash = true;
    std::size_t block = 0;  ///< valid when !in_trash
  };

  // Layout helpers --------------------------------------------------------
  void remove_item(ItemId id);
  /// Moves a batch of items to new offsets (final positions must be
  /// pairwise disjoint); Memory's index tolerates the transient offset
  /// collisions mid-batch.
  void apply_moves(const std::vector<std::pair<ItemId, Tick>>& moves);
  [[nodiscard]] Tick main_end() const;
  [[nodiscard]] bool trash_empty() const;
  [[nodiscard]] Tick buffer_gap() const;

  // Algorithm pieces ------------------------------------------------------
  /// Gathers Y around `id` (which is included); returns the item list in
  /// offset order and sets `span_lo`.  Returns nullopt when the window is
  /// unreachable (degenerate population — caller rebuilds).
  std::optional<std::vector<ItemId>> gather_y(ItemId id, Tick* span_lo);
  /// Finds a subset of `block`'s item sizes with sum in [lo, hi]; measures
  /// decision time.
  std::optional<std::vector<ItemId>> find_subset(const Block& block, Tick lo,
                                                 Tick hi);
  void push_blocks_from(std::size_t bidx);
  /// Pushes blocks [bidx, end) using an explicit left boundary (needed when
  /// items of the pushed blocks were already rearranged).
  void push_range(std::size_t bidx, Tick from_off);
  void regulate_buffer_small();
  void regulate_buffer_big();
  void rebuild();
  void resample_r();
  [[nodiscard]] std::optional<std::size_t> rightmost_valid() const;

  LayoutStore* mem_;
  Rng rng_;
  double eps_;
  double delta_;
  Tick cap_;
  Tick delta_lo_, delta_hi_;  ///< admissible size range [delta, 2delta]
  std::size_t m_;
  Tick g_;
  Tick buffer_cap_;  ///< eps/2 of capacity
  bool big_delta_;
  Tick y_target_lo_, y_target_hi_;  ///< (3/4) m delta ± delta

  // Layout lookups go through Memory's ordered-by-offset index — RSUM
  // keeps no private offset map (single-layout-index invariant).
  std::unordered_map<ItemId, Loc> loc_;
  std::vector<Block> blocks_;
  std::size_t valid_count_ = 0;
  Tick trash_start_ = 0;  ///< meaningful only when trash is non-empty
  std::uint64_t r_ = 1;

  std::size_t rebuilds_ = 0;
  std::size_t compat_checks_ = 0;
  std::size_t compat_failures_ = 0;
  double decision_seconds_ = 0.0;
};

}  // namespace memreal
