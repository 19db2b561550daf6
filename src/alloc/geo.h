// GEO — Theorem 4.1 / Algorithms 2–5 of the paper.
//
// Regime: item sizes in [eps^5, 1].  Expected update cost O~(eps^-1/2).
//
// Structure
// ---------
//  * Items of size >= sqrt(eps)/100 are "huge" and live compacted at the
//    start of memory; every huge update rearranges memory at cost
//    O(eps^-1/2).
//  * Non-huge items fall into geometric size classes
//    [eps^5 beta^{i-1}, eps^5 beta^i) with beta = 1 + sqrt(eps); there are
//    C = O(eps^-1/2 log eps^-1) classes.
//  * ell = ceil(4.5 log2(eps^-1)) nested covering levels: level j is a
//    suffix of memory with per-class mass limit m_j = 2^{ell-j+1} eps^5.
//    Level j may hold at most 2*c_{i,j} items of class i, where
//    c_{i,j} = floor(m_j / b_i).
//  * Each (class, level) pair keeps randomized insert/delete rebuild
//    thresholds drawn from [ceil(c/4), ceil(c/3)] (Lemma 4.4 randomness).
//    Every update of class i rebuilds the shallowest level whose counter
//    reached its threshold (the deepest level always fires: its threshold
//    is 1).
//  * Deletes of an item outside its deepest feasible level j*_i swap in
//    the smallest class-i item (which the invariants keep inside level
//    j*_i), logically inflating it; the waste of each swap is bounded by
//    the class width and recovered by randomized waste-recovery steps with
//    thresholds drawn from (eps/2, eps) (Lemma 4.3 randomness).
//
// Layout discipline: [huge][label 0][label 1]...[label ell], contiguous in
// extents, left-aligned at 0.  An item's label is the deepest level that
// contains it; level j = all items with label >= j.
//
// Bookkeeping is flat, and a level rebuild does no hash probe and no
// tree-node hop.  Every live item holds a dense GEO-local handle (recycled
// through a free list); its class and order_ position live in
// handle-indexed arrays.  order_ carries two parallel arrays in layout
// order: the items' handles and their labels (ascending, -1 for huge
// items), so the level suffixes are binary searches over contiguous
// labels and a swap partner inherits its label by taking over the deleted
// item's entry.  The id -> handle FlatIdMap is probed once per insert and
// once per erase.  Each class keeps a sorted vector bucket of {logical
// size, id, handle} in (size, id) order.  A level rebuild walks the
// buckets reading positions through handles, picks each label with a
// cursor over c_{i,.} that only moves shallower (c is non-increasing in j
// and rank only grows), and regroups the suffix stably by label one run of
// equal new labels at a time: a rebuild relabels few items (~4 of a
// ~400-item suffix at eps 1/32, in ~13 runs), and each run moves as one
// block (member buffers, no allocation per rebuild) whose labels are
// filled in at its destination.  Only the stretch between the outermost
// moved runs is copied back, re-indexed and relaid, as one
// LayoutStore::apply_run batch that permutes its own stretch of memory.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocator.h"
#include "core/layout_store.h"
#include "util/check.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace memreal {

struct GeoConfig {
  double eps = 1.0 / 64;
  std::uint64_t seed = 0xC0FFEE;
  /// Ablation T8a: deterministic thresholds (always the max of the range)
  /// instead of the randomized draws.  The paper's analysis breaks and a
  /// single-class attack can synchronize expensive rebuilds.
  bool deterministic_thresholds = false;
};

class GeoAllocator final : public Allocator {
 public:
  GeoAllocator(LayoutStore& mem, const GeoConfig& config);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override { return "geo"; }
  void check_invariants() const override;

  // -- introspection --------------------------------------------------------
  [[nodiscard]] int level_count() const { return ell_; }
  [[nodiscard]] std::size_t class_count() const { return class_lo_.size(); }
  [[nodiscard]] Tick huge_threshold() const { return huge_thr_; }
  [[nodiscard]] std::size_t waste_recoveries() const {
    return waste_recoveries_;
  }
  [[nodiscard]] std::size_t level_rebuilds() const { return level_rebuilds_; }
  [[nodiscard]] std::size_t class_of_size(Tick size) const;
  [[nodiscard]] int deepest_level_for_class(std::size_t cls) const {
    return jstar_[cls];
  }
  /// Number of items currently labelled >= j (level j size in items).
  [[nodiscard]] std::size_t level_item_count(int j) const;

 private:
  /// One member of a class bucket; buckets are sorted by (size, id).
  struct ClassEntry {
    Tick size;  ///< logical size (extent)
    ItemId id;
    std::uint32_t h;  ///< the item's handle

    bool operator<(const ClassEntry& o) const {
      return size != o.size ? size < o.size : id < o.id;
    }
  };

  /// Binds `id` to a fresh or recycled handle (one map probe); throws on a
  /// duplicate id without changing any state.
  std::uint32_t bind_handle(ItemId id);
  void bucket_insert(std::size_t cls, Tick size, ItemId id, std::uint32_t h);
  void bucket_erase(std::size_t cls, Tick size, ItemId id);
  /// Drops order_[k], its handle and its label (positions after k go
  /// stale).
  void order_erase(std::size_t k);

  /// Lays order_[from..] out contiguously after order_[from - 1] and
  /// refreshes their positions.
  void apply_layout(std::size_t from);
  /// The relayout alone: one apply_run over order_[from, to).
  void place_run(std::size_t from, std::size_t to);
  [[nodiscard]] std::size_t suffix_start_for_label(int label) const;
  void rebuild_level(int j0);
  void waste_recovery();
  void bump_counters_and_rebuild(std::size_t cls, bool is_insert);
  [[nodiscard]] std::uint64_t sample_threshold(std::uint64_t c);

  LayoutStore* mem_;
  double eps_;
  Tick eps_t_;
  Tick cap_;
  Rng rng_;
  bool deterministic_;

  Tick e5_;        ///< eps^5 * cap (min non-huge size, class base)
  Tick huge_thr_;  ///< sqrt(eps)/100 * cap
  int ell_;        ///< number of levels
  std::vector<Tick> m_;         ///< m_[j], j in [1, ell]; m_[0] = capacity
  std::vector<Tick> class_lo_;  ///< class c covers [class_lo_[c], class_hi_[c])
  std::vector<Tick> class_hi_;
  std::vector<std::vector<std::uint64_t>> c_;  ///< c_[cls][j], j in [0, ell]
  std::vector<int> jstar_;

  // Per (class, level) counters and thresholds, j in [1, ell].
  std::vector<std::vector<std::uint64_t>> ins_count_, del_count_;
  std::vector<std::vector<std::uint64_t>> ins_thr_, del_thr_;

  std::vector<ItemId> order_;  ///< sorted: huge first, then by label asc
  std::vector<std::uint32_t> order_h_;  ///< order_'s handles, same indices
  /// order_'s labels, same indices: -1 = huge; 0..ell = deepest level.
  std::vector<int> order_label_;
  FlatIdMap<std::uint32_t> handle_;     ///< id -> handle of a live item
  std::vector<std::uint32_t> free_handles_;
  // Per-handle state; entries of freed handles are stale until reused.
  std::vector<std::size_t> cls_;  ///< size class (valid when label >= 0)
  std::vector<std::size_t> pos_;  ///< index in order_
  std::vector<std::vector<ClassEntry>> class_items_;
  std::size_t huge_count_ = 0;

  Tick waste_acc_ = 0;
  Tick waste_thr_ = 0;  ///< uniform in (eps/2, eps)
  std::size_t waste_recoveries_ = 0;
  std::size_t level_rebuilds_ = 0;

  /// A maximal run of equal new labels in the suffix being rebuilt.
  struct LabelRun {
    std::size_t start;  ///< suffix position before the regroup
    std::size_t len;
    std::size_t dst;  ///< suffix position after the regroup
    int label;
  };

  // rebuild_level scratch, reused across calls.
  std::vector<int> new_label_;            ///< by suffix position
  std::vector<LabelRun> label_runs_;      ///< new_label_'s runs, in order
  std::vector<std::size_t> label_start_;  ///< per-label group cursors
  std::vector<ItemId> sorted_;            ///< the regrouped stretch
  std::vector<std::uint32_t> sorted_h_;   ///< its handles
};

}  // namespace memreal
