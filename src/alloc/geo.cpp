#include "alloc/geo.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "util/check.h"
#include "util/thresholds.h"

namespace memreal {

GeoAllocator::GeoAllocator(LayoutStore& mem, const GeoConfig& config)
    : mem_(&mem),
      eps_(config.eps),
      rng_(config.seed),
      deterministic_(config.deterministic_thresholds) {
  MEMREAL_CHECK(eps_ > 0 && eps_ < 0.5);
  cap_ = mem_->capacity();
  const auto cap_d = static_cast<double>(cap_);
  // GEO's free-space parameter comes from its own config: Corollary 4.10
  // instantiates GEO with eps/2 inside a memory whose global parameter is
  // eps.  Standalone uses the full eps.
  eps_t_ = static_cast<Tick>(eps_ * cap_d);
  MEMREAL_CHECK(eps_t_ > 1);

  const double e5_d = std::pow(eps_, 5.0) * cap_d;
  e5_ = std::max<Tick>(1, static_cast<Tick>(e5_d));
  huge_thr_ = std::max<Tick>(
      e5_ + 1, static_cast<Tick>(std::sqrt(eps_) / 100.0 * cap_d));
  MEMREAL_CHECK_MSG(
      static_cast<double>(e5_) * std::sqrt(eps_) >= 1.0,
      "capacity too small for eps: class boundaries would collapse; "
      "increase Memory capacity");

  // Geometric size-class boundaries: lo_0 = eps^5, hi_c = lo_c * beta.
  const double beta = 1.0 + std::sqrt(eps_);
  double lo = static_cast<double>(e5_);
  while (true) {
    const auto lo_t = static_cast<Tick>(lo);
    auto hi_t = static_cast<Tick>(lo * beta);
    if (hi_t <= lo_t) hi_t = lo_t + 1;
    class_lo_.push_back(lo_t);
    class_hi_.push_back(hi_t);
    if (hi_t >= huge_thr_) break;
    lo = lo * beta;
    MEMREAL_CHECK_MSG(class_lo_.size() < 1u << 22, "class explosion");
  }
  // The last class absorbs everything up to the huge threshold.
  class_hi_.back() = std::max(class_hi_.back(), huge_thr_);

  // Levels: ell = ceil(4.5 log2(eps^-1)); m_j = 2^{ell-j+1} * eps^5.
  ell_ = static_cast<int>(std::ceil(4.5 * std::log2(1.0 / eps_)));
  MEMREAL_CHECK(ell_ >= 1);
  m_.assign(static_cast<std::size_t>(ell_) + 1, 0);
  m_[0] = cap_;
  for (int j = 1; j <= ell_; ++j) {
    const int shift = ell_ - j + 1;
    MEMREAL_CHECK(shift < 62);
    m_[static_cast<std::size_t>(j)] = e5_ << shift;
  }
  // Every non-huge item must fit in level 1: m_1 >= 2 * max class bound.
  MEMREAL_CHECK_MSG(m_[1] >= 2 * class_hi_.back(),
                    "level-1 mass limit below the largest non-huge class");

  // c_{i,j} = floor(m_j / b_i); j* = deepest level with c >= 1.
  const std::size_t classes = class_lo_.size();
  c_.assign(classes, std::vector<std::uint64_t>(
                         static_cast<std::size_t>(ell_) + 1, 0));
  jstar_.assign(classes, 1);
  for (std::size_t i = 0; i < classes; ++i) {
    c_[i][0] = ~std::uint64_t{0};  // level 0 is all of memory: no limit
    for (int j = 1; j <= ell_; ++j) {
      c_[i][static_cast<std::size_t>(j)] =
          m_[static_cast<std::size_t>(j)] / class_hi_[i];
      if (c_[i][static_cast<std::size_t>(j)] >= 1) jstar_[i] = j;
    }
    MEMREAL_CHECK(c_[i][1] >= 1);
  }

  // Counters and randomized thresholds, all "freshly freely rebuilt".
  ins_count_.assign(classes, std::vector<std::uint64_t>(
                                 static_cast<std::size_t>(ell_) + 1, 0));
  del_count_ = ins_count_;
  ins_thr_.assign(classes, std::vector<std::uint64_t>(
                               static_cast<std::size_t>(ell_) + 1, 1));
  del_thr_ = ins_thr_;
  for (std::size_t i = 0; i < classes; ++i) {
    for (int j = 1; j <= jstar_[i]; ++j) {
      ins_thr_[i][static_cast<std::size_t>(j)] =
          sample_threshold(c_[i][static_cast<std::size_t>(j)]);
      del_thr_[i][static_cast<std::size_t>(j)] =
          sample_threshold(c_[i][static_cast<std::size_t>(j)]);
    }
  }

  class_items_.assign(classes, {});
  waste_thr_ = rng_.next_tick_in(eps_t_ / 2, eps_t_);
}

std::uint64_t GeoAllocator::sample_threshold(std::uint64_t c) {
  MEMREAL_CHECK(c >= 1);
  const std::uint64_t lo = ceil_div(c, 4);
  const std::uint64_t hi = ceil_div(c, 3);
  if (deterministic_) return hi;
  return rng_.next_in(lo, hi);
}

std::size_t GeoAllocator::class_of_size(Tick size) const {
  MEMREAL_CHECK_MSG(size >= class_lo_.front(), "size below eps^5");
  MEMREAL_CHECK_MSG(size < huge_thr_, "class_of_size on a huge item");
  auto it = std::upper_bound(class_lo_.begin(), class_lo_.end(), size);
  auto idx = static_cast<std::size_t>(it - class_lo_.begin()) - 1;
  // Collapsed boundaries (equal class_lo values) resolve to the last one.
  MEMREAL_CHECK(size >= class_lo_[idx] && size < class_hi_[idx]);
  return idx;
}

std::uint32_t GeoAllocator::bind_handle(ItemId id) {
  const std::uint32_t h = free_handles_.empty()
                              ? static_cast<std::uint32_t>(cls_.size())
                              : free_handles_.back();
  MEMREAL_CHECK_MSG(handle_.insert(id, h), "duplicate id " << id);
  if (h == cls_.size()) {
    cls_.push_back(0);
    pos_.push_back(0);
  } else {
    free_handles_.pop_back();
  }
  return h;
}

void GeoAllocator::bucket_insert(std::size_t cls, Tick size, ItemId id,
                                 std::uint32_t h) {
  auto& bucket = class_items_[cls];
  const ClassEntry e{size, id, h};
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), e), e);
}

void GeoAllocator::bucket_erase(std::size_t cls, Tick size, ItemId id) {
  auto& bucket = class_items_[cls];
  const auto it =
      std::lower_bound(bucket.begin(), bucket.end(), ClassEntry{size, id, 0});
  MEMREAL_CHECK_MSG(it != bucket.end() && it->id == id && it->size == size,
                    "item " << id << " missing from its class bucket");
  bucket.erase(it);
}

void GeoAllocator::order_erase(std::size_t k) {
  const auto at = static_cast<std::ptrdiff_t>(k);
  order_.erase(order_.begin() + at);
  order_h_.erase(order_h_.begin() + at);
  order_label_.erase(order_label_.begin() + at);
}

void GeoAllocator::place_run(std::size_t from, std::size_t to) {
  const Tick off = from == 0 ? 0 : mem_->end_of(order_[from - 1]);
  mem_->apply_run(std::span<const ItemId>(order_).subspan(from, to - from),
                  off);
}

void GeoAllocator::apply_layout(std::size_t from) {
  place_run(from, order_.size());
  for (std::size_t k = from; k < order_.size(); ++k) {
    pos_[order_h_[k]] = k;
  }
}

std::size_t GeoAllocator::suffix_start_for_label(int label) const {
  // order_ is sorted by label (huge = -1 first).
  return static_cast<std::size_t>(
      std::lower_bound(order_label_.begin(), order_label_.end(), label) -
      order_label_.begin());
}

std::size_t GeoAllocator::level_item_count(int j) const {
  return order_.size() - suffix_start_for_label(j);
}

void GeoAllocator::rebuild_level(int j0) {
  MEMREAL_CHECK(j0 >= 1 && j0 <= ell_);
  ++level_rebuilds_;
  // We rearrange level j0-1 (labels >= j0-1).
  const int base = j0 - 1;
  const std::size_t ss = suffix_start_for_label(base);
  const std::size_t len = order_.size() - ss;

  // New labels.  For each class, walk its items in ascending logical size:
  // the item of rank k belongs to I_j for every j with k < c_{i,j}; its new
  // label is the deepest such j >= j0 (or j0-1 if none).  Lemma 4.2
  // guarantees the c_{i,j0} smallest live inside the rearranged suffix —
  // with one implementation caveat: repeated swap-inflation creates exact
  // logical-size *ties*, and among tied items only enough of them need to
  // be inside the suffix.  Selection therefore ranks suffix members first
  // within each run of equal size (each in ascending id order); a strictly
  // smaller item outside the suffix is a genuine violation.  Everything
  // in the suffix that is not selected falls back to label j0-1.
  new_label_.assign(len, base);
  for (std::size_t i = 0; i < class_lo_.size(); ++i) {
    const std::vector<ClassEntry>& bucket = class_items_[i];
    if (bucket.empty()) continue;
    const std::vector<std::uint64_t>& ci = c_[i];
    const std::uint64_t take = ci[static_cast<std::size_t>(j0)];
    std::uint64_t rank = 0;
    // Label cursor: the deepest j in [j0, j*_i] with rank < c_{i,j}, or
    // j0-1 once none is left.  c_{i,j} is non-increasing in j and rank
    // only grows, so the cursor only moves shallower.
    int lbl = std::max(jstar_[i], base);
    std::size_t k = 0;
    while (k < bucket.size() && rank < take) {
      // One run of equal logical size: rank its suffix members now; any
      // outsider ranks after them and so must not be reached.
      const Tick size = bucket[k].size;
      bool outsider = false;
      for (; k < bucket.size() && bucket[k].size == size && rank < take;
           ++k) {
        const std::size_t pos = pos_[bucket[k].h];
        if (pos < ss) {
          outsider = true;
          continue;
        }
        while (lbl >= j0 && rank >= ci[static_cast<std::size_t>(lbl)]) {
          --lbl;
        }
        new_label_[pos - ss] = lbl;
        ++rank;
      }
      MEMREAL_CHECK_MSG(!outsider || rank >= take,
                        "Lemma 4.2 violated: I_j member outside level j0-1");
    }
  }
  // Regroup the suffix by new label, stably (I_j to the right of its
  // complement, for every j >= j0; labels span [j0-1, ell]).  A rebuild
  // relabels few items, so the new labels form few runs: each run moves
  // as one block, to the start of its label's group plus the length of
  // the earlier runs of that label.
  label_runs_.clear();
  label_start_.assign(static_cast<std::size_t>(ell_ - base) + 2, 0);
  for (std::size_t k = 0; k < len;) {
    const int lbl = new_label_[k];
    std::size_t end = k + 1;
    while (end < len && new_label_[end] == lbl) ++end;
    label_runs_.push_back(LabelRun{k, end - k, 0, lbl});
    label_start_[static_cast<std::size_t>(lbl - base) + 1] += end - k;
    k = end;
  }
  for (std::size_t b = 1; b < label_start_.size(); ++b) {
    label_start_[b] += label_start_[b - 1];
  }
  // The suffix is contiguous before the regroup, and every item of a run
  // that stays keeps its offset, so only the stretch [first, last) between
  // the outermost moved runs is a permutation of itself that changes.
  // Labels are written where each run lands.
  std::size_t first = len;
  std::size_t last = 0;
  for (LabelRun& run : label_runs_) {
    run.dst = label_start_[static_cast<std::size_t>(run.label - base)];
    label_start_[static_cast<std::size_t>(run.label - base)] += run.len;
    std::fill_n(
        order_label_.begin() + static_cast<std::ptrdiff_t>(ss + run.dst),
        run.len, run.label);
    if (run.dst != run.start) {
      first = std::min(first, run.start);
      last = std::max(last, run.start + run.len);
    }
  }
  if (first >= last) return;
  sorted_.resize(last - first);
  sorted_h_.resize(last - first);
  for (const LabelRun& run : label_runs_) {
    if (run.start < first || run.start >= last) continue;
    const auto from = static_cast<std::ptrdiff_t>(ss + run.start);
    const auto n = static_cast<std::ptrdiff_t>(run.len);
    const auto to = static_cast<std::ptrdiff_t>(run.dst - first);
    std::copy(order_.begin() + from, order_.begin() + from + n,
              sorted_.begin() + to);
    std::copy(order_h_.begin() + from, order_h_.begin() + from + n,
              sorted_h_.begin() + to);
  }
  const auto at = static_cast<std::ptrdiff_t>(ss + first);
  std::copy(sorted_.begin(), sorted_.end(), order_.begin() + at);
  std::copy(sorted_h_.begin(), sorted_h_.end(), order_h_.begin() + at);
  for (std::size_t k = ss + first; k < ss + last; ++k) pos_[order_h_[k]] = k;
  place_run(ss + first, ss + last);
}

void GeoAllocator::bump_counters_and_rebuild(std::size_t cls,
                                             bool is_insert) {
  auto& count = is_insert ? ins_count_[cls] : del_count_[cls];
  auto& thr = is_insert ? ins_thr_[cls] : del_thr_[cls];
  const int js = jstar_[cls];
  int j0 = 0;
  for (int j = 1; j <= js; ++j) {
    ++count[static_cast<std::size_t>(j)];
  }
  for (int j = 1; j <= js; ++j) {
    if (count[static_cast<std::size_t>(j)] >=
        thr[static_cast<std::size_t>(j)]) {
      j0 = j;
      break;
    }
  }
  // The deepest level's threshold range is [1, 1], so some level fires on
  // every update of this class.
  MEMREAL_CHECK_MSG(j0 >= 1, "no level fired; threshold state corrupt");
  rebuild_level(j0);
  // J = all levels whose counter crossed; they are freely rebuilt.
  for (int j = j0; j <= js; ++j) {
    if (count[static_cast<std::size_t>(j)] >=
        thr[static_cast<std::size_t>(j)]) {
      count[static_cast<std::size_t>(j)] = 0;
      thr[static_cast<std::size_t>(j)] =
          sample_threshold(c_[cls][static_cast<std::size_t>(j)]);
    }
  }
}

void GeoAllocator::waste_recovery() {
  ++waste_recoveries_;
  // Revert all logical inflation, compact everything, rebuild level 1.
  // Huge items (the first huge_count_ of order_) are never inflated.
  for (std::size_t k = huge_count_; k < order_.size(); ++k) {
    const ItemId id = order_[k];
    const Tick ext = mem_->extent_of(id);
    const Tick sz = mem_->size_of(id);
    if (ext != sz) {
      const std::uint32_t h = order_h_[k];
      bucket_erase(cls_[h], ext, id);
      mem_->reset_extent(id);
      bucket_insert(cls_[h], sz, id, h);
    }
  }
  apply_layout(0);
  rebuild_level(1);
  // waste_acc_ already holds the overflow W - T (see erase()).
  waste_thr_ = rng_.next_tick_in(eps_t_ / 2, eps_t_);
}

void GeoAllocator::insert(ItemId id, Tick size) {
  const std::uint32_t h = bind_handle(id);
  if (size >= huge_thr_) {
    // Huge item: append to the huge prefix; everything after shifts right.
    // Cost <= L / size <= O(eps^-1/2).
    const auto at = static_cast<std::ptrdiff_t>(huge_count_);
    order_.insert(order_.begin() + at, id);
    order_h_.insert(order_h_.begin() + at, h);
    order_label_.insert(order_label_.begin() + at, -1);
    cls_[h] = 0;
    pos_[h] = huge_count_;
    const Tick off =
        huge_count_ == 0 ? 0 : mem_->end_of(order_[huge_count_ - 1]);
    mem_->place(id, off, size);
    ++huge_count_;
    apply_layout(huge_count_);
    return;
  }

  const std::size_t cls = class_of_size(size);
  // Place immediately after the final item (Algorithm 3), label ell.
  const Tick off = order_.empty() ? 0 : mem_->end_of(order_.back());
  mem_->place(id, off, size);
  cls_[h] = cls;
  pos_[h] = order_.size();
  order_.push_back(id);
  order_h_.push_back(h);
  order_label_.push_back(ell_);
  bucket_insert(cls, size, id, h);

  bump_counters_and_rebuild(cls, /*is_insert=*/true);
}

void GeoAllocator::erase(ItemId id) {
  const std::optional<std::uint32_t> taken = handle_.take(id);
  MEMREAL_CHECK_MSG(taken.has_value(), "erase of unknown item " << id);
  const std::uint32_t h = *taken;
  free_handles_.push_back(h);
  const std::size_t pos = pos_[h];
  const int label = order_label_[pos];

  if (label < 0) {
    // Huge delete: remove and close the hole (compacts huge prefix and
    // shifts the rest left).  Cost <= L / size <= O(eps^-1/2).
    mem_->remove(id);
    order_erase(pos);
    --huge_count_;
    apply_layout(pos);
    return;
  }

  const std::size_t cls = cls_[h];
  const int js = jstar_[cls];
  bool swapped = false;
  Tick swap_waste = 0;
  std::size_t hole_pos;

  if (label < js) {
    // Swap in the smallest class item I' (Algorithm 4 lines 5-8); the
    // invariants guarantee one of minimum logical size lives in level j*
    // (ties are resolved toward the deep copy).
    const std::vector<ClassEntry>& bucket = class_items_[cls];
    MEMREAL_CHECK(!bucket.empty());
    const Tick min_size = bucket.front().size;
    const ClassEntry* other = nullptr;
    for (const ClassEntry& e : bucket) {
      if (e.size != min_size) break;
      if (e.id != id && order_label_[pos_[e.h]] >= js) {
        other = &e;
        break;
      }
    }
    MEMREAL_CHECK_MSG(other != nullptr,
                      "invariant violated: no class minimum in level j*");
    const Tick my_extent = mem_->extent_of(id);
    MEMREAL_CHECK_MSG(other->size <= my_extent,
                      "swap candidate larger than deleted item");
    const ItemId oid = other->id;
    const std::uint32_t oh = other->h;
    const Tick other_extent = other->size;

    const std::size_t q = pos_[oh];
    MEMREAL_CHECK(q > pos);
    const Tick slot = mem_->offset_of(id);
    mem_->remove(id);
    bucket_erase(cls, my_extent, id);  // the deleted item leaves its class
    bucket_erase(cls, other_extent, oid);  // I' re-keyed below
    bucket_insert(cls, my_extent, oid, oh);
    mem_->move_to(oid, slot);
    mem_->set_extent(oid, my_extent);
    pos_[oh] = pos;  // I' inherits I's slot and its label entry
    order_[pos] = oid;
    order_h_[pos] = oh;
    order_erase(q);
    hole_pos = q;
    swapped = true;
    // Waste bound: class width (exact intra-class extent difference).
    swap_waste = class_hi_[cls] - class_lo_[cls];
  } else {
    // Delete inside level j*: just remove.
    bucket_erase(cls, mem_->extent_of(id), id);
    mem_->remove(id);
    hole_pos = pos;
    order_erase(pos);
    swapped = false;
  }
  // Compact level j* (and anything to its right) — closes the hole.
  apply_layout(hole_pos);

  bump_counters_and_rebuild(cls, /*is_insert=*/false);

  if (swapped) {
    waste_acc_ += swap_waste;
    if (waste_acc_ >= waste_thr_) {
      waste_acc_ -= waste_thr_;  // overflow carries (paper: waste = W - T)
      waste_recovery();
    }
  }
}

void GeoAllocator::check_invariants() const {
  MEMREAL_CHECK(order_.size() == handle_.size());
  MEMREAL_CHECK(order_h_.size() == order_.size());
  MEMREAL_CHECK(order_label_.size() == order_.size());
  MEMREAL_CHECK(order_.size() + free_handles_.size() == cls_.size());
  // Layout: contiguous extents, labels ascending, handles and positions
  // consistent.  The same pass totals the inflation waste and the
  // per-(class, label) counts.
  const std::size_t classes = class_lo_.size();
  std::vector<std::vector<std::uint64_t>> cnt(
      classes,
      std::vector<std::uint64_t>(static_cast<std::size_t>(ell_) + 1, 0));
  Tick waste = 0;
  Tick off = 0;
  int prev_label = -1;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const ItemId id = order_[k];
    const std::uint32_t h = order_h_[k];
    const int label = order_label_[k];
    MEMREAL_CHECK_MSG(h < cls_.size() && handle_.at(id) == h,
                      "handle map disagrees with order");
    MEMREAL_CHECK_MSG(mem_->offset_of(id) == off, "layout not contiguous");
    MEMREAL_CHECK(pos_[h] == k);
    MEMREAL_CHECK_MSG(label >= prev_label, "labels out of order");
    MEMREAL_CHECK_MSG((label < 0) == (k < huge_count_),
                      "huge prefix mislabelled");
    prev_label = label;
    off += mem_->extent_of(id);
    waste += mem_->extent_of(id) - mem_->size_of(id);
    if (label >= 0) {
      cnt[cls_[h]][static_cast<std::size_t>(label)] += 1;
    }
  }
  // Waste: total inflation across GEO's own items stays below eps.  (Under
  // the combined allocator, other items share the Memory.)
  MEMREAL_CHECK_MSG(waste <= eps_t_, "inflation waste above eps");
  // Level-size invariant: per class and level j, at most 2*c_{i,j} items
  // with label >= j (and none beyond j*).
  for (std::size_t i = 0; i < classes; ++i) {
    std::uint64_t suffix = 0;
    for (int j = ell_; j >= 1; --j) {
      suffix += cnt[i][static_cast<std::size_t>(j)];
      MEMREAL_CHECK_MSG(
          suffix <= 2 * c_[i][static_cast<std::size_t>(j)],
          "level-size invariant violated: class " << i << " level " << j
                                                  << " has " << suffix);
    }
  }
  // Class buckets: strictly (size, id)-sorted, keyed by current logical
  // size, and holding exactly the non-huge items through their handles.
  std::size_t bucketed = 0;
  for (std::size_t i = 0; i < classes; ++i) {
    const std::vector<ClassEntry>& bucket = class_items_[i];
    bucketed += bucket.size();
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const ClassEntry& e = bucket[k];
      MEMREAL_CHECK(k == 0 || bucket[k - 1] < e);
      MEMREAL_CHECK(mem_->extent_of(e.id) == e.size);
      MEMREAL_CHECK(e.h < cls_.size() && pos_[e.h] < order_.size());
      MEMREAL_CHECK(cls_[e.h] == i && order_label_[pos_[e.h]] >= 0);
      MEMREAL_CHECK(order_h_[pos_[e.h]] == e.h && order_[pos_[e.h]] == e.id);
    }
  }
  MEMREAL_CHECK(bucketed == order_.size() - huge_count_);
  // Some item of minimum logical size of every inhabited class sits in
  // level j* (needed for deletions to be well-defined; ties may leave
  // equal-size copies in shallower levels).
  for (std::size_t i = 0; i < classes; ++i) {
    const std::vector<ClassEntry>& bucket = class_items_[i];
    if (bucket.empty()) continue;
    bool deep = false;
    for (const ClassEntry& e : bucket) {
      if (e.size != bucket.front().size) break;
      if (order_label_[pos_[e.h]] >= jstar_[i]) {
        deep = true;
        break;
      }
    }
    MEMREAL_CHECK_MSG(deep, "class minimum escaped level j*");
  }
}

}  // namespace memreal
