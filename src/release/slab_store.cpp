#include "release/slab_store.h"

#include <algorithm>

#include "util/check.h"

namespace memreal {

SlabStore::SlabStore(Tick capacity, Tick eps_ticks, ValidationPolicy policy)
    : capacity_(capacity), eps_ticks_(eps_ticks), policy_(policy) {
  MEMREAL_CHECK(capacity > 0);
  MEMREAL_CHECK_MSG(eps_ticks >= 1,
                    "eps truncated to zero ticks — the load-factor and "
                    "resizable-bound checks would be vacuous (see Eps::of)");
  MEMREAL_CHECK_MSG(eps_ticks < capacity, "eps must be < 1");
}

// -- Ordered index maintenance ----------------------------------------------

std::size_t SlabStore::index_lower_bound(std::size_t lo, std::size_t hi,
                                         Tick offset, ItemId id) const {
  const auto first = by_offset_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = by_offset_.begin() + static_cast<std::ptrdiff_t>(hi);
  const auto it = std::lower_bound(
      first, last, std::pair{offset, id},
      [this](std::uint32_t slot, const std::pair<Tick, ItemId>& key) {
        return std::pair{offsets_[slot], ids_[slot]} < key;
      });
  return static_cast<std::size_t>(it - by_offset_.begin());
}

void SlabStore::repair_order() const {
  if (!pending_sorted_) {
    std::sort(pending_.begin(), pending_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return slot_less(a, b);
              });
  }
  const std::size_t total = by_offset_.size();
  const std::size_t m = pending_.size();
  // When holes and pending slots balance, every entry past the last hole
  // and the largest pending key keeps its position; otherwise the whole
  // tail shifts.
  std::size_t hi = total;
  if (m == holes_) {
    const std::uint32_t last = pending_.back();
    hi = index_lower_bound(last_hole_ + 1, total, offsets_[last], ids_[last]);
  }
  // Drop the holes: the settled entries of [first hole, hi) slide left.
  std::size_t end = hi;
  if (holes_ != 0) {
    end = first_hole_;
    for (std::size_t p = first_hole_; p < hi; ++p) {
      const std::uint32_t slot = by_offset_[p];
      if (slot == kHole) continue;
      by_offset_[end] = slot;
      index_pos_[slot] = static_cast<std::uint32_t>(end);
      ++end;
    }
  }
  // Merge pending_ in from the right, in place: the write cursor stays
  // ahead of the read cursor by the number of slots still pending.
  if (hi == total) by_offset_.resize(end + m);
  std::size_t write = end + m;
  std::size_t read = end;
  for (std::size_t q = m; q > 0;) {
    std::uint32_t slot = pending_[q - 1];
    if (read > 0 && slot_less(slot, by_offset_[read - 1])) {
      slot = by_offset_[--read];
    } else {
      --q;
    }
    by_offset_[--write] = slot;
    index_pos_[slot] = static_cast<std::uint32_t>(write);
  }
  pending_.clear();
  pending_sorted_ = true;
  holes_ = 0;
}

// -- Transactions -----------------------------------------------------------

void SlabStore::begin_update(Tick update_size, bool is_insert) {
  MEMREAL_CHECK_MSG(!in_update_, "nested update");
  MEMREAL_CHECK(update_size > 0);
  (void)is_insert;  // the load-factor promise is audited, not gated here
  in_update_ = true;
  moved_ = 0;
}

Tick SlabStore::end_update() {
  MEMREAL_CHECK_MSG(in_update_, "end_update without begin_update");
  settle();
  in_update_ = false;
  total_moved_ += moved_;
  ++updates_;
  return moved_;
}

// -- Layout mutation --------------------------------------------------------

void SlabStore::place(ItemId id, Tick offset, Tick size, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  MEMREAL_CHECK(size > 0);
  if (extent == 0) extent = size;
  MEMREAL_CHECK(extent >= size);
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  MEMREAL_CHECK_MSG(slot_.insert(id, slot),
                    "item " << id << " already placed");
  ids_.push_back(id);
  offsets_.push_back(offset);
  sizes_.push_back(size);
  extents_.push_back(extent);
  index_pos_.push_back(static_cast<std::uint32_t>(by_offset_.size()));
  if (fits_at(by_offset_.size(), slot)) {
    by_offset_.push_back(slot);  // rightmost: every append-style insert
  } else {
    enqueue(slot);
  }
  span_add(offset + extent);
  live_mass_ += size;
  extent_mass_ += extent;
  moved_ += size;
}

void SlabStore::move_to(ItemId id, Tick offset) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::uint32_t slot = slot_of(id);
  const Tick old_offset = offsets_[slot];
  if (old_offset == offset) return;
  const Tick extent = extents_[slot];
  span_drop(old_offset + extent);
  offsets_[slot] = offset;
  span_add(offset + extent);
  const std::uint32_t pos = index_pos_[slot];
  if ((pos & kQueued) != 0) {
    pending_sorted_ = false;
  } else if (!fits_at(pos, slot)) {
    punch_hole(pos);
    enqueue(slot);
  }
  moved_ += sizes_[slot];
}

Tick SlabStore::apply_run(std::span<const ItemId> ids, Tick offset) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  if (ids.size() == ids_.size() && !ids.empty()) {
    // Full-layout rewrite (every SIMPLE rebuild): the run IS the final
    // offset order, so by_offset_ is written directly, replacing any hole
    // or pending slot.  Extents >= 1 make the resulting offsets strictly
    // increasing, and the span is the last item's end.
    by_offset_.resize(ids.size());
    pending_.clear();
    pending_sorted_ = true;
    holes_ = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::uint32_t slot = slot_of(ids[k]);
      if (offsets_[slot] != offset) {
        offsets_[slot] = offset;
        moved_ += sizes_[slot];
      }
      by_offset_[k] = slot;
      index_pos_[slot] = static_cast<std::uint32_t>(k);
      offset += extents_[slot];
    }
    span_ = offset;
    span_dirty_ = false;
    return offset;
  }
  // Partial run (covering-set compaction, GEO level rebuilds).  It starts
  // with nothing queued, so its moved slots, collected in pending_ while
  // still indexed where they were, join the queue in run order — key
  // order — and never mix with earlier queued slots.
  if (!pending_.empty()) settle();
  for (const ItemId id : ids) {
    const std::uint32_t slot = slot_of(id);
    if (offsets_[slot] != offset) {
      offsets_[slot] = offset;
      moved_ += sizes_[slot];
      pending_.push_back(slot);
    }
    offset += extents_[slot];
  }
  // Unmoved slots kept their keys, so the index is still in order iff
  // every moved slot fits between its neighbours: then they all stay
  // (every compaction run).  Otherwise they all queue.
  if (std::all_of(pending_.begin(), pending_.end(), [this](std::uint32_t s) {
        return fits_at(index_pos_[s], s);
      })) {
    pending_.clear();
  } else {
    for (std::size_t k = 0; k < pending_.size(); ++k) {
      const std::uint32_t slot = pending_[k];
      punch_hole(index_pos_[slot]);
      index_pos_[slot] = kQueued | static_cast<std::uint32_t>(k);
    }
  }
  // Run items are extent-contiguous by construction, so the run's max end
  // is the final `offset`; when the span was clean and the run reaches at
  // or past it, every surviving end is <= `offset` and the span is exact.
  // A run ending short may have moved the old maximum down — recompute
  // lazily.
  if (!span_dirty_ && offset >= span_) {
    span_ = offset;
  } else {
    span_dirty_ = true;
  }
  return offset;
}

void SlabStore::reset_extents(std::span<const ItemId> ids) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  if (ids.size() == ids_.size() && !ids.empty()) {
    // Whole-layout revert (step 1 of every SIMPLE rebuild): one linear
    // pass over the slot arrays instead of one id probe per item.
    for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
      extent_mass_ += sizes_[slot];
      extent_mass_ -= extents_[slot];
      extents_[slot] = sizes_[slot];
    }
    span_dirty_ = true;  // deflation can shrink the rightmost end
    return;
  }
  for (const ItemId id : ids) reset_extent(id);
}

void SlabStore::set_extent(ItemId id, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::uint32_t slot = slot_of(id);
  MEMREAL_CHECK_MSG(extent >= sizes_[slot], "extent " << extent
                                                      << " below true size "
                                                      << sizes_[slot]);
  const Tick offset = offsets_[slot];
  span_drop(offset + extents_[slot]);
  span_add(offset + extent);
  extent_mass_ += extent;
  extent_mass_ -= extents_[slot];
  extents_[slot] = extent;
}

void SlabStore::reset_extent(ItemId id) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::uint32_t slot = slot_of(id);
  const Tick offset = offsets_[slot];
  const Tick size = sizes_[slot];
  span_drop(offset + extents_[slot]);
  span_add(offset + size);
  extent_mass_ += size;
  extent_mass_ -= extents_[slot];
  extents_[slot] = size;
}

void SlabStore::remove(ItemId id) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::optional<std::uint32_t> taken = slot_.take(id);
  MEMREAL_CHECK_MSG(taken.has_value(), "unknown item id " << id);
  const std::uint32_t slot = *taken;
  live_mass_ -= sizes_[slot];
  extent_mass_ -= extents_[slot];
  span_drop(offsets_[slot] + extents_[slot]);
  // A settled slot leaves a hole; a queued one leaves pending_ by
  // swap-with-last, re-pointing the moved entry's queue index.
  const std::uint32_t pos = index_pos_[slot];
  if ((pos & kQueued) == 0) {
    punch_hole(pos);
  } else {
    const std::uint32_t q = pos & ~kQueued;
    if (q + 1 != pending_.size()) pending_sorted_ = false;
    pending_[q] = pending_.back();
    index_pos_[pending_[q]] = pos;
    pending_.pop_back();
  }
  // Swap-with-last keeps the record arrays dense; the moved record's map
  // and index entries must be re-pointed at its new slot.
  const auto last = static_cast<std::uint32_t>(ids_.size() - 1);
  if (slot != last) {
    ids_[slot] = ids_[last];
    offsets_[slot] = offsets_[last];
    sizes_[slot] = sizes_[last];
    extents_[slot] = extents_[last];
    const std::uint32_t last_pos = index_pos_[last];
    index_pos_[slot] = last_pos;
    if ((last_pos & kQueued) != 0) {
      pending_[last_pos & ~kQueued] = slot;
    } else {
      by_offset_[last_pos] = slot;
    }
    *slot_.find(ids_[slot]) = slot;
  }
  ids_.pop_back();
  offsets_.pop_back();
  sizes_.pop_back();
  extents_.pop_back();
  index_pos_.pop_back();
}

// -- Span cache -------------------------------------------------------------

void SlabStore::recompute_span() const {
  Tick m = 0;
  for (std::size_t s = 0; s < offsets_.size(); ++s) {
    m = std::max(m, offsets_[s] + extents_[s]);
  }
  span_ = m;
  span_dirty_ = false;
}

// -- Ordered queries --------------------------------------------------------

std::optional<PlacedItem> SlabStore::item_at(Tick offset) const {
  // The first entry strictly past every id at `offset` (kNoItem is never
  // placed) — mirror of Memory::item_at.
  settle();
  const std::size_t pos = index_lower_bound(offset, kNoItem);
  if (pos == 0) return std::nullopt;
  const std::uint32_t slot = by_offset_[pos - 1];
  if (offsets_[slot] + extents_[slot] > offset) return placed(slot);
  return std::nullopt;
}

std::optional<PlacedItem> SlabStore::first_at_or_after(Tick offset) const {
  settle();
  const std::size_t pos = index_lower_bound(offset, ItemId{0});
  if (pos == by_offset_.size()) return std::nullopt;
  return placed(by_offset_[pos]);
}

std::optional<PlacedItem> SlabStore::last_before(Tick offset) const {
  settle();
  const std::size_t pos = index_lower_bound(offset, ItemId{0});
  if (pos == 0) return std::nullopt;
  return placed(by_offset_[pos - 1]);
}

std::optional<PlacedItem> SlabStore::first_item() const {
  settle();
  if (by_offset_.empty()) return std::nullopt;
  return placed(by_offset_.front());
}

std::optional<PlacedItem> SlabStore::last_item() const {
  settle();
  if (by_offset_.empty()) return std::nullopt;
  return placed(by_offset_.back());
}

SlabStore::Neighbors SlabStore::neighbors_of(ItemId id) const {
  const std::uint32_t slot = slot_of(id);
  settle();
  const std::size_t pos = index_pos_[slot];
  Neighbors out;
  if (pos > 0) out.prev = placed(by_offset_[pos - 1]);
  if (pos + 1 < by_offset_.size()) out.next = placed(by_offset_[pos + 1]);
  return out;
}

std::vector<PlacedItem> SlabStore::items_in(Tick from, Tick to) const {
  settle();
  std::vector<PlacedItem> out;
  for (std::size_t pos = index_lower_bound(from, ItemId{0});
       pos < by_offset_.size() && offsets_[by_offset_[pos]] < to; ++pos) {
    out.push_back(placed(by_offset_[pos]));
  }
  return out;
}

std::vector<PlacedItem> SlabStore::snapshot() const {
  settle();
  std::vector<PlacedItem> out;
  out.reserve(by_offset_.size());
  for (const std::uint32_t slot : by_offset_) out.push_back(placed(slot));
  return out;
}

std::vector<std::pair<Tick, Tick>> SlabStore::gaps() const {
  settle();
  std::vector<std::pair<Tick, Tick>> out;
  Tick cursor = 0;
  for (const std::uint32_t slot : by_offset_) {
    const Tick offset = offsets_[slot];
    if (offset > cursor) out.emplace_back(cursor, offset - cursor);
    cursor = std::max(cursor, offset + extents_[slot]);
  }
  return out;
}

// -- Validation -------------------------------------------------------------

void SlabStore::audit() const {
  MEMREAL_CHECK_MSG(ids_.size() == offsets_.size() &&
                        ids_.size() == sizes_.size() &&
                        ids_.size() == extents_.size(),
                    "SoA array size drift");
  MEMREAL_CHECK_MSG(slot_.size() == ids_.size(), "id-map size drift");
  if (!in_update_) {
    MEMREAL_CHECK_MSG(pending_.empty() && holes_ == 0,
                      "index left unsettled between updates");
  }
  settle();
  MEMREAL_CHECK_MSG(by_offset_.size() == ids_.size(),
                    "by-offset index size drift");
  MEMREAL_CHECK_MSG(index_pos_.size() == ids_.size(),
                    "position-cache size drift");

  Tick live = 0;
  Tick ext = 0;
  Tick prev_end = 0;
  Tick max_end = 0;
  ItemId prev_id = kNoItem;
  Tick prev_offset = 0;
  for (std::size_t pos = 0; pos < by_offset_.size(); ++pos) {
    const std::uint32_t slot = by_offset_[pos];
    MEMREAL_CHECK_MSG(slot < ids_.size(), "by-offset index slot drift");
    MEMREAL_CHECK_MSG(index_pos_[slot] == pos,
                      "position-cache drift for item " << ids_[slot]);
    const ItemId id = ids_[slot];
    const Tick offset = offsets_[slot];
    const Tick size = sizes_[slot];
    const Tick extent = extents_[slot];
    if (pos > 0) {
      MEMREAL_CHECK_MSG(
          (std::pair{prev_offset, prev_id} < std::pair{offset, id}),
          "by-offset index out of order at item " << id);
    }
    MEMREAL_CHECK_MSG(offset >= prev_end,
                      "overlap: item " << id << " at [" << offset << ", "
                                       << offset + extent
                                       << ") intersects item " << prev_id
                                       << " ending at " << prev_end);
    MEMREAL_CHECK(extent >= size);
    MEMREAL_CHECK_MSG(slot_of(id) == slot, "id-map drift for item " << id);
    prev_end = offset + extent;
    max_end = std::max(max_end, prev_end);
    prev_id = id;
    prev_offset = offset;
    live += size;
    ext += extent;
  }
  MEMREAL_CHECK_MSG(live == live_mass_, "live-mass accounting drift");
  MEMREAL_CHECK_MSG(ext == extent_mass_, "extent-mass accounting drift");
  MEMREAL_CHECK_MSG(span_end() == max_end, "span-cache drift");

  MEMREAL_CHECK_MSG(max_end <= capacity_, "layout beyond capacity");
  if (policy_.check_resizable_bound) {
    MEMREAL_CHECK_MSG(max_end <= live_mass_ + eps_ticks_,
                      "resizable bound violated: span "
                          << max_end << " > L + eps = "
                          << live_mass_ + eps_ticks_);
  }
  MEMREAL_CHECK_MSG(live_mass_ + eps_ticks_ <= capacity_,
                    "load factor above 1 - eps");
}

void SlabStore::debug_corrupt_first_offset(Tick delta) {
  MEMREAL_CHECK_MSG(!by_offset_.empty(), "nothing to corrupt");
  offsets_[by_offset_.front()] += delta;
}

}  // namespace memreal
