#include "alloc/folklore.h"

#include <algorithm>

#include "util/check.h"

namespace memreal {

namespace {

/// Binary-searches `order` (sorted by offset in `mem`) for the index of id.
std::size_t index_of(const LayoutStore& mem, const std::vector<ItemId>& order,
                     ItemId id) {
  const Tick off = mem.offset_of(id);
  auto it = std::lower_bound(order.begin(), order.end(), off,
                             [&](ItemId a, Tick o) {
                               return mem.offset_of(a) < o;
                             });
  while (it != order.end() && mem.offset_of(*it) == off && *it != id) ++it;
  MEMREAL_CHECK_MSG(it != order.end() && *it == id, "item not in order");
  return static_cast<std::size_t>(it - order.begin());
}

}  // namespace

// ---------------------------------------------------------------------------
// FolkloreCompact
// ---------------------------------------------------------------------------

FolkloreCompact::FolkloreCompact(LayoutStore& mem) : mem_(&mem) {}

Tick FolkloreCompact::waste() const {
  if (order_.empty()) return 0;
  return mem_->end_of(order_.back()) - mem_->live_mass();
}

void FolkloreCompact::insert(ItemId id, Tick size) {
  // First fit: scan gaps left to right.
  Tick prev_end = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Tick off = mem_->offset_of(order_[i]);
    if (off - prev_end >= size) {
      mem_->place(id, prev_end, size);
      order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(i), id);
      return;
    }
    prev_end = off + mem_->extent_of(order_[i]);
  }
  // Append.  waste <= eps/2 guarantees prev_end <= L + eps/2, so the new
  // end prev_end + size stays within [0, (L + size) + eps].
  mem_->place(id, prev_end, size);
  order_.push_back(id);
}

void FolkloreCompact::erase(ItemId id) {
  const std::size_t idx = index_of(*mem_, order_, id);
  mem_->remove(id);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (waste() > mem_->eps_ticks() / 2) {
    compact();
  }
}

void FolkloreCompact::compact() {
  ++compactions_;
  Tick off = 0;
  for (ItemId id : order_) {
    mem_->move_to(id, off);
    off += mem_->extent_of(id);
  }
}

void FolkloreCompact::check_invariants() const {
  MEMREAL_CHECK(order_.size() == mem_->item_count());
  Tick prev_end = 0;
  for (ItemId id : order_) {
    MEMREAL_CHECK_MSG(mem_->offset_of(id) >= prev_end,
                      "order not sorted by offset");
    prev_end = mem_->end_of(id);
  }
  MEMREAL_CHECK_MSG(waste() <= mem_->eps_ticks(),
                    "folklore-compact waste above eps");
}

// ---------------------------------------------------------------------------
// FolkloreWindowed
// ---------------------------------------------------------------------------

FolkloreWindowed::FolkloreWindowed(LayoutStore& mem) : mem_(&mem) {
  mem_->policy().check_resizable_bound = false;
}

void FolkloreWindowed::insert(ItemId id, Tick size) {
  // Cheap path: first fit into an existing gap (including the tail).
  Tick prev_end = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Tick off = mem_->offset_of(order_[i]);
    if (off - prev_end >= size) {
      mem_->place(id, prev_end, size);
      order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(i), id);
      return;
    }
    prev_end = off + mem_->extent_of(order_[i]);
  }
  if (mem_->capacity() - prev_end >= size) {
    mem_->place(id, prev_end, size);
    order_.push_back(id);
    return;
  }
  // Pigeonhole path.
  ++windowed_inserts_;
  const Tick off = windowed_place(size);
  mem_->place(id, off, size);
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(order_.begin(), order_.end(), off,
                       [&](ItemId a, Tick o) {
                         return mem_->offset_of(a) < o;
                       }) -
      order_.begin());
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(idx), id);
}

Tick FolkloreWindowed::windowed_place(Tick size) {
  const Tick cap = mem_->capacity();
  const Tick eps_t = mem_->eps_ticks();
  // Window size W = ceil(3 * size / eps); if W >= capacity, compact all.
  __uint128_t w128 = (static_cast<__uint128_t>(size) * 3 * cap + eps_t - 1) /
                     eps_t;
  if (w128 >= cap) {
    // Full compaction; place at the end.
    Tick off = 0;
    for (ItemId it : order_) {
      mem_->move_to(it, off);
      off += mem_->extent_of(it);
    }
    MEMREAL_CHECK_MSG(cap - off >= size, "promise violated: no room");
    return off;
  }
  const Tick w = static_cast<Tick>(w128);
  const std::size_t windows = static_cast<std::size_t>((cap + w - 1) / w);

  // One pass: free ticks per window (an item contributes its overlap).
  std::vector<Tick> used(windows, 0);
  for (ItemId it : order_) {
    Tick lo = mem_->offset_of(it);
    const Tick hi = mem_->end_of(it);
    while (lo < hi) {
      const std::size_t win = static_cast<std::size_t>(lo / w);
      const Tick win_end = std::min<Tick>((win + 1) * w, cap);
      const Tick take = std::min(hi, win_end) - lo;
      used[win] += take;
      lo += take;
    }
  }
  std::size_t win = windows;
  for (std::size_t i = 0; i < windows; ++i) {
    const Tick win_end = std::min<Tick>((i + 1) * w, cap);
    const Tick len = win_end - i * w;
    if (len >= used[i] && len - used[i] >= 2 * size) {
      win = i;
      break;
    }
  }
  MEMREAL_CHECK_MSG(win != windows,
                    "pigeonhole failed: no window with 2k free");

  // Compact the items fully inside the window against its left anchor
  // (the end of a left straddler, or the window start).
  const Tick win_lo = win * w;
  const Tick win_hi = std::min<Tick>((win + 1) * w, cap);
  Tick anchor = win_lo;
  for (ItemId it : order_) {
    const Tick lo = mem_->offset_of(it);
    const Tick hi = mem_->end_of(it);
    if (lo < win_lo && hi > win_lo) anchor = std::max(anchor, hi);
  }
  for (ItemId it : order_) {
    const Tick lo = mem_->offset_of(it);
    const Tick hi = mem_->end_of(it);
    if (lo >= win_lo && hi <= win_hi) {
      mem_->move_to(it, anchor);
      anchor += mem_->extent_of(it);
    }
  }
  // The opened gap runs from `anchor` to the right straddler (or window
  // end); it is at least 2k - (free beyond the window) >= k.
  return anchor;
}

void FolkloreWindowed::erase(ItemId id) {
  const std::size_t idx = index_of(*mem_, order_, id);
  mem_->remove(id);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void FolkloreWindowed::check_invariants() const {
  MEMREAL_CHECK(order_.size() == mem_->item_count());
  Tick prev_end = 0;
  for (ItemId id : order_) {
    MEMREAL_CHECK(mem_->offset_of(id) >= prev_end);
    prev_end = mem_->end_of(id);
  }
}

}  // namespace memreal
