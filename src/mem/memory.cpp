#include "mem/memory.h"

#include <algorithm>
#include <sstream>

namespace memreal {

Memory::Memory(Tick capacity, Tick eps_ticks, ValidationPolicy policy)
    : capacity_(capacity), eps_ticks_(eps_ticks), policy_(policy) {
  MEMREAL_CHECK(capacity > 0);
  MEMREAL_CHECK_MSG(eps_ticks >= 1,
                    "eps truncated to zero ticks — the load-factor and "
                    "resizable-bound checks would be vacuous (see Eps::of)");
  MEMREAL_CHECK_MSG(eps_ticks < capacity, "eps must be < 1");
}

Memory::Index::const_iterator Memory::iter(ItemId id) const {
  auto it = items_.find(id);
  MEMREAL_CHECK_MSG(it != items_.end(), "unknown item id " << id);
  return it->second;
}

Memory::Index::iterator Memory::iter(ItemId id) {
  auto it = items_.find(id);
  MEMREAL_CHECK_MSG(it != items_.end(), "unknown item id " << id);
  return it->second;
}

void Memory::check_extent_fits(ItemId id, Tick offset, Tick extent) const {
  // Overflow-safe form of offset + extent <= capacity: an adversarial
  // offset near 2^64 would wrap the naive sum past the capacity check.
  MEMREAL_CHECK_MSG(extent <= capacity_ && offset <= capacity_ - extent,
                    "item " << id << " beyond capacity: offset " << offset
                            << " + extent " << extent << " > " << capacity_);
}

void Memory::begin_update(Tick update_size, bool is_insert) {
  MEMREAL_CHECK_MSG(!in_update_, "nested update");
  MEMREAL_CHECK(update_size > 0);
  if (is_insert) {
    MEMREAL_CHECK_MSG(
        live_mass_ + update_size + eps_ticks_ <= capacity_,
        "adversary violated the load-factor promise: live "
            << live_mass_ << " + insert " << update_size << " + eps "
            << eps_ticks_ << " > capacity " << capacity_);
  }
  in_update_ = true;
  moved_ = 0;
}

Tick Memory::end_update() {
  MEMREAL_CHECK_MSG(in_update_, "end_update without begin_update");
  in_update_ = false;
  total_moved_ = checked_add(total_moved_, moved_, "total moved mass");
  ++updates_;
  std::unordered_set<ItemId> dirty;
  dirty.swap(dirty_);
  if (policy_.incremental) {
    // Checking each touched item against its offset-order neighbors
    // suffices: any overlap in the final layout implies an overlapping
    // *adjacent* pair, and an adjacent pair of untouched items was
    // adjacent-or-separated (hence disjoint) before the update.
    check_incremental(dirty);
  }
  if (policy_.audit_every_n_updates != 0 &&
      updates_ % policy_.audit_every_n_updates == 0) {
    audit();
  }
  return moved_;
}

void Memory::place(ItemId id, Tick offset, Tick size, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  MEMREAL_CHECK_MSG(items_.find(id) == items_.end(),
                    "item " << id << " already placed");
  MEMREAL_CHECK(size > 0);
  if (extent == 0) extent = size;
  MEMREAL_CHECK(extent >= size);
  check_extent_fits(id, offset, extent);
  const auto [pos, inserted] =
      index_.emplace(std::pair{offset, id}, Rec{size, extent});
  MEMREAL_CHECK(inserted);
  items_.emplace(id, pos);
  ends_.insert(offset + extent);
  live_mass_ += size;
  extent_mass_ += extent;
  moved_ += size;
  dirty_.insert(id);
}

void Memory::move_to(ItemId id, Tick offset) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  auto it = iter(id);
  const Tick old_offset = it->first.first;
  if (old_offset == offset) return;
  const Rec r = it->second;
  check_extent_fits(id, offset, r.extent);
  ends_.erase(ends_.find(old_offset + r.extent));
  ends_.insert(offset + r.extent);
  auto node = index_.extract(it);
  node.key().first = offset;
  items_[id] = index_.insert(std::move(node)).position;
  moved_ += r.size;
  dirty_.insert(id);
}

void Memory::set_extent(ItemId id, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  auto it = iter(id);
  Rec& r = it->second;
  MEMREAL_CHECK_MSG(extent >= r.size,
                    "extent " << extent << " below true size " << r.size);
  const Tick offset = it->first.first;
  check_extent_fits(id, offset, extent);
  ends_.erase(ends_.find(offset + r.extent));
  ends_.insert(offset + extent);
  extent_mass_ += extent;
  extent_mass_ -= r.extent;
  r.extent = extent;
  dirty_.insert(id);
}

void Memory::reset_extent(ItemId id) { set_extent(id, size_of(id)); }

void Memory::remove(ItemId id) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  auto iit = items_.find(id);
  MEMREAL_CHECK_MSG(iit != items_.end(), "removing unknown item " << id);
  const auto it = iit->second;
  live_mass_ -= it->second.size;
  extent_mass_ -= it->second.extent;
  ends_.erase(ends_.find(it->first.first + it->second.extent));
  index_.erase(it);
  items_.erase(iit);
  dirty_.erase(id);
}

std::optional<PlacedItem> Memory::item_at(Tick offset) const {
  auto it = index_.upper_bound(std::pair{offset, kNoItem});
  if (it == index_.begin()) return std::nullopt;
  --it;
  if (it->first.first + it->second.extent > offset) return placed(it);
  return std::nullopt;
}

std::optional<PlacedItem> Memory::first_at_or_after(Tick offset) const {
  const auto it = index_.lower_bound(std::pair{offset, ItemId{0}});
  if (it == index_.end()) return std::nullopt;
  return placed(it);
}

std::optional<PlacedItem> Memory::last_before(Tick offset) const {
  auto it = index_.lower_bound(std::pair{offset, ItemId{0}});
  if (it == index_.begin()) return std::nullopt;
  return placed(std::prev(it));
}

std::optional<PlacedItem> Memory::first_item() const {
  if (index_.empty()) return std::nullopt;
  return placed(index_.begin());
}

std::optional<PlacedItem> Memory::last_item() const {
  if (index_.empty()) return std::nullopt;
  return placed(std::prev(index_.end()));
}

Memory::Neighbors Memory::neighbors_of(ItemId id) const {
  const auto it = iter(id);
  Neighbors out;
  if (it != index_.begin()) out.prev = placed(std::prev(it));
  const auto next = std::next(it);
  if (next != index_.end()) out.next = placed(next);
  return out;
}

std::vector<PlacedItem> Memory::items_in(Tick from, Tick to) const {
  std::vector<PlacedItem> out;
  for (auto it = index_.lower_bound(std::pair{from, ItemId{0}});
       it != index_.end() && it->first.first < to; ++it) {
    out.push_back(placed(it));
  }
  return out;
}

std::vector<PlacedItem> Memory::snapshot() const {
  std::vector<PlacedItem> out;
  out.reserve(index_.size());
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    out.push_back(placed(it));
  }
  return out;
}

std::vector<std::pair<Tick, Tick>> Memory::gaps() const {
  std::vector<std::pair<Tick, Tick>> out;
  Tick cursor = 0;
  for (const auto& [key, r] : index_) {
    const Tick offset = key.first;
    if (offset > cursor) out.emplace_back(cursor, offset - cursor);
    cursor = std::max(cursor, offset + r.extent);
  }
  return out;
}

void Memory::fail_resizable_bound(Tick span) const {
  auto gs = gaps();
  std::sort(gs.begin(), gs.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::ostringstream os;
  for (std::size_t i = 0; i < gs.size() && i < 3; ++i) {
    os << " [off " << gs[i].first << " len " << gs[i].second << "]";
  }
  MEMREAL_CHECK_MSG(false, "resizable bound violated: span "
                               << span << " > L + eps = "
                               << live_mass_ + eps_ticks_
                               << "; largest gaps:" << os.str());
}

void Memory::check_global_bounds(Tick span) const {
  MEMREAL_CHECK_MSG(span <= capacity_, "layout beyond capacity");
  if (policy_.check_resizable_bound && span > live_mass_ + eps_ticks_) {
    fail_resizable_bound(span);
  }
  MEMREAL_CHECK_MSG(live_mass_ + eps_ticks_ <= capacity_,
                    "load factor above 1 - eps");
}

void Memory::check_incremental(
    const std::unordered_set<ItemId>& dirty) const {
  for (const ItemId id : dirty) {
    const auto iit = items_.find(id);
    if (iit == items_.end()) continue;  // touched, then removed
    const auto it = iit->second;
    const Tick offset = it->first.first;
    if (it != index_.begin()) {
      const auto prev = std::prev(it);
      MEMREAL_CHECK_MSG(
          prev->first.first + prev->second.extent <= offset,
          "overlap: item " << id << " at [" << offset << ", "
                           << offset + it->second.extent
                           << ") intersects item " << prev->first.second
                           << " ending at "
                           << prev->first.first + prev->second.extent);
    }
    const auto next = std::next(it);
    if (next != index_.end()) {
      MEMREAL_CHECK_MSG(
          offset + it->second.extent <= next->first.first,
          "overlap: item " << id << " at [" << offset << ", "
                           << offset + it->second.extent
                           << ") intersects item " << next->first.second
                           << " starting at " << next->first.first);
    }
  }
  check_global_bounds(span_end());
}

void Memory::audit() const {
  MEMREAL_CHECK_MSG(items_.size() == index_.size(),
                    "id-map / offset-index size drift");
  Tick live = 0;
  Tick ext = 0;
  Tick prev_end = 0;
  Tick max_end = 0;
  ItemId prev_id = kNoItem;
  std::vector<Tick> expected_ends;
  expected_ends.reserve(index_.size());
  for (const auto& [key, r] : index_) {
    const auto [offset, id] = key;
    MEMREAL_CHECK_MSG(offset >= prev_end,
                      "overlap: item " << id << " at [" << offset << ", "
                                       << offset + r.extent
                                       << ") intersects item " << prev_id
                                       << " ending at " << prev_end);
    MEMREAL_CHECK(r.extent >= r.size);
    prev_end = offset + r.extent;
    expected_ends.push_back(prev_end);
    max_end = std::max(max_end, prev_end);
    prev_id = id;
    live += r.size;
    ext += r.extent;
  }
  MEMREAL_CHECK_MSG(live == live_mass_, "live-mass accounting drift");
  MEMREAL_CHECK_MSG(ext == extent_mass_, "extent-mass accounting drift");
  // The cached end multiset must match exactly, multiplicities included —
  // size + membership probes would miss {10,10,20} vs {10,20,20}.
  std::sort(expected_ends.begin(), expected_ends.end());
  MEMREAL_CHECK_MSG(std::equal(ends_.begin(), ends_.end(),
                               expected_ends.begin(), expected_ends.end()),
                    "span-cache drift");
  MEMREAL_CHECK_MSG(span_end() == max_end, "span-cache drift");
  check_global_bounds(max_end);
}

}  // namespace memreal
