#include "arena/arena_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/trace.h"
#include "util/check.h"

namespace memreal {

namespace {

/// SplitMix64 finalizer — the per-item pattern seed.  Full avalanche so
/// adjacent ids get unrelated fill bytes (a memmove that lands one granule
/// off cannot accidentally reproduce its neighbor's pattern).
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// verify_at compares whole blocks branch-free (a fixed-count reduction
/// the compiler vectorizes) before narrowing down to words and bytes.
constexpr std::size_t kVerifyBlock = 256;

}  // namespace

ArenaStore::ArenaStore(LayoutStore& inner, ByteSpace space,
                       ArenaOptions options)
    : inner_(&inner), space_(space), options_(options) {
  const Tick capacity = inner_->capacity();
  MEMREAL_CHECK_MSG(
      capacity <= options_.max_arena_bytes / space_.bytes_per_tick(),
      "a byte arena of " << capacity << " ticks at "
                         << space_.bytes_per_tick()
                         << " bytes per tick exceeds the max_arena_bytes cap "
                         << options_.max_arena_bytes
                         << " (shrink the capacity or the granule)");
  arena_size_ = space_.byte_of(capacity);
  arena_ = std::make_unique_for_overwrite<unsigned char[]>(
      static_cast<std::size_t>(arena_size_));
}

unsigned char ArenaStore::pattern_byte(ItemId id, std::uint64_t j) {
  // The pattern is position-independent within the payload (indexed by j,
  // not by arena address), so a clean memmove preserves it exactly.
  return static_cast<unsigned char>(mix(id) >> ((j & 7) * 8));
}

void ArenaStore::stage_insert(ItemId id, Tick size_bytes) {
  staged_id_ = id;
  staged_bytes_ = size_bytes;
}

std::span<const unsigned char> ArenaStore::payload(ItemId id) const {
  const std::uint64_t addr = space_.byte_of(inner_->offset_of(id));
  const Tick bytes = bytes_of(id);
  MEMREAL_CHECK(addr + bytes <= arena_size_);
  return {arena_.get() + addr, static_cast<std::size_t>(bytes)};
}

ArenaStore::Payload& ArenaStore::record(ItemId id) {
  Payload* p = payloads_.find(id);
  MEMREAL_CHECK_MSG(p != nullptr, "unknown item id " << id);
  return *p;
}

void ArenaStore::charge(Tick bytes) {
  bytes_in_update_ += bytes;
  total_bytes_ = checked_add(total_bytes_, bytes, "total moved bytes");
  ++moves_;
  options_.metrics.on_move(bytes);
}

void ArenaStore::touch(ItemId id, Payload& p, std::uint64_t src) {
  if (p.epoch == epoch_) return;
  if (src != kFresh && options_.verify_payloads) verify_at(id, src, p.bytes);
  p.epoch = epoch_;
  p.slot = static_cast<std::uint32_t>(journal_.size());
  journal_.push_back({id, src, 0, p.bytes});
}

void ArenaStore::stamp(ItemId id, std::uint64_t dst, Tick bytes) {
  unsigned char* out = arena_.get() + dst;
  std::uint64_t j = 0;
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t w = mix(id);
    for (; j + 8 <= bytes; j += 8) std::memcpy(out + j, &w, 8);
  }
  for (; j < bytes; ++j) out[j] = pattern_byte(id, j);
}

void ArenaStore::copy_movers() {
  const auto by_source = [](const Touch& a, const Touch& b) {
    return a.src < b.src;
  };
  if (!std::is_sorted(movers_.begin(), movers_.end(), by_source)) {
    std::sort(movers_.begin(), movers_.end(), by_source);
  }
  bool in_order = true;
  for (std::size_t k = 1; k < movers_.size() && in_order; ++k) {
    in_order = movers_[k - 1].dst + movers_[k - 1].bytes <= movers_[k].dst;
  }
  unsigned char* a = arena_.get();
  if (in_order) {
    // Left movers ascending, right movers descending: each memmove may
    // overwrite only sources that were already copied.
    for (const Touch& m : movers_) {
      if (m.dst < m.src) std::memmove(a + m.dst, a + m.src, m.bytes);
    }
    for (auto m = movers_.rbegin(); m != movers_.rend(); ++m) {
      if (m->dst > m->src) std::memmove(a + m->dst, a + m->src, m->bytes);
    }
    return;
  }
  // A permutation: copy every source out before any destination is
  // written.
  Tick total = 0;
  for (const Touch& m : movers_) total += m.bytes;
  spill_.resize(static_cast<std::size_t>(total));
  std::size_t at = 0;
  for (const Touch& m : movers_) {
    std::memcpy(spill_.data() + at, a + m.src, m.bytes);
    at += m.bytes;
  }
  at = 0;
  for (const Touch& m : movers_) {
    std::memcpy(a + m.dst, spill_.data() + at, m.bytes);
    at += m.bytes;
  }
}

void ArenaStore::flush_journal() {
  obs::ScopedSpan flush_span(obs::SpanPhase::kArenaFlush);
  movers_.clear();
  std::uint64_t end = 0;
  for (Touch& t : journal_) {
    if (t.id == kNoItem) continue;  // removed mid-update
    t.dst = space_.byte_of(inner_->offset_of(t.id));
    end = std::max(end, t.dst + t.bytes);
    if (t.src != kFresh && t.src != t.dst) movers_.push_back(t);
  }
  // A layout inside the capacity lies inside the arena; this guards the
  // writes below against an inner store that placed beyond it.
  MEMREAL_CHECK_MSG(end <= arena_size_,
                    "arena placement ends at byte "
                        << end << ", beyond the arena's " << arena_size_
                        << " bytes");
  copy_movers();
  for (const Touch& t : journal_) {
    if (t.id != kNoItem && t.src == kFresh) stamp(t.id, t.dst, t.bytes);
  }
  journal_.clear();
  ++epoch_;
}

void ArenaStore::verify_at(ItemId id, std::uint64_t byte_addr,
                           Tick bytes) const {
  options_.metrics.on_verify(bytes);
  const unsigned char* p = arena_.get() + byte_addr;
  std::uint64_t j = 0;
  // The pattern repeats the little-endian bytes of mix(id), so aligned
  // 8-byte groups compare as one word; a mismatching word falls through
  // to the byte loop, which names the exact corrupt byte.
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t w = mix(id);
    for (; j + kVerifyBlock <= bytes; j += kVerifyBlock) {
      std::uint64_t diff = 0;
      for (std::size_t k = 0; k < kVerifyBlock; k += 8) {
        std::uint64_t got;
        std::memcpy(&got, p + j + k, 8);
        diff |= got ^ w;
      }
      if (diff != 0) break;
    }
    for (; j + 8 <= bytes; j += 8) {
      std::uint64_t got;
      std::memcpy(&got, p + j, 8);
      if (got != w) break;
    }
  }
  for (; j < bytes; ++j) {
    MEMREAL_CHECK_MSG(
        p[j] == pattern_byte(id, j),
        "payload corruption: item " << id << " byte " << j << " at address "
                                    << byte_addr + j << " holds "
                                    << static_cast<unsigned>(p[j])
                                    << ", expected "
                                    << static_cast<unsigned>(
                                           pattern_byte(id, j)));
  }
}

void ArenaStore::verify_payload(ItemId id) const {
  verify_at(id, space_.byte_of(inner_->offset_of(id)), bytes_of(id));
}

void ArenaStore::verify_all_payloads() const {
  for (const PlacedItem& item : inner_->snapshot()) {
    verify_at(item.id, space_.byte_of(item.offset), bytes_of(item.id));
  }
}

void ArenaStore::begin_update(Tick update_size, bool is_insert) {
  inner_->begin_update(update_size, is_insert);
  bytes_in_update_ = 0;
  // An update abandoned by a throw leaves its journal behind; drop it.
  journal_.clear();
  ++epoch_;
}

Tick ArenaStore::end_update() {
  Tick moved = 0;
  try {
    moved = inner_->end_update();
  } catch (...) {
    flush_journal();  // the inner store committed the layout it rejects
    throw;
  }
  flush_journal();
  last_update_bytes_ = bytes_in_update_;
  return moved;
}

void ArenaStore::place(ItemId id, Tick offset, Tick size, Tick extent) {
  inner_->place(id, offset, size, extent);
  Tick bytes = size * space_.bytes_per_tick();
  if (staged_id_ == id) {
    if (staged_bytes_ != 0) {
      MEMREAL_CHECK_MSG(space_.ticks_for_bytes(staged_bytes_) == size,
                        "staged byte size "
                            << staged_bytes_ << " for item " << id
                            << " rounds to "
                            << space_.ticks_for_bytes(staged_bytes_)
                            << " ticks, but the item was placed with size "
                            << size);
      bytes = staged_bytes_;
    }
    staged_id_ = kNoItem;
    staged_bytes_ = 0;
  }
  Payload& p = payloads_[id];
  p = Payload{bytes, 0, 0};
  touch(id, p, kFresh);
  charge(bytes);
}

void ArenaStore::move_to(ItemId id, Tick offset) {
  const Tick old_offset = inner_->offset_of(id);
  if (offset == old_offset) {
    inner_->move_to(id, offset);  // free no-op, same as the inner store
    return;
  }
  Payload& p = record(id);
  touch(id, p, space_.byte_of(old_offset));
  inner_->move_to(id, offset);
  charge(p.bytes);
}

Tick ArenaStore::apply_run(std::span<const ItemId> ids, Tick offset) {
  // Journal (and verify) every source while the layout is still the
  // pre-run one, then let the inner store run its own batched move so
  // charges and layout are bit-identical to a plain cell.
  run_pre_.clear();
  for (const ItemId id : ids) {
    const Tick at = inner_->offset_of(id);
    Payload& p = record(id);
    touch(id, p, space_.byte_of(at));
    run_pre_.emplace_back(at, p.bytes);
  }
  const Tick end = inner_->apply_run(ids, offset);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (inner_->offset_of(ids[k]) != run_pre_[k].first) {
      charge(run_pre_[k].second);
    }
  }
  return end;
}

void ArenaStore::remove(ItemId id) {
  const Payload& p = record(id);
  if (p.epoch == epoch_) {
    // Journaled (and verified) this update: drop its entry.
    journal_[p.slot].id = kNoItem;
  } else if (options_.verify_payloads) {
    // Not touched this update, so its arena bytes are still current.
    verify_payload(id);
  }
  inner_->remove(id);
  payloads_.erase(id);
}

void ArenaStore::audit() const {
  inner_->audit();
  if (options_.verify_payloads) verify_all_payloads();
}

}  // namespace memreal
