// The byte-backed layout store: a LayoutStore decorator that gives every
// placed item a real payload in a char arena.
//
// ArenaStore forwards the entire LayoutStore contract to an inner store
// (the validating Memory model or the release SlabStore), so an
// arena-backed run produces the exact same layouts and per-update tick
// costs as a plain run — the tick-vs-byte differential suite (ctest -L
// arena) holds that equality for every registry allocator.  On top of the
// forwarded tick semantics it maintains the byte space:
//
//   place    — stamps the item's payload (a deterministic per-id fill
//              pattern) and charges its byte size to the moved-bytes
//              channel (writing the item's bytes, the byte analogue of
//              place's tick charge)
//   move_to  — journals the item's source address and charges its bytes;
//              when payload verification is on, the fill pattern is
//              checked the first time an update touches the item: the
//              byte-level analogue of Memory's incremental validation.  A
//              failed check means some move physically clobbered a live
//              payload — exactly the class of bug tick space cannot see.
//   apply_run — batch journal + charge (same charges as the inner store's
//              batched version, per the LayoutStore contract).
//   audit    — inner audit plus a full sweep verifying every live
//              payload's pattern.
//
// Physical writes are deferred to end_update.  Allocators are free to
// route items through transiently overlapping tick placements mid-update
// (the validated Memory model only checks overlap at end_update), so an
// eager memmove per move_to would clobber live payloads.  Nothing writes
// the arena between begin_update and end_update, so the update journal
// holds just each touched item's source byte address (or a fresh mark
// for an insert), verified on first touch.  end_update then copies each
// moved payload once, inside the arena:
//
//   * When the movers' source order equals their destination order and
//     their destinations are disjoint (every compaction slide), left
//     movers are memmoved in ascending source order and right movers in
//     descending order.  A left mover's destination can overlap only the
//     sources of earlier left movers — already copied — and mirror-wise
//     for right movers; left and right movers never overlap each other.
//   * Any other update (a GEO or COMBINED rebuild permutes items) copies
//     every source into one shared spill buffer, then out to its
//     destination.
//   * Fresh inserts are stamped straight at their final address, after
//     the moves, so a stamp may reuse bytes a mover just vacated.
//
// The inner store commits an update's layout before validating it, so
// the journal is flushed even when the inner end_update throws.  When the
// layout was rejected for a reason other than overlap (say, the
// resizable span bound), the bytes stay in step with it; after an overlap
// rejection the flush may write over live payloads, so the arena's
// contents are undefined and a later verify may name an innocent item.
// Charges stay per logical operation, mirroring the tick cost channel
// exactly.
//
// Payload sizes: each item carries `size_bytes` with
// ticks_for_bytes(size_bytes) == its tick size.  Drivers stage the byte
// size of the next insert via stage_insert (the arena cell does this from
// the engine's before_update hook); unstaged inserts default to
// size * bytes_per_tick (tick-native).
//
// The arena is allocated once, at construction, to byte_of(capacity) —
// every placement the inner store accepts lies inside it — and is never
// zero-filled (only stamped and moved payload bytes are ever read), so
// untouched pages cost nothing.  A capacity whose byte span exceeds
// `max_arena_bytes` is rejected at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arena/byte_space.h"
#include "core/layout_store.h"
#include "obs/metrics.h"
#include "util/flat_map.h"
#include "util/types.h"

namespace memreal {

struct ArenaOptions {
  /// Verify an item's fill pattern the first time each update touches it
  /// (move or remove) and every live payload on audit().  Off = measure
  /// raw copy bandwidth only.
  bool verify_payloads = true;
  /// Hard cap on the arena's size: constructing over a store whose
  /// capacity spans more bytes throws InvariantViolation (use a smaller
  /// capacity or granule instead of letting the arena eat the host).
  std::uint64_t max_arena_bytes = std::uint64_t{1} << 31;
  /// Byte-movement instruments (null pointers = off); mirrors the
  /// total_bytes_moved / payload_moves accounting plus verified bytes.
  obs::ArenaMetrics metrics;
};

class ArenaStore final : public LayoutStore {
 public:
  ArenaStore(LayoutStore& inner, ByteSpace space, ArenaOptions options = {});

  ArenaStore(const ArenaStore&) = delete;
  ArenaStore& operator=(const ArenaStore&) = delete;

  // -- Byte-space surface ---------------------------------------------------

  [[nodiscard]] Tick bytes_per_tick() const { return space_.bytes_per_tick(); }

  /// Stages the byte size of the NEXT place of `id`.  size_bytes == 0
  /// means tick-native; nonzero must round to exactly the placed tick
  /// size (checked in place).
  void stage_insert(ItemId id, Tick size_bytes);

  /// Payload byte size of a live item.
  [[nodiscard]] Tick bytes_of(ItemId id) const {
    return payloads_.at(id).bytes;
  }
  /// Current payload bytes of a live item (view into the arena).
  [[nodiscard]] std::span<const unsigned char> payload(ItemId id) const;
  /// Byte address of a live item.
  [[nodiscard]] std::uint64_t address_of(ItemId id) const {
    return space_.byte_of(inner_->offset_of(id));
  }

  /// Bytes physically moved / number of payload memmoves+stamps so far.
  [[nodiscard]] Tick total_bytes_moved() const override {
    return total_bytes_;
  }
  [[nodiscard]] std::size_t payload_moves() const { return moves_; }
  [[nodiscard]] Tick last_update_bytes() const override {
    return last_update_bytes_;
  }

  /// Verifies one / every live payload against its fill pattern; throws
  /// InvariantViolation naming the first corrupt item and byte.
  void verify_payload(ItemId id) const;
  void verify_all_payloads() const;

  /// The expected fill byte of item `id` at payload index `j` — exposed
  /// so tests can predict (and corrupt) payloads.
  [[nodiscard]] static unsigned char pattern_byte(ItemId id, std::uint64_t j);

  // -- Transactions (forwarded; byte counter bracketed) ---------------------

  void begin_update(Tick update_size, bool is_insert) override;
  Tick end_update() override;
  [[nodiscard]] bool in_update() const override { return inner_->in_update(); }
  [[nodiscard]] Tick moved_in_update() const override {
    return inner_->moved_in_update();
  }

  // -- Layout mutation ------------------------------------------------------

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) override;
  void move_to(ItemId id, Tick offset) override;
  void set_extent(ItemId id, Tick extent) override {
    inner_->set_extent(id, extent);
  }
  void reset_extent(ItemId id) override { inner_->reset_extent(id); }
  void reset_extents(std::span<const ItemId> ids) override {
    inner_->reset_extents(ids);
  }
  void remove(ItemId id) override;
  // Every item's source address is journaled (and verified) before the
  // tick-space run is forwarded to the inner store; tick charges are the
  // inner store's own, and each item whose offset changed is charged its
  // bytes.
  Tick apply_run(std::span<const ItemId> ids, Tick offset) override;

  // -- Point queries (forwarded) --------------------------------------------

  [[nodiscard]] bool contains(ItemId id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] Tick offset_of(ItemId id) const override {
    return inner_->offset_of(id);
  }
  [[nodiscard]] Tick size_of(ItemId id) const override {
    return inner_->size_of(id);
  }
  [[nodiscard]] Tick extent_of(ItemId id) const override {
    return inner_->extent_of(id);
  }
  [[nodiscard]] Tick end_of(ItemId id) const override {
    return inner_->end_of(id);
  }
  [[nodiscard]] std::size_t item_count() const override {
    return inner_->item_count();
  }
  [[nodiscard]] Tick live_mass() const override { return inner_->live_mass(); }
  [[nodiscard]] Tick extent_mass() const override {
    return inner_->extent_mass();
  }
  [[nodiscard]] Tick span_end() const override { return inner_->span_end(); }
  [[nodiscard]] Tick capacity() const override { return inner_->capacity(); }
  [[nodiscard]] Tick eps_ticks() const override { return inner_->eps_ticks(); }
  [[nodiscard]] Tick total_moved() const override {
    return inner_->total_moved();
  }
  [[nodiscard]] std::size_t update_count() const override {
    return inner_->update_count();
  }

  // -- Ordered queries (forwarded) ------------------------------------------

  [[nodiscard]] std::optional<PlacedItem> item_at(Tick offset) const override {
    return inner_->item_at(offset);
  }
  [[nodiscard]] std::optional<PlacedItem> first_at_or_after(
      Tick offset) const override {
    return inner_->first_at_or_after(offset);
  }
  [[nodiscard]] std::optional<PlacedItem> last_before(
      Tick offset) const override {
    return inner_->last_before(offset);
  }
  [[nodiscard]] std::optional<PlacedItem> first_item() const override {
    return inner_->first_item();
  }
  [[nodiscard]] std::optional<PlacedItem> last_item() const override {
    return inner_->last_item();
  }
  [[nodiscard]] Neighbors neighbors_of(ItemId id) const override {
    return inner_->neighbors_of(id);
  }
  [[nodiscard]] std::vector<PlacedItem> items_in(Tick from,
                                                 Tick to) const override {
    return inner_->items_in(from, to);
  }
  [[nodiscard]] std::vector<PlacedItem> snapshot() const override {
    return inner_->snapshot();
  }
  [[nodiscard]] std::vector<std::pair<Tick, Tick>> gaps() const override {
    return inner_->gaps();
  }

  // -- Validation -----------------------------------------------------------

  /// Inner structural audit plus (when verification is on) a full sweep
  /// of every live payload's fill pattern.
  void audit() const override;

  [[nodiscard]] ValidationPolicy& policy() override {
    return inner_->policy();
  }
  [[nodiscard]] const ValidationPolicy& policy() const override {
    return inner_->policy();
  }

 private:
  /// Per-item payload record; `slot` indexes the journal when `epoch` is
  /// the current update's.
  struct Payload {
    Tick bytes = 0;
    std::uint64_t epoch = 0;
    std::uint32_t slot = 0;
  };
  /// One journal entry: a touched item and where its payload came from.
  struct Touch {
    ItemId id = kNoItem;    ///< kNoItem once removed mid-update
    std::uint64_t src = 0;  ///< source byte address, or kFresh
    std::uint64_t dst = 0;  ///< final byte address (set at flush)
    Tick bytes = 0;
  };
  static constexpr std::uint64_t kFresh = ~std::uint64_t{0};

  void verify_at(ItemId id, std::uint64_t byte_addr, Tick bytes) const;
  void charge(Tick bytes);

  /// Journals `id` (source address `src`, or kFresh) unless this update
  /// already did; a first-touched move is verified at its source.
  void touch(ItemId id, Payload& p, std::uint64_t src);
  /// Writes every journaled payload to its final byte address (moves
  /// first, then fresh stamps) and empties the journal.
  void flush_journal();
  /// Copies every mover's payload from its source to its destination.
  void copy_movers();
  void stamp(ItemId id, std::uint64_t dst, Tick bytes);
  Payload& record(ItemId id);

  LayoutStore* inner_;
  ByteSpace space_;
  ArenaOptions options_;

  std::unique_ptr<unsigned char[]> arena_;  ///< never zero-filled
  std::uint64_t arena_size_ = 0;            ///< byte_of(capacity)
  FlatIdMap<Payload> payloads_;

  std::uint64_t epoch_ = 0;  ///< bumped by each begin_update and flush
  std::vector<Touch> journal_;
  // Scratch, capacity kept across updates.
  std::vector<Touch> movers_;
  std::vector<unsigned char> spill_;
  std::vector<std::pair<Tick, Tick>> run_pre_;  ///< apply_run: (offset, bytes)

  ItemId staged_id_ = kNoItem;
  Tick staged_bytes_ = 0;

  Tick bytes_in_update_ = 0;
  Tick last_update_bytes_ = 0;
  Tick total_bytes_ = 0;
  std::size_t moves_ = 0;
};

}  // namespace memreal
