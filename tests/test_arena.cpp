// Byte-space suite for the arena layer (ctest -L arena).
//
// The tick-vs-byte differential is the arena's correctness story: every
// registry allocator is driven through an admissible sequence on a plain
// validated cell and on two arena cells (validated and release inner
// stores) in lockstep, asserting
//
//   * bit-identical per-update tick costs and O(1) model counters,
//   * bit-identical layouts at a periodic cadence and at run end,
//   * payload stamps verifying on each update's first touch of an item
//     and on the final audit (a failed stamp means a move physically
//     clobbered a live payload — the class of bug tick space cannot
//     express),
//   * measured byte traffic inside the granule's rounding bound
//       L * bpt - M * (bpt - 1) <= moved_bytes <= L * bpt.
//
// Plus: ByteSpace rounding, ArenaStore staging/corruption detection, the
// end_update flush's copy ordering against a Memory twin, the vm_heap
// generator, the versioned trace format (v2 byte annotations, v1
// back-compat, R expansion), sharded arena runs, and the arena lockstep
// mode of the fuzz oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "arena/arena_store.h"
#include "arena/byte_space.h"
#include "fuzz/differential.h"
#include "fuzz/fuzzer.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "shard/sharded_engine.h"
#include "testing.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/sequence.h"
#include "workload/trace.h"
#include "workload/vm_heap.h"

namespace memreal {
namespace {

// Small enough that the arena, which spans the capacity, stays a few MB;
// large enough that every registry band (rsum needs eps^{3/4} *
// capacity-sized items) stays nondegenerate.
constexpr Tick kCap = Tick{1} << 20;

void expect_throw_contains(const std::function<void()>& fn,
                           const std::string& substr) {
  try {
    fn();
    FAIL() << "expected InvariantViolation containing '" << substr << "'";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "message was: " << e.what();
  }
}

// -- ByteSpace ---------------------------------------------------------------

TEST(ByteSpace, MinAllocationRounding) {
  const ByteSpace s(8);
  EXPECT_EQ(s.ticks_for_bytes(0), 1u);  // min allocation: never zero ticks
  EXPECT_EQ(s.ticks_for_bytes(1), 1u);
  EXPECT_EQ(s.ticks_for_bytes(8), 1u);
  EXPECT_EQ(s.ticks_for_bytes(9), 2u);
  EXPECT_EQ(s.ticks_for_bytes(16), 2u);
}

TEST(ByteSpace, TickByteRoundTrip) {
  const ByteSpace s(64);
  EXPECT_EQ(s.byte_of(0), 0u);
  EXPECT_EQ(s.byte_of(3), 192u);
  EXPECT_EQ(s.ticks_for_bytes(s.byte_of(3)), 3u);
}

TEST(ByteSpace, RoundingBoundInequality) {
  // (t - 1) * bpt < b <= t * bpt for every byte size in a granule sweep.
  for (const Tick bpt : {Tick{1}, Tick{8}, Tick{64}}) {
    const ByteSpace s(bpt);
    for (std::uint64_t b = 1; b <= 4 * bpt; ++b) {
      const Tick t = s.ticks_for_bytes(b);
      EXPECT_LT((t - 1) * bpt, b) << "b=" << b << " bpt=" << bpt;
      EXPECT_LE(b, t * bpt) << "b=" << b << " bpt=" << bpt;
    }
  }
}

// -- ArenaStore via an arena Cell --------------------------------------------

CellConfig arena_config(const std::string& allocator, double eps,
                        Tick bytes_per_tick = 8) {
  CellConfig c;
  c.allocator = allocator;
  c.params.eps = eps;
  c.params.seed = 17;
  c.arena = true;
  c.bytes_per_tick = bytes_per_tick;
  return c;
}

TEST(ArenaStore, InsertStampsDeterministicPayload) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(7, 4, 25));  // 25 bytes -> 4 ticks at granule 8
  const ArenaStore& store = *cell.arena();
  EXPECT_EQ(store.bytes_of(7), 25u);
  const std::span<const unsigned char> p = store.payload(7);
  ASSERT_EQ(p.size(), 25u);
  for (std::uint64_t j = 0; j < p.size(); ++j) {
    EXPECT_EQ(p[j], ArenaStore::pattern_byte(7, j)) << "byte " << j;
  }
  EXPECT_EQ(store.address_of(7) % 8, 0u);
}

TEST(ArenaStore, TickNativeInsertGetsFullGranulePayload) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 3));  // no size_bytes: tick-native
  EXPECT_EQ(cell.arena()->bytes_of(1), 24u);
}

TEST(ArenaStore, StagedBytesMustRoundToTickSize) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  // 9 bytes round to 2 ticks, not 1.
  expect_throw_contains([&] { cell.step(Update::insert(1, 1, 9)); },
                        "rounds to");
}

TEST(ArenaStore, PayloadCorruptionIsCaughtByAudit) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 2, 16));
  cell.step(Update::insert(2, 2, 11));
  const std::span<const unsigned char> p = cell.arena()->payload(2);
  // The store only hands out const views; the test plants the corruption
  // a buggy memmove would leave behind.
  const_cast<unsigned char&>(p[5]) ^= 0xFF;
  expect_throw_contains([&] { cell.audit(); }, "payload");
  const_cast<unsigned char&>(p[5]) ^= 0xFF;  // heal; audit clean again
  cell.audit();
}

TEST(ArenaStore, CorruptionDeepInALongPayloadNamesTheByte) {
  // 1,000 bytes span several of verify_at's branch-free compare blocks;
  // the flipped byte sits mid-block and must still be reported exactly.
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 125, 1000));
  const std::span<const unsigned char> p = cell.arena()->payload(1);
  const_cast<unsigned char&>(p[700]) ^= 0x10;
  expect_throw_contains([&] { cell.audit(); }, "byte 700 ");
  const_cast<unsigned char&>(p[700]) ^= 0x10;
  cell.audit();
}

TEST(ArenaStore, CorruptionIsCaughtWhenTheVictimNextMoves) {
  // folklore-compact compacts once waste exceeds eps/2 (here 8 ticks):
  // corrupting the last item and deleting enough predecessors forces a
  // verified relocation of the victim.
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  for (ItemId id = 1; id <= 5; ++id) cell.step(Update::insert(id, 3, 24));
  const std::span<const unsigned char> p = cell.arena()->payload(5);
  const_cast<unsigned char&>(p[0]) ^= 0x01;
  cell.step(Update::erase(1, 3, 24));  // waste 3: no compaction yet
  cell.step(Update::erase(2, 3, 24));  // waste 6: still none
  // waste 9 > 8: the compaction run journals item 5 and verifies it.
  expect_throw_contains([&] { cell.step(Update::erase(3, 3, 24)); },
                        "payload");
}

TEST(ArenaStore, VerifyPayloadsOffStillCountsBytes) {
  CellConfig c = arena_config("folklore-compact", 1.0 / 64);
  c.verify_payloads = false;
  Cell cell(1024, 16, c);
  cell.step(Update::insert(1, 2, 16));
  const std::span<const unsigned char> p = cell.arena()->payload(1);
  const_cast<unsigned char&>(p[0]) ^= 0x01;
  cell.audit();  // no payload sweep in bandwidth mode
  EXPECT_EQ(cell.arena()->total_bytes_moved(), 16u);
}

TEST(ArenaStore, ArenaSpansTheCapacityAndRejectsOneBeyondTheCap) {
  ArenaOptions capped;
  capped.max_arena_bytes = 1024 * 8;
  Memory fits(1024, 1020);  // slack enough for a span of the whole capacity
  ArenaStore arena(fits, ByteSpace(8), capped);
  // The last granule of the capacity is addressable from the start.
  arena.begin_update(4, true);
  arena.place(1, 1020, 4);
  arena.end_update();
  EXPECT_EQ(arena.address_of(1), 1020u * 8);
  arena.verify_all_payloads();

  Memory too_big(1025, 16);
  expect_throw_contains(
      [&] { ArenaStore rejected(too_big, ByteSpace(8), capped); },
      "exceeds the max_arena_bytes cap 8192");
}

TEST(ArenaStore, MovedBytesChannelReachesRunStats) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 2, 16));  // stamps 16 bytes
  cell.step(Update::insert(2, 2, 13));  // stamps 13 bytes
  EXPECT_EQ(cell.stats().moved_bytes, 16u + 13u);
  // Deleting item 1 leaves waste 2 <= eps/2 = 8: no compaction, and the
  // byte channel must NOT charge the delete.
  cell.step(Update::erase(1, 2, 16));
  EXPECT_EQ(cell.stats().moved_bytes, 16u + 13u);
  // Re-inserting first-fits into the hole at offset 0: a fresh stamp.
  cell.step(Update::insert(3, 2, 10));
  const RunStats& stats = cell.stats();
  EXPECT_EQ(stats.moved_bytes, 16u + 13u + 10u);
  EXPECT_EQ(stats.moved_bytes, cell.arena()->total_bytes_moved());
  // Per-update byte costs mirror the cumulative channel.
  EXPECT_EQ(cell.arena()->last_update_bytes(), 10u);
}

TEST(ArenaStore, EveryAddressIsTheGranuleOfItsOffset) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64, 16));
  const std::vector<Tick> byte_sizes{1, 16, 17, 33, 100, 255};
  ItemId id = 1;
  for (const Tick bytes : byte_sizes) {
    cell.step(Update::insert(id++, (bytes + 15) / 16, bytes));
  }
  const ArenaStore& store = *cell.arena();
  for (ItemId i = 1; i < id; ++i) {
    EXPECT_EQ(store.address_of(i), store.offset_of(i) * 16) << "item " << i;
    EXPECT_EQ(store.address_of(i) % 16, 0u) << "item " << i;
    EXPECT_EQ(store.bytes_of(i), byte_sizes[i - 1]) << "item " << i;
  }
  cell.audit();
}

TEST(ArenaStore, IdsAreStableWhileAddressesMove) {
  // Deleting item 1 leaves waste 9 > eps/2 = 8: folklore-compact slides
  // item 2 down to address 0, and its payload travels with it.
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 9, 72));
  cell.step(Update::insert(2, 3, 20));
  ASSERT_EQ(cell.arena()->address_of(2), 72u);
  cell.step(Update::erase(1, 9, 72));
  const ArenaStore& store = *cell.arena();
  EXPECT_EQ(store.address_of(2), 0u);
  const std::span<const unsigned char> p = store.payload(2);
  ASSERT_EQ(p.size(), 20u);
  for (std::uint64_t j = 0; j < p.size(); ++j) {
    ASSERT_EQ(p[j], ArenaStore::pattern_byte(2, j)) << "post-move byte " << j;
  }
  cell.audit();
}

TEST(ArenaStore, CompactionChargesExactlyTheMovedPayloadBytes) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 9, 72));
  cell.step(Update::insert(2, 3, 20));
  cell.step(Update::insert(3, 2, 9));
  // Waste 9 > 8 after the delete: items 2 and 3 slide left, and the byte
  // channel charges their payload bytes, not their tick extents.
  cell.step(Update::erase(1, 9, 72));
  EXPECT_EQ(cell.arena()->last_update_bytes(), 20u + 9u);
  EXPECT_EQ(cell.stats().moved_bytes, 72u + 20u + 9u + 20u + 9u);
  EXPECT_EQ(cell.arena()->address_of(3), 3u * 8);
  cell.audit();
}

TEST(ArenaStore, EraseReleasesTheIdForReuse) {
  Cell cell(1024, 16, arena_config("folklore-compact", 1.0 / 64));
  cell.step(Update::insert(1, 2, 16));
  cell.step(Update::insert(2, 2, 12));
  cell.step(Update::erase(2, 2, 12));
  const ArenaStore& store = *cell.arena();
  EXPECT_FALSE(store.contains(2));
  EXPECT_EQ(store.item_count(), 1u);
  EXPECT_EQ(store.live_mass(), 2u);
  EXPECT_ANY_THROW((void)store.bytes_of(2));
  // The id comes back with a new size and a fresh payload.
  cell.step(Update::insert(2, 4, 30));
  EXPECT_EQ(store.bytes_of(2), 30u);
  const std::span<const unsigned char> p = store.payload(2);
  ASSERT_EQ(p.size(), 30u);
  for (std::uint64_t j = 0; j < p.size(); ++j) {
    ASSERT_EQ(p[j], ArenaStore::pattern_byte(2, j)) << "byte " << j;
  }
  cell.audit();
}

// -- The end_update flush, against a Memory twin ------------------------------
//
// An ArenaStore over a validating Memory and a plain Memory twin receive
// the same calls; after each update the layouts must agree and every
// payload, read at the twin's address, must hold its fill pattern byte
// for byte.

class ArenaTwin {
 public:
  ArenaTwin(Tick capacity, Tick eps_ticks)
      : twin_(capacity, eps_ticks),
        inner_(capacity, eps_ticks),
        arena_(inner_, ByteSpace(8)) {}

  ArenaStore& arena() { return arena_; }

  void begin(Tick size, bool is_insert) {
    twin_.begin_update(size, is_insert);
    arena_.begin_update(size, is_insert);
  }
  /// Ends the update on both stores; returns whether they accepted it
  /// (they must agree).
  bool end() {
    const auto accepted = [](LayoutStore& store) {
      try {
        store.end_update();
        return true;
      } catch (const InvariantViolation&) {
        return false;
      }
    };
    const bool twin_ok = accepted(twin_);
    EXPECT_EQ(accepted(arena_), twin_ok);
    return twin_ok;
  }
  void place(ItemId id, Tick offset, Tick size, Tick bytes = 0) {
    twin_.place(id, offset, size);
    arena_.stage_insert(id, bytes);
    arena_.place(id, offset, size);
  }
  void move(ItemId id, Tick offset) {
    twin_.move_to(id, offset);
    arena_.move_to(id, offset);
  }
  void remove(ItemId id) {
    twin_.remove(id);
    arena_.remove(id);
  }
  /// One whole insert update placing `id`.
  void insert(ItemId id, Tick offset, Tick size, Tick bytes = 0) {
    begin(size, true);
    place(id, offset, size, bytes);
    ASSERT_TRUE(end());
  }

  void check(const std::string& where) {
    testing::expect_same_layout(twin_, arena_, where);
    for (const PlacedItem& item : twin_.snapshot()) {
      ASSERT_EQ(arena_.address_of(item.id), item.offset * 8) << where;
      const std::span<const unsigned char> p = arena_.payload(item.id);
      for (std::uint64_t j = 0; j < p.size(); ++j) {
        ASSERT_EQ(p[j], ArenaStore::pattern_byte(item.id, j))
            << where << ": item " << item.id << " byte " << j;
      }
    }
    arena_.verify_all_payloads();
  }

 private:
  Memory twin_;
  Memory inner_;
  ArenaStore arena_;
};

TEST(ArenaFlush, LeftSlideOverlapsOwnAndPredecessorSources) {
  // Each item slides 2 ticks left: its destination covers half its own
  // source and half its predecessor's, so only ascending order is safe.
  ArenaTwin t(64, 16);
  t.insert(1, 2, 4, 32);
  t.insert(2, 6, 4, 30);
  t.insert(3, 10, 4, 32);
  t.check("filled");
  t.begin(4, false);
  t.move(1, 0);
  t.move(2, 4);
  t.move(3, 8);
  ASSERT_TRUE(t.end());
  t.check("left slide");
  EXPECT_EQ(t.arena().last_update_bytes(), 32u + 30u + 32u);
}

TEST(ArenaFlush, RightSlideNeedsDescendingOrder) {
  ArenaTwin t(64, 16);
  t.insert(1, 0, 4, 32);
  t.insert(2, 4, 4, 27);
  t.insert(3, 8, 4, 32);
  t.begin(4, false);
  // Moved in ascending order, as an allocator would; the flush must still
  // copy the rightmost first.
  t.move(1, 2);
  t.move(2, 6);
  t.move(3, 10);
  ASSERT_TRUE(t.end());
  t.check("right slide");
}

TEST(ArenaFlush, SwapTakesTheSpillPath) {
  ArenaTwin t(64, 16);
  t.insert(1, 0, 4, 31);
  t.insert(2, 4, 2, 16);
  t.begin(2, false);
  t.move(1, 2);  // transiently overlaps item 2
  t.move(2, 0);
  ASSERT_TRUE(t.end());
  t.check("swap");
  EXPECT_EQ(t.arena().address_of(2), 0u);
}

TEST(ArenaFlush, FreshInsertLandsOnBytesAMoveVacated) {
  ArenaTwin t(64, 16);
  t.insert(1, 0, 4, 32);
  t.insert(2, 4, 4, 32);
  t.begin(4, true);
  t.place(3, 0, 4, 29);  // over item 1's source, before it moves away
  t.move(1, 8);
  ASSERT_TRUE(t.end());
  t.check("stamp over vacated");
}

TEST(ArenaFlush, TouchedThenRemovedInOneUpdate) {
  ArenaTwin t(64, 16);
  t.insert(1, 0, 4, 32);
  t.insert(2, 4, 4, 32);
  t.insert(3, 8, 4, 32);
  t.begin(4, false);
  t.move(1, 12);  // verified and journaled...
  t.place(4, 16, 2);
  t.remove(1);  // ...then dropped
  t.remove(4);  // a fresh stamp dropped too
  t.move(2, 0);
  t.move(3, 4);
  ASSERT_TRUE(t.end());
  t.check("touched then removed");
  EXPECT_FALSE(t.arena().contains(1));
  EXPECT_FALSE(t.arena().contains(4));
}

TEST(ArenaFlush, ItemMovedTwiceBackToItsOrigin) {
  ArenaTwin t(64, 16);
  t.insert(1, 0, 4, 32);
  t.insert(2, 4, 4, 25);
  t.begin(4, false);
  t.move(1, 8);
  t.move(2, 12);
  t.move(1, 0);  // home again: no copy, but both moves are charged
  ASSERT_TRUE(t.end());
  t.check("round trip");
  EXPECT_EQ(t.arena().last_update_bytes(), 32u + 25u + 32u);
}

TEST(ArenaFlush, ThrowingEndUpdateThenCleanUpdate) {
  ArenaTwin t(64, 4);
  t.insert(1, 0, 4, 32);
  // Span 44 > L + eps = 12: both stores reject the update at end_update,
  // after committing its layout.
  t.begin(4, true);
  t.place(2, 40, 4, 26);
  t.move(1, 4);
  EXPECT_FALSE(t.end());
  // The arena flushed anyway, so the next update's first touches verify
  // against the committed layout.
  t.begin(4, true);
  t.move(2, 8);
  t.move(1, 0);
  t.place(3, 4, 4, 32);
  ASSERT_TRUE(t.end());
  t.check("after a throwing update");
}

// -- The tick-vs-byte differential over every registry allocator -------------

using testing::expect_same_layout;

void expect_byte_bound(const ArenaStore& store, const std::string& where) {
  const Tick bpt = store.bytes_per_tick();
  const Tick upper = store.total_moved() * bpt;
  const Tick slack = static_cast<Tick>(store.payload_moves()) * (bpt - 1);
  EXPECT_LE(store.total_bytes_moved(), upper) << where;
  EXPECT_GE(store.total_bytes_moved() + slack, upper) << where;
}

/// Plain validated cell vs arena cells over both inner stores, lockstep.
void arena_lockstep(const std::string& allocator, const Sequence& seq,
                    double delta = 0.0, Tick bytes_per_tick = 8) {
  seq.check_well_formed();
  CellConfig plain;
  plain.allocator = allocator;
  plain.params.eps = seq.eps;
  plain.params.delta = delta;
  plain.params.seed = 17;
  CellConfig with_arena = plain;
  with_arena.arena = true;
  with_arena.bytes_per_tick = bytes_per_tick;
  CellConfig release_arena = with_arena;
  release_arena.engine = "release";

  Cell base(seq.capacity, seq.eps_ticks, plain);
  Cell arena_v(seq.capacity, seq.eps_ticks, with_arena);
  Cell arena_r(seq.capacity, seq.eps_ticks, release_arena);

  for (std::size_t i = 0; i < seq.updates.size(); ++i) {
    const Update& u = seq.updates[i];
    double c0 = 0.0;
    double cv = 0.0;
    double cr = 0.0;
    try {
      c0 = base.step(u);
      cv = arena_v.step(u);
      cr = arena_r.step(u);
    } catch (const InvariantViolation& e) {
      FAIL() << allocator << " threw at update " << i << ": " << e.what();
    }
    ASSERT_EQ(c0, cv) << "validated-arena cost diverged at update " << i;
    ASSERT_EQ(c0, cr) << "release-arena cost diverged at update " << i;
    ASSERT_EQ(base.memory().span_end(), arena_v.memory().span_end())
        << "span diverged at update " << i;
    ASSERT_EQ(base.memory().total_moved(), arena_v.memory().total_moved())
        << "moved mass diverged at update " << i;
    if (i % 64 == 0) {
      expect_same_layout(base.memory(), arena_v.memory(),
                         "validated-arena update " + std::to_string(i));
      expect_same_layout(base.memory(), arena_r.memory(),
                         "release-arena update " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_same_layout(base.memory(), arena_v.memory(), "final validated");
  expect_same_layout(base.memory(), arena_r.memory(), "final release");
  base.audit();
  arena_v.audit();  // includes the full payload sweep
  arena_r.audit();
  expect_byte_bound(*arena_v.arena(), allocator + " validated inner");
  expect_byte_bound(*arena_r.arena(), allocator + " release inner");
  // Identical placements must produce identical physical traffic.
  EXPECT_EQ(arena_v.arena()->total_bytes_moved(),
            arena_r.arena()->total_bytes_moved());
  EXPECT_EQ(arena_v.stats().moved_bytes,
            arena_v.arena()->total_bytes_moved());
}

// Arena-scale stand-in for the mixed tiny/large regime.  The stock
// generator's fixed 2000-item tiny population only has negligible mass
// when eps^4 * capacity is a handful of ticks, which no byte-backed
// capacity can afford — at arena scale it overflows the mass budget
// before churn even starts.  Same shape (tiny flexhash traffic over a
// large GEO backbone), populations sized to the arena regime.
Sequence mixed_arena_sequence(Tick capacity, double eps, std::size_t updates,
                              std::uint64_t seed) {
  const auto cap_d = static_cast<double>(capacity);
  // Combined clamps its tiny threshold to unit/16 with unit the largest
  // power of two <= (eps/2)^3 * capacity; draw tiny sizes under the
  // clamp so they land in flexhash, large ones in GEO's class bands.
  Tick unit = 1;
  const double e3 = std::pow(eps / 2.0, 3.0) * cap_d;
  while (static_cast<double>(unit) * 2.0 <= e3) unit <<= 1;
  const Tick tiny_hi = std::min(
      static_cast<Tick>(std::pow(eps, 4.0) * cap_d), unit / 16);
  const Tick large_lo = 4 * tiny_hi;
  const Tick large_hi = 16 * tiny_hi;
  SequenceBuilder b("mixed-arena", capacity, eps);
  Rng rng(seed);
  std::vector<ItemId> tiny;
  std::vector<ItemId> large;
  for (int i = 0; i < 256; ++i) tiny.push_back(b.insert(rng.next_in(1, tiny_hi)));
  for (int i = 0; i < 24; ++i) {
    large.push_back(b.insert(rng.next_in(large_lo, large_hi)));
  }
  for (std::size_t i = 0; i < updates; i += 2) {
    const bool go_tiny = rng.next_double() < 0.75;
    std::vector<ItemId>& pool = go_tiny ? tiny : large;
    const auto k = static_cast<std::size_t>(rng.next_below(pool.size()));
    b.erase_id(pool[k]);
    pool[k] = b.insert(go_tiny ? rng.next_in(1, tiny_hi)
                               : rng.next_in(large_lo, large_hi));
  }
  return b.take();
}

TEST(ArenaDifferential, EveryRegistryAllocatorMatchesTickForTick) {
  for (const std::string& name : allocator_names()) {
    SCOPED_TRACE(name);
    testing::RegimeCase c = testing::regime_case(name);
    Tick cap = kCap;
    // Arena-scale capacities (a real byte payload per tick) need coarser
    // regimes than the 2^40-tick defaults: GEO's class geometry needs
    // capacity * eps^5 * sqrt(eps) >= 1, and the tiny-item family needs
    // capacity * eps^4 >= 4096 so the smallest size class stays >= 1 tick.
    if (name == "geo") c.eps = 1.0 / 8;
    if (name == "tinyslab" || name == "flexhash") {
      c.eps = 1.0 / 8;
      cap = Tick{1} << 24;
    }
    // Combined instantiates its sub-allocators at eps/2; TinySlab needs
    // its max size >= 4096 so min_size stays a whole tick, and
    // FlexHash's update-type anchor region (num_types * 8 * unit ticks)
    // must fit inside the eps/2 slack, which together pin capacity near
    // 2^30.  That is byte-feasible only at the finest granule.
    Tick bpt = 8;
    if (name == "combined") {
      c.eps = 1.0 / 8;
      cap = Tick{1} << 30;
      bpt = 1;
    }
    try {
      const Sequence seq =
          name == "combined"
              ? mixed_arena_sequence(cap, c.eps, 1200, 101)
              : testing::regime_sequence(c, cap, 1200, 101);
      arena_lockstep(name, seq, c.delta, bpt);
    } catch (const InvariantViolation& e) {
      FAIL() << name << " setup threw: " << e.what();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ArenaDifferential, CoarseGranuleStillMatches) {
  ChurnConfig cc;
  cc.capacity = kCap;
  cc.eps = 1.0 / 64;
  cc.min_size = kCap / 64;
  cc.max_size = kCap / 32 - 1;
  cc.churn_updates = 600;
  cc.seed = 7;
  const Sequence seq = make_churn(cc);
  for (const Tick bpt : {Tick{1}, Tick{64}}) {
    SCOPED_TRACE(bpt);
    CellConfig plain;
    plain.allocator = "simple";
    plain.params.eps = seq.eps;
    plain.params.seed = 3;
    CellConfig with_arena = plain;
    with_arena.arena = true;
    with_arena.bytes_per_tick = bpt;
    Cell base(seq.capacity, seq.eps_ticks, plain);
    Cell arena(seq.capacity, seq.eps_ticks, with_arena);
    for (const Update& u : seq.updates) {
      ASSERT_EQ(base.step(u), arena.step(u));
    }
    expect_same_layout(base.memory(), arena.memory(), "final");
    arena.audit();
    expect_byte_bound(*arena.arena(), "granule " + std::to_string(bpt));
    if (bpt == 1) {
      // One byte per tick: the bound collapses to exact equality.
      EXPECT_EQ(arena.arena()->total_bytes_moved(),
                arena.memory().total_moved());
    }
  }
}

// -- vm_heap workload --------------------------------------------------------

VmHeapConfig small_vm_heap() {
  VmHeapConfig c;
  c.capacity = Tick{1} << 16;
  c.eps = 1.0 / 64;
  c.min_bytes = 16;
  c.max_bytes = 2048;
  c.gc_period = 128;
  c.churn_updates = 2000;
  c.seed = 5;
  return c;
}

TEST(VmHeap, ProducesWellFormedByteAnnotatedStream) {
  const Sequence seq = make_vm_heap(small_vm_heap());
  seq.check_well_formed();
  EXPECT_EQ(seq.bytes_per_tick, 8u);
  EXPECT_GE(seq.updates.size(), 2000u);
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  for (const Update& u : seq.updates) {
    ASSERT_GT(u.size_bytes, 0u) << "vm_heap updates carry payload sizes";
    ASSERT_GE(u.size_bytes, 16u);
    ASSERT_LE(u.size_bytes, 2048u);
    (u.is_insert() ? inserts : deletes)++;
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(deletes, 0u);  // generational death + gc bursts
}

TEST(VmHeap, DeterministicForASeed) {
  const Sequence a = make_vm_heap(small_vm_heap());
  const Sequence b = make_vm_heap(small_vm_heap());
  ASSERT_EQ(a.updates.size(), b.updates.size());
  EXPECT_TRUE(std::equal(a.updates.begin(), a.updates.end(),
                         b.updates.begin()));
  VmHeapConfig other = small_vm_heap();
  other.seed = 6;
  const Sequence c = make_vm_heap(other);
  EXPECT_FALSE(a.updates.size() == c.updates.size() &&
               std::equal(a.updates.begin(), a.updates.end(),
                          c.updates.begin()));
}

TEST(VmHeap, PaletteModeDrawsAFixedSizeSet) {
  VmHeapConfig c = small_vm_heap();
  c.distinct_sizes = 5;
  const Sequence seq = make_vm_heap(c);
  std::set<Tick> sizes;
  for (const Update& u : seq.updates) sizes.insert(u.size_bytes);
  EXPECT_LE(sizes.size(), 5u);
  EXPECT_GE(sizes.size(), 2u);
}

TEST(VmHeap, GrowReallocChainsGrowByteSizes) {
  VmHeapConfig c = small_vm_heap();
  c.grow_prob = 1.0;   // every churn step reallocates
  c.gc_period = 0;     // no bursts: isolate the grow mechanism
  c.churn_updates = 400;
  const Sequence seq = make_vm_heap(c);
  // Each grow step is delete(old) immediately followed by insert(bigger).
  bool saw_growth = false;
  for (std::size_t i = 0; i + 1 < seq.updates.size(); ++i) {
    const Update& d = seq.updates[i];
    const Update& ins = seq.updates[i + 1];
    if (!d.is_insert() && ins.is_insert() && ins.size_bytes > d.size_bytes) {
      saw_growth = true;
      break;
    }
  }
  EXPECT_TRUE(saw_growth);
}

TEST(VmHeap, ReplaysThroughAnArenaCellInLockstep) {
  const Sequence seq = make_vm_heap(small_vm_heap());
  arena_lockstep("folklore-compact", seq);
  // Odd payload sizes mean the byte traffic sits strictly inside the
  // bound's interior, not pinned at L * bpt.
  CellConfig c = arena_config("folklore-compact", seq.eps);
  Cell cell(seq.capacity, seq.eps_ticks, c);
  cell.run(seq.updates);
  cell.audit();
  EXPECT_LT(cell.arena()->total_bytes_moved(),
            cell.memory().total_moved() * 8);
}

TEST(VmHeap, RejectsDegenerateConfigs) {
  VmHeapConfig c = small_vm_heap();
  c.min_bytes = c.max_bytes + 1;
  expect_throw_contains([&] { (void)make_vm_heap(c); }, "min_bytes");
}

// -- Versioned traces --------------------------------------------------------

TEST(TraceV2, ByteSequenceRoundTrips) {
  const Sequence seq = make_vm_heap(small_vm_heap());
  const Sequence back = trace_from_string(trace_to_string(seq));
  EXPECT_EQ(back.name, seq.name);
  EXPECT_EQ(back.capacity, seq.capacity);
  EXPECT_EQ(back.eps_ticks, seq.eps_ticks);
  EXPECT_EQ(back.bytes_per_tick, seq.bytes_per_tick);
  ASSERT_EQ(back.updates.size(), seq.updates.size());
  EXPECT_TRUE(std::equal(back.updates.begin(), back.updates.end(),
                         seq.updates.begin()));
}

TEST(TraceV2, TickNativeSequenceRoundTripsWithoutByteLines) {
  const Sequence seq = testing::regime_sequence(
      testing::regime_case("simple"), kCap, 200, 3);
  const std::string text = trace_to_string(seq);
  EXPECT_EQ(text.find("\nB "), std::string::npos);
  const Sequence back = trace_from_string(text);
  EXPECT_EQ(back.bytes_per_tick, 0u);
  ASSERT_EQ(back.updates.size(), seq.updates.size());
}

TEST(TraceV1, HeaderFirstTraceStillParses) {
  const Sequence seq = trace_from_string(
      "# legacy pre-versioning trace\n"
      "H 1024 0.0625 legacy\n"
      "I 1 2\n"
      "D 1 2\n");
  EXPECT_EQ(seq.capacity, 1024u);
  EXPECT_EQ(seq.bytes_per_tick, 0u);
  ASSERT_EQ(seq.updates.size(), 2u);
  EXPECT_EQ(seq.updates[0].size_bytes, 0u);
}

TEST(TraceV1, ByteConstructsAreRejectedNamingLineAndVersion) {
  expect_throw_contains(
      [] {
        (void)trace_from_string("H 1024 0.0625 legacy\nB 8\n");
      },
      "B line on trace line 2 requires version 2 (trace is version 1)");
  expect_throw_contains(
      [] {
        (void)trace_from_string("H 1024 0.0625 legacy\nI 1 2 9\n");
      },
      "byte-size field on trace line 2 requires version 2");
  expect_throw_contains(
      [] {
        (void)trace_from_string("H 1024 0.0625 legacy\nR 1 2 4\n");
      },
      "R (reallocate) line on trace line 2 requires version 2");
}

TEST(TraceV2, RealLocateExpandsToDeletePlusInsert) {
  const Sequence seq = trace_from_string(
      "V 2\n"
      "H 1024 0.0625 rtest\n"
      "B 8\n"
      "I 1 2 12\n"
      "R 1 2 4 25\n");
  ASSERT_EQ(seq.updates.size(), 3u);
  EXPECT_EQ(seq.updates[0], Update::insert(1, 2, 12));
  EXPECT_EQ(seq.updates[1], Update::erase(1, 2, 12));
  EXPECT_EQ(seq.updates[2], Update::insert(2, 4, 25));
  seq.check_well_formed();
}

TEST(TraceV2, RealLocateOfAbsentIdNamesTheLine) {
  expect_throw_contains(
      [] {
        (void)trace_from_string(
            "V 2\nH 1024 0.0625 rtest\nB 8\nR 9 10 2 16\n");
      },
      "reallocate of absent id 9 at line 4");
}

TEST(TraceV2, ByteFieldBeforeBLineIsRejected) {
  expect_throw_contains(
      [] {
        (void)trace_from_string("V 2\nH 1024 0.0625 t\nI 1 2 9\n");
      },
      "before a B bytes_per_tick line");
}

TEST(TraceV2, ByteSizeMustRoundToTickSize) {
  expect_throw_contains(
      [] {
        (void)trace_from_string("V 2\nH 1024 0.0625 t\nB 8\nI 1 1 9\n");
      },
      "rounds to 2 ticks, not 1");
}

TEST(TraceVersioning, MalformedVersionLinesAreRejected) {
  expect_throw_contains(
      [] { (void)trace_from_string("V 3\nH 1024 0.0625 t\n"); },
      "unsupported trace version 3");
  expect_throw_contains(
      [] { (void)trace_from_string("V 2\nV 2\nH 1024 0.0625 t\n"); },
      "must be the first directive");
  expect_throw_contains(
      [] { (void)trace_from_string("H 1024 0.0625 t\nV 2\n"); },
      "must be the first directive");
  expect_throw_contains(
      [] { (void)trace_from_string("V 2\nH 1024 0.0625 t\nB 8 extra\n"); },
      "trailing garbage");
}

// -- Sharded arena runs ------------------------------------------------------

TEST(ArenaSharded, RoutedRunReportsByteTrafficAndAudits) {
  ShardedConfig c;
  c.allocator = "folklore-compact";
  c.shards = 3;
  c.shard_capacity = Tick{1} << 16;
  c.eps = 1.0 / 64;
  c.arena = true;
  c.bytes_per_tick = 8;
  ShardedEngine engine(c);
  const Sequence seq = testing::regime_sequence(
      testing::regime_case("folklore-compact"), c.shard_capacity, 900, 23);
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();  // full payload sweep in every shard
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_GT(stats.global.moved_bytes, 0u);
  Tick per_shard_bytes = 0;
  for (const RunStats& s : stats.per_shard) per_shard_bytes += s.moved_bytes;
  EXPECT_EQ(stats.global.moved_bytes, per_shard_bytes);
}

// -- Fuzz-oracle arena lockstep ----------------------------------------------

TEST(ArenaFuzz, LockstepArenaOracleAcceptsHealthySequences) {
  const Sequence seq = testing::regime_sequence(
      testing::regime_case("simple"), kCap, 400, 11);
  DifferentialConfig d;
  d.lockstep_arena = true;
  FuzzTarget t;
  t.allocator = "simple";
  t.params.eps = seq.eps;
  t.params.seed = 17;
  t.budget = allocator_info("simple").budget;
  d.targets.push_back(t);
  const auto report = run_differential(seq, d);
  EXPECT_FALSE(report.has_value())
      << to_string(report->kind) << ": " << report->message;
}

TEST(ArenaFuzz, CampaignRunsCleanAtArenaScale) {
  FuzzConfig cfg;
  cfg.engine = "arena";
  cfg.capacity = Tick{1} << 20;
  cfg.iterations = 2;
  cfg.updates_per_sequence = 120;
  cfg.mutants_per_sequence = 1;
  cfg.allocators = {"simple"};
  cfg.shrink = false;
  const FuzzSummary summary = run_fuzz(cfg);
  EXPECT_TRUE(summary.ok())
      << summary.failures.front().report.message;
  EXPECT_EQ(summary.iterations, 2u);
}

TEST(ArenaFuzz, CampaignBeyondTheArenaCapIsRejectedUpFront) {
  FuzzConfig cfg;  // the tick-only default capacity, 2^40
  cfg.engine = "arena";
  cfg.allocators = {"simple"};
  expect_throw_contains(
      [&] { (void)run_fuzz(cfg); },
      "1 fuzz target(s) cannot run at capacity 2^40 (drop them from "
      "--allocators or change --capacity-log2):\n  simple (eps 0.015625): "
      "a byte arena of 1099511627776 ticks");
}

TEST(ArenaFuzz, UnknownEngineNamesArena) {
  FuzzConfig cfg;
  cfg.engine = "bogus";
  expect_throw_contains([&] { (void)run_fuzz(cfg); },
                        "(validated, release, arena)");
}

}  // namespace
}  // namespace memreal
