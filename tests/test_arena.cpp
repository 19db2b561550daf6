// Byte-space suite for the arena layer (ctest -L arena).
//
// The tick-vs-byte differential is the arena's correctness story: every
// registry allocator is driven through an admissible sequence on a plain
// validated cell and on two arena cells (validated and release inner
// stores) in lockstep, asserting
//
//   * bit-identical per-update tick costs and O(1) model counters,
//   * bit-identical layouts at a periodic cadence and at run end,
//   * payload stamps verifying after every memmove and on the final
//     audit (a failed stamp means a move physically clobbered a live
//     payload — the class of bug tick space cannot express),
//   * measured byte traffic inside the granule's rounding bound
//       L * bpt - M * (bpt - 1) <= moved_bytes <= L * bpt.
//
// Plus: ByteSpace rounding, ArenaStore staging/corruption detection, the
// ArenaAllocator byte facade, the vm_heap generator, the versioned trace
// format (v2 byte annotations, v1 back-compat, R expansion), sharded
// arena runs, and the arena lockstep mode of the fuzz oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "arena/arena_allocator.h"
#include "arena/arena_store.h"
#include "arena/byte_space.h"
#include "fuzz/differential.h"
#include "fuzz/fuzzer.h"
#include "harness/cell.h"
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

// Small enough that the lazily grown arena stays a few MB, large enough
// that every registry band (rsum needs eps^{3/4} * capacity-sized items)
// stays nondegenerate.
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
  EXPECT_EQ(s.align_up(1), 8u);
  EXPECT_EQ(s.align_up(8), 8u);
  EXPECT_EQ(s.align_up(17), 24u);
  EXPECT_EQ(s.min_allocation_bytes(), 8u);
  EXPECT_EQ(s.alignment(), 8u);
}

TEST(ByteSpace, TickByteRoundTrip) {
  const ByteSpace s(64);
  EXPECT_EQ(s.byte_of(0), 0u);
  EXPECT_EQ(s.byte_of(3), 192u);
  EXPECT_EQ(s.tick_of(192), 3u);
  EXPECT_TRUE(s.aligned(128));
  EXPECT_FALSE(s.aligned(129));
  expect_throw_contains([&] { (void)s.tick_of(100); }, "not aligned");
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
  // waste 9 > 8: the compaction run gathers item 5 and verifies it.
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

// -- The tick-vs-byte differential over every registry allocator -------------

void expect_same_layout(LayoutStore& plain, LayoutStore& arena,
                        const std::string& where) {
  const std::vector<PlacedItem> a = plain.snapshot();
  const std::vector<PlacedItem> b = arena.snapshot();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].id == b[i].id && a[i].offset == b[i].offset &&
                a[i].size == b[i].size && a[i].extent == b[i].extent)
        << where << " item " << i;
  }
}

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

// -- ArenaAllocator (the tt-metal-shaped byte facade) ------------------------

ArenaAllocatorConfig small_adapter(const std::string& allocator) {
  ArenaAllocatorConfig c;
  c.allocator = allocator;
  c.capacity_ticks = Tick{1} << 16;
  c.bytes_per_tick = 8;
  return c;
}

TEST(ArenaAllocator, AllocateReturnsAlignedStampedPayloads) {
  ArenaAllocator aa(small_adapter("folklore-compact"));
  EXPECT_EQ(aa.max_size_bytes(), (std::uint64_t{1} << 16) * 8);
  EXPECT_EQ(aa.min_allocation_size(), 8u);
  EXPECT_EQ(aa.alignment(), 8u);
  EXPECT_EQ(aa.align(13), 16u);

  const std::uint64_t need = aa.min_item_bytes() + 5;
  const auto a = aa.allocate(need);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->size_bytes, need);
  EXPECT_EQ(a->address % aa.alignment(), 0u);
  EXPECT_EQ(aa.allocation_count(), 1u);
  EXPECT_EQ(aa.allocated_bytes(), need);
  const std::span<const unsigned char> p = aa.payload(a->id);
  ASSERT_EQ(p.size(), need);
  for (std::uint64_t j = 0; j < p.size(); ++j) {
    ASSERT_EQ(p[j], ArenaStore::pattern_byte(a->id, j));
  }
  aa.audit();
}

TEST(ArenaAllocator, RejectsSizesOutsideTheServedBand) {
  ArenaAllocator aa(small_adapter("simple"));
  EXPECT_FALSE(aa.allocate(0).has_value());
  if (aa.min_item_bytes() > 1) {
    EXPECT_FALSE(aa.allocate(aa.min_item_bytes() - 1).has_value());
  }
  EXPECT_FALSE(aa.allocate(aa.max_item_bytes() + aa.alignment()).has_value());
  EXPECT_EQ(aa.allocation_count(), 0u);
}

TEST(ArenaAllocator, DeallocateByCurrentAddress) {
  ArenaAllocator aa(small_adapter("folklore-compact"));
  const auto a = aa.allocate(aa.min_item_bytes());
  const auto b = aa.allocate(aa.min_item_bytes());
  ASSERT_TRUE(a && b);
  aa.deallocate(aa.address_of(a->id));
  EXPECT_EQ(aa.allocation_count(), 1u);
  // The compacting policy may have moved b; its current address resolves.
  aa.deallocate(aa.address_of(b->id));
  EXPECT_EQ(aa.allocation_count(), 0u);
  expect_throw_contains([&] { aa.deallocate(0); }, "");
}

TEST(ArenaAllocator, IdsAreStableWhileAddressesMove) {
  ArenaAllocator aa(small_adapter("folklore-compact"));
  const auto a = aa.allocate(aa.min_item_bytes() + 1);
  const auto b = aa.allocate(aa.min_item_bytes() + 2);
  ASSERT_TRUE(a && b);
  aa.deallocate_id(a->id);  // compaction slides b down
  EXPECT_EQ(aa.address_of(b->id), 0u);
  const std::span<const unsigned char> p = aa.payload(b->id);
  for (std::uint64_t j = 0; j < p.size(); ++j) {
    ASSERT_EQ(p[j], ArenaStore::pattern_byte(b->id, j)) << "post-move";
  }
  aa.audit();
}

TEST(ArenaAllocator, AllocateAtAddressIsAttemptAndCheck) {
  ArenaAllocator aa(small_adapter("folklore-compact"));
  const auto a = aa.allocate(aa.min_item_bytes());
  ASSERT_TRUE(a.has_value());
  // folklore-compact appends at the span end: the tail range's start is
  // exactly where the next allocation will land.
  const auto ranges = aa.available_addresses(aa.min_item_bytes());
  ASSERT_FALSE(ranges.empty());
  const std::uint64_t tail = ranges.back().first;
  const auto hit = aa.allocate_at_address(tail, aa.min_item_bytes());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->address, tail);
  // Asking for any other aligned address must roll back cleanly.
  const std::size_t before = aa.allocation_count();
  const auto miss = aa.allocate_at_address(
      tail + 64 * aa.alignment(), aa.min_item_bytes());
  EXPECT_FALSE(miss.has_value());
  EXPECT_EQ(aa.allocation_count(), before);
  aa.audit();
}

TEST(ArenaAllocator, ClearFreesEverything) {
  ArenaAllocator aa(small_adapter("folklore-compact"));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(aa.allocate(aa.min_item_bytes()).has_value());
  }
  aa.clear();
  EXPECT_EQ(aa.allocation_count(), 0u);
  EXPECT_EQ(aa.allocated_bytes(), 0u);
  EXPECT_GT(aa.stats().moved_bytes, 0u);
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

TEST(ArenaFuzz, UnknownEngineNamesArena) {
  FuzzConfig cfg;
  cfg.engine = "bogus";
  expect_throw_contains([&] { (void)run_fuzz(cfg); },
                        "(validated, release, arena)");
}

}  // namespace
}  // namespace memreal
