// Lockstep differential suite for the release engine (ctest -L release).
//
// The release fast path (Engine over SlabStore) performs no per-update
// validation — THESE tests are its correctness story.  Every registry
// allocator is driven through identical sequences on a validated cell and
// a release cell in lockstep, asserting:
//
//   * bit-identical per-update costs (exact double equality — both
//     engines compute moved/size from integer tick masses),
//   * bit-identical layouts (full snapshot: id, offset, size, extent, in
//     offset order) at every comparison point and at run end,
//   * identical O(1) model counters every step (item_count, live_mass,
//     extent_mass, span_end, total_moved),
//   * identical RunStats on all deterministic fields.
//
// Workload shapes: per-allocator admissible churn (every registry name),
// sawtooth fill/drain cycles, multi-tenant Zipf, and adversarial near-full
// load — plus fragmenter stress for the universal folklore baselines, and
// huge-item, swap-heavy GEO/COMBINED streams that drive GEO's level
// rebuilds and waste recovery through the store's batched runs.  Hand
// driven SlabStore-vs-Memory cases pin the partial-run order restoration.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "alloc/combined.h"
#include "alloc/geo.h"
#include "alloc/registry.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "release/slab_store.h"
#include "shard/sharded_engine.h"
#include "testing.h"
#include "util/rng.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/multi_tenant.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

void expect_same_layout(LayoutStore& validated, LayoutStore& release,
                        const std::string& where) {
  const std::vector<PlacedItem> a = validated.snapshot();
  const std::vector<PlacedItem> b = release.snapshot();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << where << " item " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << where << " item " << i;
    EXPECT_EQ(a[i].size, b[i].size) << where << " item " << i;
    EXPECT_EQ(a[i].extent, b[i].extent) << where << " item " << i;
  }
}

void expect_same_stats(RunStats validated, RunStats release) {
  EXPECT_EQ(validated.updates, release.updates);
  EXPECT_EQ(validated.inserts, release.inserts);
  EXPECT_EQ(validated.deletes, release.deletes);
  EXPECT_EQ(validated.moved_mass, release.moved_mass);
  EXPECT_EQ(validated.update_mass, release.update_mass);
  EXPECT_EQ(validated.cost.count(), release.cost.count());
  EXPECT_EQ(validated.cost.sum(), release.cost.sum());
  EXPECT_EQ(validated.cost.mean(), release.cost.mean());
  EXPECT_EQ(validated.cost.min(), release.cost.min());
  EXPECT_EQ(validated.cost.max(), release.cost.max());
  EXPECT_EQ(validated.insert_cost.count(), release.insert_cost.count());
  EXPECT_EQ(validated.insert_cost.sum(), release.insert_cost.sum());
  EXPECT_EQ(validated.delete_cost.count(), release.delete_cost.count());
  EXPECT_EQ(validated.delete_cost.sum(), release.delete_cost.sum());
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(validated.cost_quantiles.quantile(q),
              release.cost_quantiles.quantile(q))
        << "q=" << q;
  }
  // wall_seconds / decision_seconds are measured, not replayed — excluded.
}

CellConfig cell_config(const std::string& engine,
                       const std::string& allocator, const Sequence& seq,
                       double delta) {
  CellConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.params.eps = seq.eps;
  c.params.delta = delta;
  c.params.seed = 17;
  return c;
}

/// Called after every lockstep update with both cells.
using StepHook = std::function<void(Cell& validated, Cell& release)>;

/// Drives both engines through `seq` update-for-update, checking costs and
/// O(1) counters at every step, layouts periodically and at the end, and
/// the full RunStats + a release-store audit at the end.
void lockstep(const std::string& allocator, const Sequence& seq,
              double delta = 0.0, const StepHook& after_step = {}) {
  seq.check_well_formed();
  Cell validated(seq.capacity, seq.eps_ticks,
                 cell_config("validated", allocator, seq, delta));
  Cell release(seq.capacity, seq.eps_ticks,
               cell_config("release", allocator, seq, delta));
  for (std::size_t i = 0; i < seq.updates.size(); ++i) {
    const Update& u = seq.updates[i];
    const double vc = validated.step(u);
    const double rc = release.step(u);
    ASSERT_EQ(vc, rc) << "cost diverged at update " << i;
    ASSERT_EQ(validated.memory().item_count(), release.memory().item_count())
        << "item count diverged at update " << i;
    ASSERT_EQ(validated.memory().live_mass(), release.memory().live_mass())
        << "live mass diverged at update " << i;
    ASSERT_EQ(validated.memory().extent_mass(),
              release.memory().extent_mass())
        << "extent mass diverged at update " << i;
    ASSERT_EQ(validated.memory().span_end(), release.memory().span_end())
        << "span diverged at update " << i;
    ASSERT_EQ(validated.memory().total_moved(),
              release.memory().total_moved())
        << "moved mass diverged at update " << i;
    if (after_step) {
      after_step(validated, release);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (i % 64 == 0) {
      expect_same_layout(validated.memory(), release.memory(),
                         "update " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_same_layout(validated.memory(), release.memory(), "final");
  expect_same_stats(validated.stats(), release.stats());
  validated.audit();
  release.audit();
}

TEST(Lockstep, ChurnEveryRegistryAllocator) {
  for (const auto& name : allocator_names()) {
    SCOPED_TRACE(name);
    const testing::RegimeCase c = testing::regime_case(name);
    const Sequence seq = testing::regime_sequence(c, kCap, 400, /*seed=*/23);
    ASSERT_GE(seq.size(), 400u);
    lockstep(name, seq, c.delta);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, SawtoothFillDrainCycles) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    SawtoothConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.high_load = 0.9;
    c.low_load = 0.1;
    c.teeth = 4;
    c.seed = 29;
    lockstep(name, make_sawtooth(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, MultiTenantZipf) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    MultiTenantConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.tenants = 4;
    c.zipf_s = 1.0;
    c.churn_updates = 500;
    c.seed = 31;
    lockstep(name, make_multi_tenant(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, AdversarialNearFullLoad) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    ChurnConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.min_size = kCap / 32;          // the simple band [eps, 2 eps)
    c.max_size = kCap / 16 - 1;
    c.target_load = 0.98;  // churn pinned just under the budget
    c.churn_updates = 500;
    c.seed = 37;
    lockstep(name, make_churn(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, FragmenterOnUniversalBaselines) {
  for (const auto* name : {"folklore-compact", "folklore-windowed"}) {
    SCOPED_TRACE(name);
    FragmenterConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.seed = 41;
    lockstep(name, make_fragmenter(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// What a GEO lockstep run exercised, as seen by one cell's GeoAllocator.
struct GeoCoverage {
  std::size_t waste_recoveries = 0;
  std::size_t level_rebuilds = 0;
};

/// The GeoAllocator inside a cell (the cell's allocator, or a part of it).
using GeoOf = std::function<const GeoAllocator&(Cell&)>;

/// Lockstep run that also checks the allocator's own invariants after
/// every update on both cells and requires both GEO instances to agree on
/// their rebuild and recovery counters throughout.
GeoCoverage lockstep_geo(const std::string& allocator, const Sequence& seq,
                         const GeoOf& geo_of) {
  GeoCoverage out;
  lockstep(allocator, seq, 0.0, [&](Cell& validated, Cell& release) {
    validated.allocator().check_invariants();
    release.allocator().check_invariants();
    const GeoAllocator& vg = geo_of(validated);
    const GeoAllocator& rg = geo_of(release);
    ASSERT_EQ(vg.waste_recoveries(), rg.waste_recoveries());
    ASSERT_EQ(vg.level_rebuilds(), rg.level_rebuilds());
    out.waste_recoveries = rg.waste_recoveries();
    out.level_rebuilds = rg.level_rebuilds();
  });
  return out;
}

/// Inserts and deletes in `seq` of items at or above `huge_threshold`.
std::pair<std::size_t, std::size_t> huge_updates(const Sequence& seq,
                                                 Tick huge_threshold) {
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  for (const Update& u : seq.updates) {
    if (u.size < huge_threshold) continue;
    ++(u.is_insert() ? inserts : deletes);
  }
  return {inserts, deletes};
}

TEST(Lockstep, GeoHugeAndSwapHeavyDeletes) {
  // A narrow band (ratio 4) keeps every class crowded, so most deletes
  // swap in the class minimum and inflation piles up until waste recovery
  // fires; a 10% huge stream reshuffles the huge prefix.
  GeoRegimeConfig g;
  g.capacity = kCap;
  g.eps = 1.0 / 32;
  g.band_ratio = 4;
  g.huge_fraction = 0.1;
  g.churn_updates = 2000;
  g.seed = 47;
  const Sequence seq = make_geo_regime(g);
  Memory probe_mem(seq.capacity, seq.eps_ticks);
  GeoConfig gc;
  gc.eps = g.eps;
  const Tick huge_threshold = GeoAllocator(probe_mem, gc).huge_threshold();

  const GeoOf geo_of = [](Cell& cell) -> const GeoAllocator& {
    return dynamic_cast<const GeoAllocator&>(cell.allocator());
  };
  const GeoCoverage cov = lockstep_geo("geo", seq, geo_of);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(cov.waste_recoveries, 0u);
  EXPECT_GT(cov.level_rebuilds, seq.size() / 2);
  const auto [huge_inserts, huge_deletes] = huge_updates(seq, huge_threshold);
  EXPECT_GT(huge_inserts, 0u);
  EXPECT_GT(huge_deletes, 0u);
}

TEST(Lockstep, CombinedHugeTinyAndSwapHeavyDeletes) {
  // COMBINED runs GEO at eps/2 below a FLEXHASH region, so every GEO
  // rebuild is a partial run with an untouched region past its end.  The
  // stream mixes tiny FLEXHASH items, a narrow band of non-huge GEO items
  // (swap-heavy deletes, waste recovery) and huge GEO items.
  const double eps = 1.0 / 16;
  Memory probe_mem(kCap, static_cast<Tick>(eps * static_cast<double>(kCap)));
  CombinedConfig cc;
  cc.eps = eps;
  const CombinedAllocator probe(probe_mem, cc);
  const Tick tiny_hi = probe.tiny_threshold();
  const Tick huge_lo = probe.geo().huge_threshold();
  const Tick band_hi = huge_lo / 2;

  SequenceBuilder b("combined-geo-paths", kCap, eps);
  Rng rng(53);
  auto draw = [&]() -> Tick {
    const double u = rng.next_double();
    if (u < 0.1) return rng.next_in(huge_lo, 4 * huge_lo);
    if (u < 0.3) return rng.next_in(std::max<Tick>(1, tiny_hi / 4), tiny_hi);
    return rng.next_in(band_hi / 4, band_hi);
  };
  const auto target = static_cast<Tick>(0.8 * static_cast<double>(b.budget()));
  while (true) {
    const Tick s = draw();
    if (b.live_mass() + s > target) break;
    b.insert(s);
  }
  for (std::size_t i = 0; i < 2000; ++i) {
    b.erase_random(rng);
    Tick s = draw();
    while (!b.can_insert(s)) s = draw();
    b.insert(s);
  }
  const Sequence seq = b.take();

  const GeoOf geo_of = [](Cell& cell) -> const GeoAllocator& {
    return dynamic_cast<const CombinedAllocator&>(cell.allocator()).geo();
  };
  const GeoCoverage cov = lockstep_geo("combined", seq, geo_of);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(cov.waste_recoveries, 0u);
  EXPECT_GT(cov.level_rebuilds, 0u);
  const auto [huge_inserts, huge_deletes] = huge_updates(seq, huge_lo);
  EXPECT_GT(huge_inserts, 0u);
  EXPECT_GT(huge_deletes, 0u);
}

// A sharded run's routing is engine-independent, so the per-shard layouts
// of a release-engine run must be bit-identical to a validated run of the
// same config — the S>1 extension of the single-cell lockstep guarantee.
TEST(Lockstep, ShardedReleaseMatchesShardedValidated) {
  constexpr Tick kShardCap = Tick{1} << 40;
  constexpr std::size_t kShards = 4;
  MultiTenantConfig w;
  w.capacity = kShards * kShardCap;
  w.eps = 1.0 / 32;
  w.tenants = 4;
  w.zipf_s = 1.0;
  w.min_size = kShardCap / 32;      // band of *shard* capacity
  w.max_size = kShardCap / 16 - 1;
  w.churn_updates = 600;
  w.seed = 43;
  const Sequence seq = make_multi_tenant(w);

  ShardedConfig cfg;
  cfg.allocator = "simple";
  cfg.params.eps = 1.0 / 32;
  cfg.shards = kShards;
  cfg.shard_capacity = kShardCap;
  cfg.eps = 1.0 / 32;
  cfg.batch_size = 128;

  cfg.engine = "validated";
  ShardedEngine validated(cfg);
  const ShardedRunStats vs = validated.run(seq);

  cfg.engine = "release";
  ShardedEngine release(cfg);
  const ShardedRunStats rs = release.run(seq);

  for (std::size_t s = 0; s < kShards; ++s) {
    expect_same_layout(validated.memory(s), release.memory(s),
                       "shard " + std::to_string(s));
  }
  EXPECT_EQ(vs.global.updates, rs.global.updates);
  EXPECT_EQ(vs.global.moved_mass, rs.global.moved_mass);
  EXPECT_EQ(vs.global.update_mass, rs.global.update_mass);
  EXPECT_EQ(vs.fallback_routes, rs.fallback_routes);
  release.audit();
}

TEST(SlabStore, AuditCatchesPlantedCorruption) {
  const Sequence seq =
      make_simple_regime(kCap, 1.0 / 32, /*churn_updates=*/50, /*seed=*/7);
  Cell cell(seq.capacity, seq.eps_ticks,
            cell_config("release", "folklore-compact", seq, 0.0));
  cell.run(seq.updates);
  cell.audit();  // healthy store passes
  ASSERT_GE(cell.memory().item_count(), 2u);
  // Shift the first item onto its right neighbor: the SoA record changes
  // but by_offset_/ends_ keep their stale view — exactly a slab bug.
  static_cast<SlabStore&>(cell.memory()).debug_corrupt_first_offset(1);
  EXPECT_THROW(cell.memory().audit(), InvariantViolation);
}

TEST(SlabStore, PointAndOrderedQueriesMatchMemorySemantics) {
  // Hand-driven store exercising the query surface on a known layout.
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(10, true);
  store.place(/*id=*/5, /*offset=*/100, /*size=*/10);
  store.end_update();
  store.begin_update(7, true);
  store.place(/*id=*/9, /*offset=*/200, /*size=*/7, /*extent=*/20);
  store.end_update();

  EXPECT_TRUE(store.contains(5));
  EXPECT_FALSE(store.contains(6));
  EXPECT_EQ(store.offset_of(9), 200u);
  EXPECT_EQ(store.extent_of(9), 20u);
  EXPECT_EQ(store.end_of(9), 220u);
  EXPECT_EQ(store.span_end(), 220u);
  EXPECT_EQ(store.live_mass(), 17u);
  EXPECT_EQ(store.extent_mass(), 30u);

  ASSERT_TRUE(store.item_at(105).has_value());
  EXPECT_EQ(store.item_at(105)->id, 5u);
  EXPECT_FALSE(store.item_at(110).has_value());  // extent ends at 110
  ASSERT_TRUE(store.item_at(219).has_value());
  EXPECT_EQ(store.item_at(219)->id, 9u);

  ASSERT_TRUE(store.first_at_or_after(101).has_value());
  EXPECT_EQ(store.first_at_or_after(101)->id, 9u);
  ASSERT_TRUE(store.last_before(200).has_value());
  EXPECT_EQ(store.last_before(200)->id, 5u);
  EXPECT_FALSE(store.last_before(100).has_value());

  const auto n = store.neighbors_of(5);
  EXPECT_FALSE(n.prev.has_value());
  ASSERT_TRUE(n.next.has_value());
  EXPECT_EQ(n.next->id, 9u);

  const auto in = store.items_in(0, 150);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].id, 5u);

  const auto gs = store.gaps();
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0], (std::pair<Tick, Tick>{0, 100}));
  EXPECT_EQ(gs[1], (std::pair<Tick, Tick>{110, 90}));

  store.begin_update(10, false);
  store.remove(5);
  store.end_update();
  EXPECT_FALSE(store.contains(5));
  EXPECT_EQ(store.item_count(), 1u);
  EXPECT_EQ(store.span_end(), 220u);
  store.audit();
}

TEST(SlabStore, BatchedRunAndResetExtentsMatchPerItemSemantics) {
  // The bulk apply_run / reset_extents overrides must charge and land
  // exactly like their per-item loops (the lockstep suites prove this at
  // scale; this pins the arithmetic on a hand-checked layout).
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(10, true);
  store.place(1, 0, 10);
  store.end_update();
  store.begin_update(10, true);
  store.place(2, 50, 10, /*extent=*/25);  // inflated
  store.end_update();
  store.begin_update(10, true);
  store.place(3, 100, 10);
  store.end_update();
  EXPECT_EQ(store.span_end(), 110u);
  EXPECT_EQ(store.extent_mass(), 45u);

  // Full-layout run in a new order (the SIMPLE-rebuild path): every item
  // moves, charges its true size, and the span is the run's end.
  const ItemId run1[] = {3, 1, 2};
  store.begin_update(1, false);
  const Tick end1 = store.apply_run(run1, 0);
  EXPECT_EQ(store.end_update(), 30u);  // three moves x size 10
  EXPECT_EQ(end1, 45u);                // 10 + 10 + 25 (extent-contiguous)
  EXPECT_EQ(store.span_end(), 45u);
  EXPECT_EQ(store.offset_of(3), 0u);
  EXPECT_EQ(store.offset_of(1), 10u);
  EXPECT_EQ(store.offset_of(2), 20u);
  store.audit();

  // Whole-layout extent revert in one pass: free, deflates the span.
  store.begin_update(1, false);
  store.reset_extents(run1);
  EXPECT_EQ(store.end_update(), 0u);
  EXPECT_EQ(store.extent_of(2), 10u);
  EXPECT_EQ(store.extent_mass(), 30u);
  EXPECT_EQ(store.span_end(), 30u);
  store.audit();

  // Partial run (the covering-compaction path): close the gap a removal
  // leaves; only the item that actually moves is charged.
  store.begin_update(10, false);
  store.remove(1);
  store.end_update();
  const ItemId run2[] = {2};
  store.begin_update(1, false);
  const Tick end2 = store.apply_run(run2, 10);
  EXPECT_EQ(store.end_update(), 10u);
  EXPECT_EQ(end2, 20u);
  EXPECT_EQ(store.offset_of(2), 10u);
  EXPECT_EQ(store.span_end(), 20u);
  store.audit();
}

/// A SlabStore and a validating Memory driven by the same calls: Memory's
/// apply_run is the per-item move_to loop, so it is the reference for the
/// slab's batched run and its once-per-run order restoration.
class TwinStores {
 public:
  static constexpr Tick kCapacity = 1 << 20;
  static constexpr Tick kEps = 1 << 10;

  /// One update per item: `sizes[k]` lands at `offsets[k]` with id k + 1.
  TwinStores(const std::vector<Tick>& offsets, const std::vector<Tick>& sizes,
             const std::vector<Tick>& extents = {}) {
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      const auto id = static_cast<ItemId>(k + 1);
      const Tick extent = extents.empty() ? 0 : extents[k];
      for (LayoutStore* s : stores()) {
        s->begin_update(sizes[k], true);
        s->place(id, offsets[k], sizes[k], extent);
        s->end_update();
      }
    }
  }

  void begin() {
    for (LayoutStore* s : stores()) s->begin_update(1, false);
  }
  void remove(ItemId id) {
    for (LayoutStore* s : stores()) s->remove(id);
  }
  void run(const std::vector<ItemId>& ids, Tick offset) {
    EXPECT_EQ(memory_.apply_run(ids, offset), slab_.apply_run(ids, offset));
  }
  /// Closes the update and checks both stores agree on everything a query
  /// can observe.
  void end_and_compare() {
    EXPECT_EQ(memory_.moved_in_update(), slab_.moved_in_update());
    EXPECT_EQ(memory_.end_update(), slab_.end_update());
    memory_.audit();
    slab_.audit();
    expect_same_layout(memory_, slab_, "twin snapshot");
    const Tick span = memory_.span_end();
    EXPECT_EQ(span, slab_.span_end());
    for (Tick at = 0; at <= span + 1; ++at) {
      EXPECT_EQ(describe(memory_.item_at(at)), describe(slab_.item_at(at)))
          << "item_at " << at;
      EXPECT_EQ(describe(memory_.first_at_or_after(at)),
                describe(slab_.first_at_or_after(at)))
          << "first_at_or_after " << at;
    }
    for (const PlacedItem& p : memory_.snapshot()) {
      const auto a = memory_.neighbors_of(p.id);
      const auto b = slab_.neighbors_of(p.id);
      EXPECT_EQ(describe(a.prev), describe(b.prev)) << "prev of " << p.id;
      EXPECT_EQ(describe(a.next), describe(b.next)) << "next of " << p.id;
    }
  }

  [[nodiscard]] const SlabStore& slab() const { return slab_; }

 private:
  static std::string describe(const std::optional<PlacedItem>& p) {
    if (!p) return "none";
    return std::to_string(p->id) + "@" + std::to_string(p->offset) + "+" +
           std::to_string(p->size) + "/" + std::to_string(p->extent);
  }
  std::vector<LayoutStore*> stores() { return {&memory_, &slab_}; }

  Memory memory_{kCapacity, kEps};
  SlabStore slab_{kCapacity, kEps};
};

TEST(SlabStore, PartialRunReversingASuffixRestoresOrder) {
  // Items 1..6, size 10, back to back; the run lays 6, 5, 4 where 4, 5, 6
  // were: 6 crosses two neighbors leftward, 4 two rightward.
  TwinStores t({0, 10, 20, 30, 40, 50}, {10, 10, 10, 10, 10, 10});
  t.begin();
  t.run({6, 5, 4}, 30);
  t.end_and_compare();
  EXPECT_EQ(t.slab().offset_of(6), 30u);
  EXPECT_EQ(t.slab().offset_of(4), 50u);
}

TEST(SlabStore, PartialRunInterleavingASuffixRestoresOrder) {
  // Suffix 3..8 re-laid as 3, 6, 4, 7, 5, 8: sizes differ so offsets
  // shift unevenly, and the run's first and last items land where they
  // already were (free no-ops inside the run).
  TwinStores t({0, 10, 22, 32, 44, 52, 66, 72}, {10, 12, 10, 12, 8, 14, 6, 9});
  t.begin();
  t.run({3, 6, 4, 7, 5, 8}, 22);
  t.end_and_compare();
  EXPECT_EQ(t.slab().offset_of(3), 22u);
  EXPECT_EQ(t.slab().offset_of(6), 32u);
  EXPECT_EQ(t.slab().offset_of(5), 64u);
  EXPECT_EQ(t.slab().offset_of(8), 72u);
}

TEST(SlabStore, PartialRunLeavesPrefixAndTailRegionIntact) {
  // COMBINED's shape: an untouched prefix (1, 2), a reordered run whose
  // inflated middle item (4) lands where it was, and an untouched item
  // past the run's end (6, standing in for the FLEXHASH region).
  TwinStores t({0, 10, 20, 30, 55, 70}, {10, 10, 10, 20, 10, 5},
               {10, 10, 10, 25, 10, 5});
  t.begin();
  t.run({5, 4, 3}, 20);
  t.end_and_compare();
  EXPECT_EQ(t.slab().offset_of(5), 20u);
  EXPECT_EQ(t.slab().offset_of(4), 30u);
  EXPECT_EQ(t.slab().offset_of(3), 55u);
  EXPECT_EQ(t.slab().offset_of(6), 70u);
}

TEST(SlabStore, PartialRunJumpingLeftOverAnOutsideItem) {
  // Remove 1, then lay 3 at offset 0: it lands left of 2, an item outside
  // the run whose index position precedes 3's old one.
  TwinStores t({0, 10, 30}, {10, 10, 10});
  t.begin();
  t.remove(1);
  t.run({3}, 0);
  t.end_and_compare();
  ASSERT_TRUE(t.slab().first_item().has_value());
  EXPECT_EQ(t.slab().first_item()->id, 3u);
}

TEST(SlabStore, PartialRunKeepingOrderOnlyCompacts) {
  // Remove 3, then slide 4..6 left over the hole in the same update: no
  // moved slot crosses a neighbor, so the index is never re-sorted.
  TwinStores t({0, 10, 20, 30, 40, 50}, {10, 10, 10, 10, 10, 10});
  t.begin();
  t.remove(3);
  t.run({4, 5, 6}, 20);
  t.end_and_compare();
  EXPECT_EQ(t.slab().offset_of(6), 40u);
}

TEST(SlabStore, IdMapSurvivesChurnAcrossGrowthAndDeletion) {
  // Enough distinct ids to force several open-addressed table growths and
  // long backward-shift chains; audit() cross-checks every probe.
  SlabStore store(Tick{1} << 40, Tick{1} << 20);
  std::vector<ItemId> live;
  for (ItemId id = 0; id < 500; ++id) {
    store.begin_update(4, true);
    store.place(id, id * 8, 4);
    store.end_update();
    live.push_back(id);
  }
  // Delete every third item, then re-insert with new ids.
  for (std::size_t i = 0; i < live.size(); i += 3) {
    store.begin_update(4, false);
    store.remove(live[i]);
    store.end_update();
  }
  for (ItemId id = 1000; id < 1200; ++id) {
    store.begin_update(4, true);
    store.place(id, id * 8, 4);
    store.end_update();
  }
  store.audit();
  EXPECT_EQ(store.item_count(), 500 - (500 + 2) / 3 + 200);
}

TEST(MakeCell, RejectsUnknownEngineNames) {
  CellConfig c;
  c.engine = "debug";
  c.allocator = "simple";
  EXPECT_THROW((void)make_cell(kCap, Tick{1} << 40, c), InvariantViolation);
}

TEST(MakeCell, EngineNamesMatchFactory) {
  for (const auto& engine : engine_names()) {
    CellConfig c;
    c.engine = engine;
    c.allocator = "folklore-compact";
    auto cell = make_cell(Tick{1} << 30, Tick{1} << 20, c);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->name(), "folklore-compact");
  }
}

TEST(MakeCell, EveryFlavourRejectsMalformedDeletes) {
  // A delete naming an absent id, or a live id with the wrong size, must
  // fail before the allocator runs: a wrong size would charge the wrong k
  // to L/k and update_mass, and no later audit could see it.
  struct Flavour {
    const char* engine;
    bool arena;
  };
  for (const Flavour f : {Flavour{"validated", false},
                          Flavour{"release", false},
                          Flavour{"release", true}}) {
    SCOPED_TRACE(std::string(f.engine) + (f.arena ? "+arena" : ""));
    CellConfig c;
    c.engine = f.engine;
    c.arena = f.arena;
    c.allocator = "folklore-compact";
    c.params.eps = 1.0 / 64;
    auto cell = make_cell(1024, 16, c);
    cell->step(Update::insert(1, 4));
    auto expect_rejected = [&](const Update& u, const std::string& what) {
      try {
        cell->step(u);
        ADD_FAILURE() << "expected InvariantViolation containing '" << what
                      << "'";
      } catch (const InvariantViolation& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "message was: " << e.what();
      }
    };
    expect_rejected(Update::erase(1, 5), "sequence size mismatch for item 1");
    expect_rejected(Update::erase(2, 4), "delete of absent item 2");
    EXPECT_EQ(cell->stats().updates, 1u);
    EXPECT_EQ(cell->stats().update_mass, 4u);
    cell->audit();
  }
}

}  // namespace
}  // namespace memreal
