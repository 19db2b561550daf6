// GEO (Theorem 4.1): level structure, size classes, huge-item handling,
// swap/inflation, waste recovery, level-size invariant, cost shape.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "alloc/geo.h"
#include "alloc/registry.h"
#include "mem/memory.h"
#include "testing.h"
#include "util/rng.h"
#include "workload/adversarial.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

GeoAllocator make_geo(LayoutStore& mem, double eps, std::uint64_t seed = 9) {
  GeoConfig c;
  c.eps = eps;
  c.seed = seed;
  return GeoAllocator(mem, c);
}

Sequence geo_seq(double eps, std::size_t updates, std::uint64_t seed,
                 double huge_fraction = 0.0) {
  GeoRegimeConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.churn_updates = updates;
  c.seed = seed;
  c.huge_fraction = huge_fraction;
  return make_geo_regime(c);
}

TEST(Geo, StructureMatchesPaper) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  // ell = ceil(4.5 * log2(64)) = 27 levels.
  EXPECT_EQ(geo.level_count(), 27);
  // Huge threshold = sqrt(eps)/100.
  EXPECT_EQ(geo.huge_threshold(),
            static_cast<Tick>(std::sqrt(1.0 / 64) / 100.0 *
                              static_cast<double>(kCap)));
  // C = O(eps^-1/2 log eps^-1) classes; for eps = 1/64 about
  // log_{1.125}(eps^-4.5) ~ 160.
  EXPECT_GT(geo.class_count(), 100u);
  EXPECT_LT(geo.class_count(), 400u);
}

TEST(Geo, ClassOfSizeIsMonotone) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  std::size_t prev = 0;
  const Tick lo = static_cast<Tick>(std::pow(1.0 / 64, 5.0) *
                                    static_cast<double>(kCap));
  for (Tick s = lo; s < geo.huge_threshold(); s += (s / 7) + 1) {
    const std::size_t c = geo.class_of_size(s);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Geo, DeeperLevelsFitFewerItems) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  // j* is deeper for smaller classes.
  const std::size_t small_cls = geo.class_of_size(
      static_cast<Tick>(std::pow(1.0 / 64, 4.0) * static_cast<double>(kCap)));
  const std::size_t large_cls =
      geo.class_of_size(geo.huge_threshold() - 1);
  EXPECT_GT(geo.deepest_level_for_class(small_cls),
            geo.deepest_level_for_class(large_cls));
  EXPECT_GE(geo.deepest_level_for_class(large_cls), 1);
}

TEST(Geo, LayoutStaysContiguousFromZero) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  const Tick s = static_cast<Tick>(1e-4 * static_cast<double>(kCap));
  engine.step(Update::insert(1, s));
  engine.step(Update::insert(2, s + 100));
  engine.step(Update::insert(3, s + 7));
  // Rebuilds may reorder items, but the layout is contiguous from 0.
  EXPECT_EQ(mem.live_mass(), mem.span_end());
  const auto snap = mem.snapshot();
  EXPECT_EQ(snap.front().offset, 0u);
  geo.check_invariants();
}

TEST(Geo, HugeItemsCompactedAtStart) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  const Tick small = static_cast<Tick>(1e-3 * static_cast<double>(kCap));
  const Tick huge = geo.huge_threshold() * 2;
  engine.step(Update::insert(1, small));
  engine.step(Update::insert(2, huge));
  engine.step(Update::insert(3, small));
  engine.step(Update::insert(4, huge));
  // Both huge items occupy the prefix.
  const auto snap = mem.snapshot();
  EXPECT_EQ(snap[0].size, huge);
  EXPECT_EQ(snap[1].size, huge);
  geo.check_invariants();
  // Deleting a huge item compacts and keeps the prefix property.
  engine.step(Update::erase(2, huge));
  const auto snap2 = mem.snapshot();
  EXPECT_EQ(snap2[0].size, huge);
  geo.check_invariants();
}

TEST(Geo, SwapInflatesAndRecovers) {
  const double eps = 1.0 / 64;
  // Narrow band of large items: swaps are frequent and each wastes a large
  // class width, so waste recovery fires within a few thousand updates.
  GeoRegimeConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.band_ratio = 4;
  c.churn_updates = 6000;
  c.seed = 3;
  const Sequence seq = make_geo_regime(c);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 64;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  EngineOptions opts;
  opts.check_invariants_every = 64;
  Engine engine(mem, geo, opts);
  engine.run(seq.updates);
  // The run must have exercised waste recovery at least once...
  EXPECT_GT(geo.waste_recoveries(), 0u);
  // ...and a level rebuild fires on every non-huge update.
  EXPECT_GE(geo.level_rebuilds(), seq.updates.size() / 2);
}

TEST(Geo, WasteBoundedByEps) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 800, 5);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  for (const Update& u : seq.updates) {
    engine.step(u);
    // Inflation waste stays below eps at all times (checked exactly).
    EXPECT_LE(mem.extent_mass() - mem.live_mass(), mem.eps_ticks());
  }
}

TEST(Geo, ResizableBoundHolds) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 800, 6, /*huge_fraction=*/0.05);
  const RunStats s = testing::run_with_invariants("geo", seq, 1, 0.0, 8);
  EXPECT_GT(s.updates, 0u);
}

TEST(Geo, RejectsTooSmallItems) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  EXPECT_THROW(engine.step(Update::insert(1, 2)), InvariantViolation);
}

TEST(Geo, CapacityResolutionGuard) {
  // eps^5 * capacity must stay well above one tick.
  Memory mem = testing::strict_memory(1 << 20, 1.0 / 64);
  GeoConfig c;
  c.eps = 1.0 / 64;
  EXPECT_THROW(GeoAllocator(mem, c), InvariantViolation);
}

// The registry's GEO band starts at sqrt(eps)/51200 of capacity, GEO's
// class ladder at eps^5.  Up to the registry's eps ceiling every size the
// band admits has a class; past it serves() rejects the configuration.
TEST(Geo, RegistryBandStaysAboveTheClassFloor) {
  const AllocatorInfo info = allocator_info("geo");
  for (const Tick cap : {Tick{1} << 22, Tick{1} << 30, Tick{1} << 40}) {
    for (const double eps : {1.0 / 16, 0.07, info.max_eps}) {
      Memory mem = testing::strict_memory(cap, eps);
      GeoAllocator geo = make_geo(mem, eps);
      EXPECT_NO_THROW((void)geo.class_of_size(info.sizes.min_size(eps, cap)))
          << "eps " << eps << " capacity " << cap;
    }
    WorkloadShape shape;
    shape.min_size = info.sizes.min_size(1.0 / 8, cap);
    shape.max_size = info.sizes.max_size(1.0 / 8, cap) - 1;
    std::string why;
    EXPECT_FALSE(info.serves(shape, 1.0 / 8, cap, &why));
    EXPECT_NE(why.find("beyond the supported ceiling"), std::string::npos)
        << why;
  }
}

TEST(Geo, LevelItemCountsAreNested) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 400, 8);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  engine.run(seq.updates);
  for (int j = 2; j <= geo.level_count(); ++j) {
    EXPECT_LE(geo.level_item_count(j), geo.level_item_count(j - 1));
  }
}

// Parameterized sweep: full invariants across eps, seeds and huge mix.
struct GeoParam {
  double eps;
  std::uint64_t seed;
  double huge_fraction;
};

class GeoSweep : public ::testing::TestWithParam<GeoParam> {};

TEST_P(GeoSweep, InvariantsHold) {
  const auto [eps, seed, huge] = GetParam();
  const Sequence seq = geo_seq(eps, 600, seed, huge);
  const RunStats s = testing::run_with_invariants("geo", seq, seed, 0.0, 4);
  EXPECT_GT(s.updates, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeoSweep,
    ::testing::Values(GeoParam{1.0 / 16, 1, 0.0}, GeoParam{1.0 / 16, 2, 0.1},
                      GeoParam{1.0 / 64, 1, 0.0}, GeoParam{1.0 / 64, 2, 0.05},
                      GeoParam{1.0 / 64, 3, 0.2}, GeoParam{1.0 / 256, 1, 0.0},
                      GeoParam{1.0 / 256, 2, 0.05}));

TEST(Geo, PingPongSameSizeKeepsInvariants) {
  // Insert/delete ping-pong of one size hammers the deepest level's
  // threshold (always 1) and the swap/waste machinery.
  const double eps = 1.0 / 64;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  const Tick s = static_cast<Tick>(5e-4 * static_cast<double>(kCap));
  // Background population of the same class.
  for (ItemId i = 1; i <= 30; ++i) engine.step(Update::insert(i, s + i));
  ItemId next = 100;
  for (int round = 0; round < 120; ++round) {
    engine.step(Update::insert(next, s + 500));
    engine.step(Update::erase(next, s + 500));
    ++next;
    if (round % 10 == 0) geo.check_invariants();
  }
  geo.check_invariants();
  EXPECT_EQ(mem.item_count(), 30u);
}

TEST(Geo, DeleteEveryOtherThenRefill) {
  const double eps = 1.0 / 64;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  Rng rng(17);
  const Tick base = static_cast<Tick>(3e-4 * static_cast<double>(kCap));
  std::vector<std::pair<ItemId, Tick>> items;
  for (ItemId i = 1; i <= 60; ++i) {
    const Tick s = base + rng.next_below(base);
    items.emplace_back(i, s);
    engine.step(Update::insert(i, s));
  }
  for (std::size_t i = 0; i < items.size(); i += 2) {
    engine.step(Update::erase(items[i].first, items[i].second));
  }
  geo.check_invariants();
  for (ItemId i = 100; i < 130; ++i) {
    engine.step(Update::insert(i, base + rng.next_below(base)));
  }
  geo.check_invariants();
  EXPECT_EQ(mem.item_count(), 60u);
}

TEST(Geo, HandleRecyclingUnderSwapHeavyChurn) {
  // A small id pool re-inserts freed ids constantly (handles come back off
  // the free list), sizes straddle the huge threshold, and the non-huge
  // sizes crowd the last class or two, whose j* holds a single item, so
  // nearly every non-huge delete swaps in the class minimum (I' inherits
  // I's slot and label).  The allocator self-check runs after every update.
  const double eps = 1.0 / 16;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps, 5);
  Engine engine(mem, geo);
  const Tick thr = geo.huge_threshold();
  Rng rng(21);
  constexpr ItemId kIds = 48;
  std::vector<Tick> live(kIds + 1, 0);  // 0 = not live
  std::size_t reinserts = 0;
  std::size_t huge_inserts = 0;
  std::size_t huge_deletes = 0;
  std::size_t swaps = 0;
  std::vector<bool> seen(kIds + 1, false);
  for (int step = 0; step < 4000; ++step) {
    const ItemId id = 1 + rng.next_below(kIds);
    if (live[id] == 0) {
      const bool huge = rng.next_below(4) == 0;
      const Tick size = huge ? thr + rng.next_below(thr)
                             : thr - 1 - rng.next_below(thr / 16);
      engine.step(Update::insert(id, size));
      live[id] = size;
      reinserts += seen[id] ? 1 : 0;
      seen[id] = true;
      huge_inserts += huge ? 1 : 0;
    } else {
      const Tick waste = mem.extent_mass() - mem.live_mass();
      const std::size_t recoveries = geo.waste_recoveries();
      engine.step(Update::erase(id, live[id]));
      huge_deletes += live[id] >= thr ? 1 : 0;
      // A swap inflates I' (or, if it tips the waste over its threshold,
      // triggers a recovery that reverts all inflation).
      swaps += mem.extent_mass() - mem.live_mass() > waste ||
                       geo.waste_recoveries() > recoveries
                   ? 1
                   : 0;
      live[id] = 0;
    }
    ASSERT_NO_THROW(geo.check_invariants()) << "step " << step;
  }
  EXPECT_GT(reinserts, 1'000u);
  EXPECT_GT(huge_inserts, 200u);
  EXPECT_GT(huge_deletes, 200u);
  EXPECT_GT(swaps, 500u);
  EXPECT_GT(geo.waste_recoveries(), 0u);
  mem.audit();
}

TEST(Geo, ReleaseDecisionsArePinned) {
  // The churn case is `memreal_shard --allocator geo --engine release
  // --shards 1 --threads 1 --updates 5000 --seed 7 --workload churn`.
  const testing::DecisionPin pins[] = {
      {"churn", 7, 620101394316755, 2547442922614, 7585, 7,
       10625526277048858642ULL},
      {"sawtooth", 7, 340183125954044, 1838737768536, 5450, 7,
       15280698674935248997ULL},
  };
  for (const testing::DecisionPin& pin : pins) {
    SCOPED_TRACE(pin.scenario);
    const auto cell = testing::run_release_scenario(
        "geo", pin.scenario, 1.0 / 64, Tick{1} << 40, 5'000, pin.seed);
    const auto& geo = dynamic_cast<const GeoAllocator&>(cell->allocator());
    EXPECT_EQ(cell->stats().moved_mass, pin.moved_mass);
    EXPECT_EQ(cell->stats().update_mass, pin.update_mass);
    EXPECT_EQ(geo.level_rebuilds(), pin.level_rebuilds);
    EXPECT_EQ(geo.waste_recoveries(), pin.waste_recoveries);
    EXPECT_EQ(testing::layout_digest(cell->memory()), pin.layout_digest);
    cell->audit();
  }
}

TEST(Geo, DeterministicThresholdAblationStillCorrect) {
  // Correctness must survive the ablation; only the adversarial cost
  // profile changes (bench T8a).
  const double eps = 1.0 / 64;
  SingleClassAttackConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.attack_pairs = 400;
  const Sequence seq = make_single_class_attack(c);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoConfig gc;
  gc.eps = eps;
  gc.deterministic_thresholds = true;
  GeoAllocator geo(mem, gc);
  EngineOptions opts;
  opts.check_invariants_every = 8;
  Engine engine(mem, geo, opts);
  const RunStats s = engine.run(seq.updates);
  EXPECT_GT(s.updates, 0u);
}

}  // namespace
}  // namespace memreal
