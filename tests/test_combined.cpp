// COMBINED (Corollary 4.10): region split, routing, external updates,
// resizable bound with mixed tiny + large traffic.
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/combined.h"
#include "mem/memory.h"
#include "testing.h"
#include "workload/adversarial.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;
constexpr double kEps = 1.0 / 16;

Sequence mixed_seq(double eps, std::size_t updates, std::uint64_t seed,
                   double tiny_fraction = 0.5) {
  MixedTinyLargeConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.churn_updates = updates;
  c.seed = seed;
  c.tiny_fraction = tiny_fraction;
  return make_mixed_tiny_large(c);
}

TEST(Combined, TinyThresholdAtMostEps4) {
  Memory mem = testing::strict_memory(kCap, kEps);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  // At large eps the threshold is clamped below eps^4 so the tiny units
  // keep their Theta(eps^3) size; it is exactly eps^4 once eps <= 2^-7.
  EXPECT_LE(alloc.tiny_threshold(),
            static_cast<Tick>(std::pow(kEps, 4.0) *
                              static_cast<double>(kCap)));
  Memory mem2 = testing::strict_memory(kCap, 1.0 / 256);
  CombinedConfig c2;
  c2.eps = 1.0 / 256;
  CombinedAllocator alloc2(mem2, c2);
  EXPECT_EQ(alloc2.tiny_threshold(),
            static_cast<Tick>(std::pow(1.0 / 256, 4.0) *
                              static_cast<double>(kCap)));
}

TEST(Combined, RoutesBySize) {
  Memory mem = testing::strict_memory(kCap, kEps);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  Engine engine(mem, alloc);
  const Tick tiny = alloc.tiny_threshold() / 2;
  const Tick large = alloc.tiny_threshold() * 100;
  engine.step(Update::insert(1, large));
  EXPECT_EQ(alloc.large_mass(), large);
  engine.step(Update::insert(2, tiny));
  EXPECT_EQ(alloc.large_mass(), large);
  // Large items live in the GEO region [0, L1 + eps/2); tiny items beyond.
  EXPECT_LT(mem.offset_of(1), alloc.flex().region_start());
  EXPECT_GE(mem.offset_of(2), alloc.flex().region_start());
  alloc.check_invariants();
}

TEST(Combined, LargeUpdateShiftsFlexRegion) {
  Memory mem = testing::strict_memory(kCap, kEps);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  Engine engine(mem, alloc);
  const Tick tiny = alloc.tiny_threshold() / 2;
  const Tick large = alloc.tiny_threshold() * 100;
  engine.step(Update::insert(1, tiny));
  const Tick start0 = alloc.flex().region_start();
  engine.step(Update::insert(2, large));
  EXPECT_EQ(alloc.flex().region_start(), start0 + large);
  engine.step(Update::erase(2, large));
  EXPECT_EQ(alloc.flex().region_start(), start0);
  alloc.check_invariants();
}

TEST(Combined, SurvivesMixedChurnFullValidation) {
  const Sequence seq = mixed_seq(kEps, 1200, 3);
  const RunStats s = testing::run_with_invariants("combined", seq, 1, 0.0, 16);
  EXPECT_GT(s.updates, 1000u);
}

TEST(Combined, ResizableBoundHolds) {
  const Sequence seq = mixed_seq(kEps, 800, 5);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  Engine engine(mem, alloc);
  engine.run(seq.updates);
  EXPECT_LE(mem.span_end(), mem.live_mass() + mem.eps_ticks());
}

TEST(Combined, EmptiesCleanly) {
  Memory mem = testing::strict_memory(kCap, kEps);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  Engine engine(mem, alloc);
  const Tick tiny = alloc.tiny_threshold() / 2;
  const Tick large = alloc.tiny_threshold() * 64;
  for (ItemId i = 1; i <= 10; ++i) {
    engine.step(Update::insert(i, i % 2 ? tiny : large));
  }
  for (ItemId i = 1; i <= 10; ++i) {
    engine.step(Update::erase(i, i % 2 ? tiny : large));
  }
  EXPECT_EQ(mem.item_count(), 0u);
  alloc.check_invariants();
}

TEST(Combined, ExternalUpdateStorm) {
  // Alternating large inserts/deletes push FLEXHASH's region back and
  // forth on every update; the buffer accounts must absorb the storm.
  Memory mem = testing::strict_memory(kCap, kEps);
  CombinedConfig c;
  c.eps = kEps;
  CombinedAllocator alloc(mem, c);
  EngineOptions opts;
  opts.check_invariants_every = 1;
  Engine engine(mem, alloc, opts);
  const Tick tiny = alloc.tiny_threshold() / 2;
  // A tiny population that FLEXHASH must keep intact throughout.
  for (ItemId i = 1; i <= 50; ++i) engine.step(Update::insert(i, tiny - i));
  Rng rng(21);
  ItemId next = 1000;
  const Tick big_lo = alloc.tiny_threshold() * 4;
  for (int round = 0; round < 300; ++round) {
    const Tick s = big_lo + rng.next_below(big_lo * 200);
    engine.step(Update::insert(next, s));
    engine.step(Update::erase(next, s));
    ++next;
  }
  EXPECT_EQ(mem.item_count(), 50u);
  alloc.check_invariants();
  mem.audit();
}

TEST(Combined, ReleaseDecisionsArePinned) {
  // COMBINED runs GEO on its large items, so a change to GEO's decisions
  // moves these too.
  const testing::DecisionPin pins[] = {
      {"churn", 2, 324436076162719, 1704940926027, 3565, 3,
       12106085263337358506ULL},
      {"sawtooth", 7, 277787670537578, 1809345500114, 3807, 7,
       11486818227106462184ULL},
  };
  for (const testing::DecisionPin& pin : pins) {
    SCOPED_TRACE(pin.scenario);
    const auto cell = testing::run_release_scenario(
        "combined", pin.scenario, 1.0 / 32, Tick{1} << 40, 2'000, pin.seed);
    const GeoAllocator& geo =
        dynamic_cast<const CombinedAllocator&>(cell->allocator()).geo();
    EXPECT_EQ(cell->stats().moved_mass, pin.moved_mass);
    EXPECT_EQ(cell->stats().update_mass, pin.update_mass);
    EXPECT_EQ(geo.level_rebuilds(), pin.level_rebuilds);
    EXPECT_EQ(geo.waste_recoveries(), pin.waste_recoveries);
    EXPECT_EQ(testing::layout_digest(cell->memory()), pin.layout_digest);
    cell->audit();
  }
}

// Parameterized sweep over eps, seed and tiny fraction.
struct CombinedParam {
  double eps;
  std::uint64_t seed;
  double tiny_fraction;
};

class CombinedSweep : public ::testing::TestWithParam<CombinedParam> {};

TEST_P(CombinedSweep, InvariantsHold) {
  const auto [eps, seed, frac] = GetParam();
  const Sequence seq = mixed_seq(eps, 800, seed, frac);
  const RunStats s = testing::run_with_invariants("combined", seq, seed,
                                                  0.0, 32);
  EXPECT_GT(s.updates, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CombinedSweep,
    ::testing::Values(CombinedParam{1.0 / 16, 1, 0.3},
                      CombinedParam{1.0 / 16, 2, 0.7},
                      CombinedParam{1.0 / 32, 1, 0.5},
                      CombinedParam{1.0 / 32, 2, 0.9},
                      CombinedParam{1.0 / 64, 1, 0.5}));

}  // namespace
}  // namespace memreal
