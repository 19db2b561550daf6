// Theorem 5.1: lower-bound sequence structure, the no-additive-structure
// property, the potential function, and the certifier (measured cost of
// every runnable allocator dominates the potential-derived floor).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "lb/lower_bound.h"
#include "lb/potential.h"
#include "testing.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

/// The no-additive-structure property of (s1, s2), checked exhaustively
/// over lambda in [0, n]^2: the minimum |l1 s1 - l2 s2| over non-zero
/// pairs.
Tick min_additive_gap(const LowerBoundSpec& spec) {
  Tick best = ~Tick{0};
  for (std::size_t l1 = 0; l1 <= spec.n; ++l1) {
    for (std::size_t l2 = 0; l2 <= spec.n; ++l2) {
      if (l1 == 0 && l2 == 0) continue;
      const auto a = static_cast<long long>(l1 * spec.s1);
      const auto b = static_cast<long long>(l2 * spec.s2);
      best = std::min(best, static_cast<Tick>(std::llabs(a - b)));
    }
  }
  return best;
}

TEST(LowerBound, SpecMatchesPaper) {
  const auto spec = make_lower_bound_spec(kCap, 1.0 / 256);
  EXPECT_EQ(spec.n, 4u);  // eps^{-1/2}/4 = 16/4
  EXPECT_EQ(spec.s2,
            static_cast<Tick>(std::sqrt(1.0 / 256) *
                              static_cast<double>(kCap)));
  EXPECT_EQ(spec.s1, spec.s2 + 2 * spec.eps_ticks);
}

TEST(LowerBound, SequenceShape) {
  const auto spec = make_lower_bound_spec(kCap, 1.0 / 1024);
  const Sequence seq = make_lower_bound_sequence(spec);
  seq.check_well_formed();
  ASSERT_EQ(seq.size(), 3 * spec.n);
  for (std::size_t i = 0; i < spec.n; ++i) {
    EXPECT_TRUE(seq.updates[i].is_insert());
    EXPECT_EQ(seq.updates[i].size, spec.s1);
  }
  for (std::size_t i = spec.n; i < 3 * spec.n; i += 2) {
    EXPECT_FALSE(seq.updates[i].is_insert());
    EXPECT_EQ(seq.updates[i].size, spec.s1);
    EXPECT_TRUE(seq.updates[i + 1].is_insert());
    EXPECT_EQ(seq.updates[i + 1].size, spec.s2);
  }
}

TEST(LowerBound, NoAdditiveStructure) {
  for (double eps : {1.0 / 64, 1.0 / 256, 1.0 / 1024}) {
    const auto spec = make_lower_bound_spec(kCap, eps);
    // |l1 s1 - l2 s2| >= 2 eps for all non-zero (l1, l2) in [0, n]^2.
    EXPECT_GE(min_additive_gap(spec), 2 * spec.eps_ticks) << "eps=" << eps;
  }
}

TEST(LowerBound, FloorGrowsLogarithmically) {
  double prev = 0;
  for (double eps : {1.0 / 256, 1.0 / 1024, 1.0 / 4096, 1.0 / 16384}) {
    const auto spec = make_lower_bound_spec(kCap, eps);
    const double f = spec.amortized_floor();
    EXPECT_GT(f, prev);
    prev = f;
  }
  // Quadrupling eps^-1 doubles n: the floor gain per step approaches
  // ln(2)/6 * (s2/s1); check the growth is roughly additive (log shape).
  const double f1 =
      make_lower_bound_spec(kCap, 1.0 / 1024).amortized_floor();
  const double f2 =
      make_lower_bound_spec(kCap, 1.0 / 4096).amortized_floor();
  const double f3 =
      make_lower_bound_spec(kCap, 1.0 / 16384).amortized_floor();
  EXPECT_NEAR(f3 - f2, f2 - f1, 0.05);
}

TEST(Potential, PhiOfKnownLayouts) {
  // Layout: [A A B] with n = 3 (offset order).  From the end: i=1 item B
  // (B_1 = 1), i=2 (B_2 = 1), i=3 (B_3 = 1).
  std::vector<PlacedItem> snap{
      PlacedItem{1, 0, 10, 10},    // A
      PlacedItem{2, 10, 10, 10},   // A
      PlacedItem{10, 20, 10, 10},  // B
  };
  const auto is_b = [](ItemId id) { return id >= 10; };
  EXPECT_NEAR(potential_phi(snap, is_b, 3), 1.0 + 0.5 + 1.0 / 3, 1e-12);
  // Only the final 2 items count when n = 2.
  EXPECT_NEAR(potential_phi(snap, is_b, 2), 1.0 + 0.5, 1e-12);
  // All A's: zero.
  const auto no_b = [](ItemId) { return false; };
  EXPECT_DOUBLE_EQ(potential_phi(snap, no_b, 3), 0.0);
}

TEST(Potential, PhiMaxedByAllBs) {
  std::vector<PlacedItem> snap;
  for (ItemId i = 0; i < 5; ++i) {
    snap.push_back(PlacedItem{100 + i, i * 10, 10, 10});
  }
  const auto is_b = [](ItemId) { return true; };
  EXPECT_NEAR(potential_phi(snap, is_b, 5), 5.0, 1e-12);
}

TEST(Certifier, FolkloreCompactDominatesFloor) {
  const auto spec = make_lower_bound_spec(kCap, 1.0 / 1024);
  const CertifiedRun run =
      run_certified_lower_bound(spec, "folklore-compact");
  EXPECT_GE(run.measured_amortized_cost, run.floor);
  EXPECT_TRUE(run.potential_inequality_ok);
  EXPECT_GT(run.phi_final, 0.0);
}

TEST(Certifier, FolkloreWindowedDominatesFloor) {
  const auto spec = make_lower_bound_spec(kCap, 1.0 / 1024);
  const CertifiedRun run =
      run_certified_lower_bound(spec, "folklore-windowed");
  EXPECT_GE(run.measured_amortized_cost, run.floor);
}

TEST(Certifier, RSumDominatesFloor) {
  const auto spec = make_lower_bound_spec(kCap, 1.0 / 1024);
  const CertifiedRun run = run_certified_lower_bound(spec, "rsum");
  EXPECT_GE(run.measured_amortized_cost, run.floor);
}

// Parameterized: the floor holds across eps for every runnable allocator.
struct LbParam {
  const char* allocator;
  double eps;
};

class LbSweep : public ::testing::TestWithParam<LbParam> {};

TEST_P(LbSweep, MeasuredDominatesFloor) {
  const auto [name, eps] = GetParam();
  const auto spec = make_lower_bound_spec(kCap, eps);
  const CertifiedRun run = run_certified_lower_bound(spec, name);
  EXPECT_GE(run.measured_amortized_cost, run.floor)
      << name << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LbSweep,
    ::testing::Values(LbParam{"folklore-compact", 1.0 / 256},
                      LbParam{"folklore-compact", 1.0 / 4096},
                      LbParam{"folklore-windowed", 1.0 / 256},
                      LbParam{"folklore-windowed", 1.0 / 4096},
                      LbParam{"rsum", 1.0 / 256},
                      LbParam{"rsum", 1.0 / 4096}));

// --- sequence_cost_floor: the adversarial search's denominator --------

Sequence floor_test_sequence() {
  ChurnConfig c;
  c.capacity = Tick{1} << 30;
  c.eps = 1.0 / 32;
  c.min_size = (Tick{1} << 30) / 32;
  c.max_size = (Tick{1} << 30) / 16 - 1;
  c.target_load = 0.7;
  c.churn_updates = 200;
  c.seed = 17;
  return make_churn(c);
}

// The floor is monotone under extension: every prefix's floor is <= the
// next prefix's, so a mutation that appends updates can never shrink the
// adversarial ratio's denominator retroactively.
TEST(SequenceFloor, MonotoneUnderExtension) {
  const Sequence seq = floor_test_sequence();
  Sequence prefix = seq;
  prefix.updates.clear();
  double prev = 0.0;
  for (const Update& u : seq.updates) {
    prefix.updates.push_back(u);
    const SequenceFloor f = sequence_cost_floor(prefix);
    EXPECT_GE(f.cost_floor, prev);
    prev = f.cost_floor;
  }
  EXPECT_EQ(static_cast<std::size_t>(prev),
            sequence_cost_floor(seq).inserts);
}

// Cost-neutral updates leave the floor invariant: deletes may be served
// for free, so only inserts count.
TEST(SequenceFloor, InvariantUnderCostNeutralUpdates) {
  const Sequence seq = floor_test_sequence();
  const SequenceFloor base = sequence_cost_floor(seq);
  EXPECT_EQ(base.cost_floor, static_cast<double>(base.inserts));

  // Deleting every live item at the end adds zero floor.
  Sequence extended = seq;
  std::map<ItemId, Tick> live;
  for (const Update& u : seq.updates) {
    if (u.is_insert()) {
      live[u.id] = u.size;
    } else {
      live.erase(u.id);
    }
  }
  for (const auto& [id, size] : live) {
    extended.updates.push_back(Update::erase(id, size));
  }
  extended.check_well_formed();
  const SequenceFloor ext = sequence_cost_floor(extended);
  EXPECT_EQ(ext.cost_floor, base.cost_floor);
  EXPECT_EQ(ext.inserts, base.inserts);
  EXPECT_EQ(ext.write_mass, base.write_mass);
}

// The floor's write-mass channel sums exactly the inserted tick sizes.
TEST(SequenceFloor, WriteMassSumsInsertedSizes) {
  const Sequence seq = floor_test_sequence();
  Tick mass = 0;
  std::size_t inserts = 0;
  for (const Update& u : seq.updates) {
    if (!u.is_insert()) continue;
    mass += u.size;
    ++inserts;
  }
  const SequenceFloor f = sequence_cost_floor(seq);
  EXPECT_EQ(f.write_mass, mass);
  EXPECT_EQ(f.inserts, inserts);
}

}  // namespace
}  // namespace memreal
