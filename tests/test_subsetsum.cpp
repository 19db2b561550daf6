// Subset-sum engines: brute-force oracle, meet-in-the-middle equivalence
// (parameterized sweep), and the Theorem 6.2 success-probability property.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "subsetsum/subsetsum.h"
#include "util/rng.h"

namespace memreal {
namespace {

TEST(BruteForce, FindsKnownSubset) {
  std::vector<Tick> v{3, 5, 8, 13};
  auto r = subset_in_range_brute(v, 16, 16);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->sum, 16u);  // 3 + 13 or 3+5+8
}

TEST(BruteForce, RespectsCardinality) {
  std::vector<Tick> v{3, 5, 8, 13};
  auto r = subset_in_range_brute(v, 16, 16, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->indices.size(), 2u);
  EXPECT_EQ(r->sum, 16u);
  // 26 = 5 + 8 + 13 has no 2-element witness (pair sums: 8, 11, 13, 16,
  // 18, 21).
  EXPECT_FALSE(subset_in_range_brute(v, 26, 26, 2).has_value());
  EXPECT_TRUE(subset_in_range_brute(v, 26, 26, 3).has_value());
}

TEST(BruteForce, EmptyRangeImpossible) {
  std::vector<Tick> v{10, 20};
  EXPECT_FALSE(subset_in_range_brute(v, 1, 9).has_value());
  EXPECT_FALSE(subset_in_range_brute(v, 31, 100).has_value());
}

TEST(BruteForce, NeverReturnsEmptySubset) {
  std::vector<Tick> v{10, 20};
  EXPECT_FALSE(subset_in_range_brute(v, 0, 5).has_value());
}

TEST(Mitm, FindsKnownSubset) {
  std::vector<Tick> v{3, 5, 8, 13};
  auto r = subset_in_range_mitm(v, 16, 16);
  ASSERT_TRUE(r.has_value());
  Tick sum = 0;
  for (std::size_t i : r->indices) sum += v[i];
  EXPECT_EQ(sum, 16u);
  EXPECT_EQ(sum, r->sum);
}

TEST(Mitm, SingleElement) {
  std::vector<Tick> v{7};
  EXPECT_TRUE(subset_in_range_mitm(v, 7, 7).has_value());
  EXPECT_FALSE(subset_in_range_mitm(v, 6, 6).has_value());
  EXPECT_FALSE(subset_in_range_mitm(v, 8, 9).has_value());
}

TEST(Mitm, EmptyInput) {
  std::vector<Tick> v;
  EXPECT_FALSE(subset_in_range_mitm(v, 0, 10).has_value());
}

TEST(Mitm, NeverReturnsEmptySubset) {
  std::vector<Tick> v{10, 20, 30, 40};
  EXPECT_FALSE(subset_in_range_mitm(v, 0, 5).has_value());
}

TEST(Mitm, CardinalityWitnessValid) {
  std::vector<Tick> v{1, 2, 4, 8, 16, 32};
  for (std::size_t k = 1; k <= v.size(); ++k) {
    auto r = subset_in_range_mitm(v, 1, 63, k);
    ASSERT_TRUE(r.has_value()) << "k=" << k;
    EXPECT_EQ(r->indices.size(), k);
  }
}

// Parameterized agreement sweep: MITM must agree with brute force on the
// decision problem for random instances across sizes and window widths.
struct AgreeParam {
  std::size_t m;
  Tick window;
  bool cardinality;
};

class SubsetAgree : public ::testing::TestWithParam<AgreeParam> {};

TEST_P(SubsetAgree, MitmMatchesBruteForce) {
  const auto [m, window, use_card] = GetParam();
  Rng rng(1234 + m * 31 + window);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Tick> v(m);
    Tick total = 0;
    for (auto& x : v) {
      x = rng.next_in(50, 150);
      total += x;
    }
    const Tick target = rng.next_in(1, total + 20);
    const Tick lo = target > window ? target - window : 0;
    std::optional<std::size_t> card;
    if (use_card) card = m / 2;
    const auto b = subset_in_range_brute(v, lo, target, card);
    const auto g = subset_in_range_mitm(v, lo, target, card);
    ASSERT_EQ(b.has_value(), g.has_value())
        << "m=" << m << " target=" << target << " window=" << window;
    if (g) {
      Tick sum = 0;
      for (std::size_t i : g->indices) sum += v[i];
      EXPECT_EQ(sum, g->sum);
      EXPECT_GE(sum, lo);
      EXPECT_LE(sum, target);
      if (card) {
        EXPECT_EQ(g->indices.size(), *card);
      }
      // Indices unique.
      std::vector<std::size_t> idx = g->indices;
      std::sort(idx.begin(), idx.end());
      EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubsetAgree,
    ::testing::Values(AgreeParam{1, 0, false}, AgreeParam{2, 5, false},
                      AgreeParam{4, 0, false}, AgreeParam{6, 3, false},
                      AgreeParam{8, 10, false}, AgreeParam{10, 0, false},
                      AgreeParam{12, 25, false}, AgreeParam{14, 2, false},
                      AgreeParam{6, 5, true}, AgreeParam{8, 0, true},
                      AgreeParam{10, 10, true}, AgreeParam{12, 4, true}));

// Theorem 6.2: for m = 2*ceil(log(n)/2) uniform values in [1, 2] (scaled to
// ticks) and y in (3/4)m ± 1, an (m/2)-element subset lands in
// [y - log(n)/n, y] with probability Omega(1).
TEST(Theorem62, ConstantSuccessProbability) {
  const double n = 256.0;
  const std::size_t m = 2 * static_cast<std::size_t>(
                                std::ceil(std::log2(n) / 2.0));  // = 8
  const double scale = 1e9;
  const auto window = static_cast<Tick>(std::log2(n) / n * scale);
  Rng rng(777);
  int hits = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<Tick> v(m);
    for (auto& x : v) {
      x = static_cast<Tick>((1.0 + rng.next_double()) * scale);
    }
    const double y_d = 0.75 * static_cast<double>(m) * scale +
                       (rng.next_double() * 2.0 - 1.0) * scale;
    const auto y = static_cast<Tick>(y_d);
    hits += subset_in_range_mitm(v, y - window, y, m / 2).has_value();
  }
  // Omega(1): empirically well above a small constant.
  EXPECT_GT(hits, trials / 10);
}

// The success probability must not collapse as m grows (the content of
// Theorem 6.2's  Omega(1) bound).
TEST(Theorem62, SuccessDoesNotCollapseWithM) {
  const double scale = 1e9;
  for (std::size_t m : {8u, 12u, 16u, 20u}) {
    const double n = std::pow(2.0, static_cast<double>(m) / 1.0);
    const auto window =
        static_cast<Tick>(std::log2(n) / n * scale * static_cast<double>(m) /
                          std::log2(n));  // ~ m / n * scale
    Rng rng(m);
    int hits = 0;
    const int trials = 150;
    for (int t = 0; t < trials; ++t) {
      std::vector<Tick> v(m);
      for (auto& x : v) {
        x = static_cast<Tick>((1.0 + rng.next_double()) * scale);
      }
      const auto y = static_cast<Tick>(0.75 * static_cast<double>(m) * scale);
      hits += subset_in_range_mitm(v, y > window ? y - window : 0, y, m / 2)
                  .has_value();
    }
    EXPECT_GT(hits, trials / 20) << "m=" << m;
  }
}

// Callers that need only the decision bit read has_value() off the search.
TEST(HasSubset, DecisionWrapper) {
  std::vector<Tick> v{2, 4, 6};
  EXPECT_TRUE(subset_in_range_mitm(v, 6, 6).has_value());
  EXPECT_FALSE(subset_in_range_mitm(v, 13, 100).has_value());
  EXPECT_EQ(subset_in_range_mitm(v, 6, 6, 1).has_value(),
            subset_in_range_brute(v, 6, 6, 1).has_value());
}

}  // namespace
}  // namespace memreal
