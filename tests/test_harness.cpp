// Harness: grid execution, aggregation, exponent fits, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 40;

SequenceFactory simple_factory(std::size_t updates) {
  return [updates](double eps, std::uint64_t seed) {
    return make_simple_regime(kCap, eps, updates, seed);
  };
}

TEST(Harness, RunsGridAndAggregates) {
  ExperimentConfig c;
  c.allocator = "folklore-compact";
  c.make_sequence = simple_factory(200);
  c.eps_values = {1.0 / 8, 1.0 / 16};
  c.seeds = 2;
  c.audit_every = 64;
  const auto rows = run_experiment(c);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].eps, 1.0 / 8);
  EXPECT_DOUBLE_EQ(rows[1].eps, 1.0 / 16);
  for (const auto& r : rows) {
    EXPECT_EQ(r.seeds, 2u);
    EXPECT_GT(r.updates, 0u);
    EXPECT_GT(r.mean_cost, 0.0);
    EXPECT_GE(r.max_cost, r.mean_cost);
  }
}

TEST(Harness, DeterministicAcrossRuns) {
  ExperimentConfig c;
  c.allocator = "simple";
  c.make_sequence = simple_factory(150);
  c.eps_values = {1.0 / 16};
  c.seeds = 2;
  c.threads = 1;
  const auto a = run_experiment(c);
  const auto b = run_experiment(c);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a[0].mean_cost, b[0].mean_cost);
}

TEST(Harness, FitsExponent) {
  std::vector<EpsRow> rows;
  for (double inv : {8.0, 16.0, 32.0, 64.0}) {
    EpsRow r;
    r.eps = 1.0 / inv;
    r.mean_cost = 2.0 * std::pow(inv, 0.75);
    rows.push_back(r);
  }
  const auto fit = fit_cost_exponent(rows);
  EXPECT_NEAR(fit.exponent, 0.75, 1e-9);
}

TEST(Harness, FitsLogShape) {
  std::vector<EpsRow> rows;
  for (double inv : {8.0, 16.0, 32.0, 64.0}) {
    EpsRow r;
    r.eps = 1.0 / inv;
    r.mean_cost = 1.0 + 0.5 * std::log2(inv);
    rows.push_back(r);
  }
  const auto fit = fit_cost_log(rows);
  EXPECT_NEAR(fit.slope, 0.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
}

TEST(Harness, TableRendering) {
  std::vector<EpsRow> rows(1);
  rows[0].eps = 0.125;
  rows[0].mean_cost = 3.5;
  const Table t = rows_table("folklore-compact", rows);
  EXPECT_EQ(t.rows(), 1u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("folklore-compact"), std::string::npos);
}

TEST(Harness, ComparisonProducesTables) {
  ExperimentConfig c;
  c.make_sequence = simple_factory(200);
  c.eps_values = {1.0 / 8, 1.0 / 16, 1.0 / 32};
  c.seeds = 1;
  c.audit_every = 128;
  const auto result = run_comparison(c, {"folklore-compact", "simple"});
  ASSERT_EQ(result.rows.size(), 2u);
  const Table cost = result.cost_table();
  EXPECT_EQ(cost.rows(), 3u);
  const Table expo = result.exponent_table();
  EXPECT_EQ(expo.rows(), 2u);
  const auto fits = result.exponents();
  ASSERT_EQ(fits.size(), 2u);
}

}  // namespace
}  // namespace memreal
