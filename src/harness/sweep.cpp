#include "harness/sweep.h"

#include "util/check.h"

namespace memreal {

ComparisonResult run_comparison(const ExperimentConfig& grid,
                                const std::vector<std::string>& allocators) {
  MEMREAL_CHECK(!allocators.empty());
  ComparisonResult out;
  out.allocators = allocators;
  out.rows.reserve(allocators.size());
  ExperimentConfig ec = grid;
  for (const std::string& name : allocators) {
    ec.allocator = name;
    out.rows.push_back(run_experiment(ec));
  }
  return out;
}

std::vector<PowerLawFit> ComparisonResult::exponents() const {
  std::vector<PowerLawFit> fits;
  fits.reserve(rows.size());
  for (const auto& r : rows) fits.push_back(fit_cost_exponent(r));
  return fits;
}

Table ComparisonResult::cost_table() const {
  std::vector<std::string> headers{"1/eps"};
  for (const auto& a : allocators) headers.push_back(a);
  Table t(std::move(headers));
  if (rows.empty()) return t;
  for (std::size_t e = 0; e < rows[0].size(); ++e) {
    std::vector<std::string> cells{Table::num(1.0 / rows[0][e].eps, 5)};
    for (const auto& r : rows) cells.push_back(Table::num(r[e].mean_cost, 4));
    t.add_row(std::move(cells));
  }
  return t;
}

Table ComparisonResult::exponent_table() const {
  Table t({"allocator", "fitted exponent (cost ~ (1/eps)^a)", "r^2"});
  const auto fits = exponents();
  for (std::size_t i = 0; i < allocators.size(); ++i) {
    t.add_row({allocators[i], Table::num(fits[i].exponent, 3),
               Table::num(fits[i].r2, 3)});
  }
  return t;
}

}  // namespace memreal
