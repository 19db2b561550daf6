#include "harness/experiment.h"

#include <cmath>
#include <mutex>

#include "harness/cell.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace memreal {

namespace {

struct CellOut {
  double mean_cost = 0;
  double ratio_cost = 0;
  double max_cost = 0;
  double p99 = 0;
  double decision_us = 0;
  double wall_us = 0;
  std::size_t updates = 0;
};

CellOut run_cell(const ExperimentConfig& c, double eps, std::uint64_t seed) {
  Sequence seq = c.make_sequence(eps, seed);
  MEMREAL_CHECK(!seq.updates.empty());
  CellConfig cell;
  cell.allocator = c.allocator;
  cell.params.eps = eps;
  cell.params.delta = c.delta;
  cell.params.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  cell.incremental_validation = c.incremental_validation;
  cell.audit_every = c.audit_every;
  cell.check_invariants_every = c.check_invariants_every;
  RunStats stats = run_validated(seq, cell);

  CellOut out;
  out.mean_cost = stats.mean_cost();
  out.ratio_cost = stats.ratio_cost();
  out.max_cost = stats.max_cost();
  out.p99 = stats.cost_quantiles.quantile(0.99);
  out.updates = stats.updates;
  const auto n = static_cast<double>(std::max<std::size_t>(1, stats.updates));
  out.decision_us = stats.decision_seconds * 1e6 / n;
  out.wall_us = stats.wall_seconds * 1e6 / n;
  return out;
}

}  // namespace

std::vector<EpsRow> run_experiment(const ExperimentConfig& c) {
  MEMREAL_CHECK(!c.eps_values.empty());
  MEMREAL_CHECK(c.seeds >= 1);
  const std::size_t cells = c.eps_values.size() * c.seeds;
  std::vector<CellOut> outs(cells);
  parallel_for(
      cells,
      [&](std::size_t i) {
        const double eps = c.eps_values[i / c.seeds];
        const std::uint64_t seed = 1 + (i % c.seeds);
        outs[i] = run_cell(c, eps, seed);
      },
      c.threads);

  std::vector<EpsRow> rows;
  rows.reserve(c.eps_values.size());
  for (std::size_t e = 0; e < c.eps_values.size(); ++e) {
    EpsRow row;
    row.eps = c.eps_values[e];
    row.seeds = c.seeds;
    StreamingStats mean_over_seeds;
    for (std::size_t s = 0; s < c.seeds; ++s) {
      const CellOut& cell = outs[e * c.seeds + s];
      mean_over_seeds.add(cell.mean_cost);
      row.ratio_cost += cell.ratio_cost;
      row.max_cost = std::max(row.max_cost, cell.max_cost);
      row.p99_cost += cell.p99;
      row.decision_us_per_update += cell.decision_us;
      row.wall_us_per_update += cell.wall_us;
      row.updates += cell.updates;
    }
    const auto ns = static_cast<double>(c.seeds);
    row.mean_cost = mean_over_seeds.mean();
    row.mean_cost_stddev = mean_over_seeds.stddev();
    row.ratio_cost /= ns;
    row.p99_cost /= ns;
    row.decision_us_per_update /= ns;
    row.wall_us_per_update /= ns;
    row.updates /= c.seeds;
    rows.push_back(row);
  }
  return rows;
}

PowerLawFit fit_cost_exponent(const std::vector<EpsRow>& rows) {
  std::vector<double> x, y;
  for (const auto& r : rows) {
    x.push_back(1.0 / r.eps);
    y.push_back(r.mean_cost);
  }
  return fit_power_law(x, y);
}

LinearFit fit_cost_log(const std::vector<EpsRow>& rows) {
  std::vector<double> x, y;
  for (const auto& r : rows) {
    x.push_back(std::log2(1.0 / r.eps));
    y.push_back(r.mean_cost);
  }
  return fit_linear(x, y);
}

Json eps_row_json(const EpsRow& row) {
  Json j = Json::object();
  j.set("eps", row.eps)
      .set("seeds", static_cast<std::uint64_t>(row.seeds))
      .set("updates", static_cast<std::uint64_t>(row.updates))
      .set("mean_cost", row.mean_cost)
      .set("mean_cost_stddev", row.mean_cost_stddev)
      .set("ratio_cost", row.ratio_cost)
      .set("max_cost", row.max_cost)
      .set("p99_cost", row.p99_cost)
      .set("decision_us_per_update", row.decision_us_per_update)
      .set("wall_us_per_update", row.wall_us_per_update);
  return j;
}

Json eps_rows_json(const std::vector<EpsRow>& rows) {
  Json arr = Json::array();
  for (const EpsRow& row : rows) arr.push(eps_row_json(row));
  return arr;
}

EpsRow eps_row_from_json(const Json& row) {
  EpsRow r;
  r.eps = row.at("eps").as_double();
  r.seeds = static_cast<std::size_t>(row.at("seeds").as_u64());
  r.updates = static_cast<std::size_t>(row.at("updates").as_u64());
  r.mean_cost = row.at("mean_cost").as_double();
  r.mean_cost_stddev = row.at("mean_cost_stddev").as_double();
  r.ratio_cost = row.at("ratio_cost").as_double();
  r.max_cost = row.at("max_cost").as_double();
  r.p99_cost = row.at("p99_cost").as_double();
  r.decision_us_per_update = row.at("decision_us_per_update").as_double();
  r.wall_us_per_update = row.at("wall_us_per_update").as_double();
  return r;
}

std::vector<EpsRow> eps_rows_from_json(const Json& rows) {
  std::vector<EpsRow> out;
  out.reserve(rows.size());
  for (const auto& [key, row] : rows.items()) {
    (void)key;
    out.push_back(eps_row_from_json(row));
  }
  return out;
}

Table rows_table(const std::string& allocator,
                 const std::vector<EpsRow>& rows) {
  Table t({"allocator", "eps", "1/eps", "updates", "mean_cost", "+-sd",
           "ratio_cost", "p99", "max", "decide_us"});
  for (const auto& r : rows) {
    t.add_row({allocator, Table::num(r.eps, 4),
               Table::num(1.0 / r.eps, 5),
               std::to_string(r.updates), Table::num(r.mean_cost, 4),
               Table::num(r.mean_cost_stddev, 2), Table::num(r.ratio_cost, 4),
               Table::num(r.p99_cost, 4), Table::num(r.max_cost, 4),
               Table::num(r.decision_us_per_update, 3)});
  }
  return t;
}

}  // namespace memreal
