// Experiment harness: run (allocator x eps x seed) grids in parallel,
// aggregate per-eps cost rows, fit growth exponents, and render the tables
// that EXPERIMENTS.md records.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "core/run_stats.h"
#include "util/fit.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/sequence.h"

namespace memreal {

/// Builds the workload for one sweep cell.
using SequenceFactory =
    std::function<Sequence(double eps, std::uint64_t seed)>;

struct ExperimentConfig {
  std::string allocator;                ///< registry name
  SequenceFactory make_sequence;
  std::vector<double> eps_values;
  std::size_t seeds = 3;                ///< averaged per eps
  double delta = 0.0;                   ///< forwarded to RSUM
  /// Full O(n) audit cadence; 0 = only the final audit after the run.
  std::size_t audit_every = 0;
  std::size_t threads = 0;              ///< 0 = all cores
};

struct EpsRow {
  double eps = 0;
  std::size_t seeds = 0;
  std::size_t updates = 0;        ///< per seed (averaged)
  double mean_cost = 0;           ///< averaged over seeds
  double mean_cost_stddev = 0;    ///< across seeds
  double ratio_cost = 0;
  double max_cost = 0;
  double p99_cost = 0;            ///< averaged over seeds
  double decision_us_per_update = 0;
  double wall_us_per_update = 0;
};

/// Runs the full grid; rows are ordered like eps_values.
[[nodiscard]] std::vector<EpsRow> run_experiment(const ExperimentConfig& c);

/// Fits mean cost ~ C * (1/eps)^alpha over the rows.
[[nodiscard]] PowerLawFit fit_cost_exponent(const std::vector<EpsRow>& rows);

/// Fits mean cost ~ a + b * log2(1/eps) (the logarithmic regimes).
[[nodiscard]] LinearFit fit_cost_log(const std::vector<EpsRow>& rows);

/// Renders rows with an allocator-name caption column.
[[nodiscard]] Table rows_table(const std::string& allocator,
                               const std::vector<EpsRow>& rows);

/// EpsRow <-> JSON: the row format inside schema-2 BENCH_*.json
/// `eps_sweep` records.  `memreal_report` parses rows back with
/// eps_rows_from_json and recomputes the fits above, so the artifact
/// carries fit *inputs*, not just fitted numbers.
[[nodiscard]] Json eps_row_json(const EpsRow& row);
[[nodiscard]] Json eps_rows_json(const std::vector<EpsRow>& rows);
[[nodiscard]] EpsRow eps_row_from_json(const Json& row);
[[nodiscard]] std::vector<EpsRow> eps_rows_from_json(const Json& rows);

}  // namespace memreal
