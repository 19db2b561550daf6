// Cross-allocator sweep: run several allocators on identical workloads and
// produce the comparison tables the benches print (who wins, by what
// factor, where the exponents land).
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace memreal {

struct ComparisonResult {
  std::vector<std::string> allocators;
  std::vector<std::vector<EpsRow>> rows;  ///< [allocator][eps]

  /// Fitted power-law exponent per allocator (cost vs 1/eps).
  [[nodiscard]] std::vector<PowerLawFit> exponents() const;
  /// Table of mean cost: one row per eps, one column per allocator.
  [[nodiscard]] Table cost_table() const;
  /// Table of fitted exponents.
  [[nodiscard]] Table exponent_table() const;
};

/// Runs `grid` (its allocator field ignored) once per allocator, on
/// identical workloads.
[[nodiscard]] ComparisonResult run_comparison(
    const ExperimentConfig& grid, const std::vector<std::string>& allocators);

}  // namespace memreal
