// Subset-sum-in-interval solvers.
//
// RSUM (Section 6) repeatedly asks: given the m ~ log(eps^-1) item sizes of
// a block, is there a subset whose sum lands in [lo, hi]?  Theorem 6.2
// proves a random block answers "yes" with probability Omega(1) for the
// window the algorithm uses; the implementation lemma inside Theorem 6.1
// notes this is computable in O(eps^-1/2) = O(2^{m/2}) time via meet in the
// middle.
//
// Two engines share one interface:
//   * brute force  — O(2^m), the oracle used by tests;
//   * meet in the middle — O(2^{m/2} * m), used by RSUM.
// Both support an optional exact-cardinality constraint (Theorem 6.2 talks
// about (m/2)-element subsets).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/types.h"

namespace memreal {

/// A found subset: indices into the input array plus the achieved sum.
struct SubsetResult {
  std::vector<std::size_t> indices;
  Tick sum = 0;
};

/// Brute force over all 2^m subsets (m <= 30 enforced).  Returns the first
/// subset found with sum in [lo, hi]; empty optional if none exists.
/// If `cardinality` is set, only subsets of exactly that many elements are
/// considered.  The empty subset is never returned (RSUM always swaps a
/// non-empty set).
[[nodiscard]] std::optional<SubsetResult> subset_in_range_brute(
    std::span<const Tick> values, Tick lo, Tick hi,
    std::optional<std::size_t> cardinality = std::nullopt);

/// Meet-in-the-middle: O(2^{m/2}) space and near-linearithmic time in the
/// half-enumerations.  Same contract as the brute-force engine.
[[nodiscard]] std::optional<SubsetResult> subset_in_range_mitm(
    std::span<const Tick> values, Tick lo, Tick hi,
    std::optional<std::size_t> cardinality = std::nullopt);

}  // namespace memreal
