// Theorem 5.1 — the Omega(log eps^-1) lower bound.
//
// Sizes: s1 = sqrt(eps) + 2 eps ("A" items), s2 = sqrt(eps) ("B" items),
// chosen to have no additive structure: for any lambda1, lambda2 in [0, n]
// not both zero, |lambda1 s1 - lambda2 s2| >= 2 eps.  Sequence: insert
// n = eps^{-1/2}/4 A's, then n times (delete an A, insert a B).
//
// Any resizable allocator — even offline — pays amortized Omega(log eps^-1)
// on this sequence.  The proof tracks the potential
//      Phi = sum_{i=1..n} B_i / i,
// where B_i counts B's among the final i items of memory: each A->B
// conversion at the end of memory raises Phi by H_n >= ln n, while an
// allocator move of x items lowers Phi by at most x at cost Omega(x).
#pragma once

#include "util/types.h"
#include "workload/sequence.h"

namespace memreal {

struct LowerBoundSpec {
  Tick capacity = kDefaultCapacity;
  double eps = 1.0 / 64;
  Tick eps_ticks = 0;
  std::size_t n = 0;  ///< floor(eps^{-1/2} / 4)
  Tick s1 = 0;        ///< A size: sqrt(eps) + 2 eps (exact in ticks)
  Tick s2 = 0;        ///< B size: sqrt(eps)

  /// H_n = sum_{i<=n} 1/i, the per-conversion potential gain.
  [[nodiscard]] double harmonic() const;

  /// The certified amortized-cost floor implied by the potential argument
  /// (with explicit constants): (H_n - 1)/6 * s2/s1.
  [[nodiscard]] double amortized_floor() const;
};

[[nodiscard]] LowerBoundSpec make_lower_bound_spec(Tick capacity, double eps);

/// The 3n-update sequence S.  Ids 1..n are the A's (inserted first and
/// deleted in order); ids n+1..2n are the B's.
[[nodiscard]] Sequence make_lower_bound_sequence(const LowerBoundSpec& spec);

}  // namespace memreal
