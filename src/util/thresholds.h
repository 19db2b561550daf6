// Randomized threshold schemes (Lemmas 4.3 and 4.4 of the paper).
//
// Several allocators deliberately randomize *when* expensive maintenance
// fires so that no single update is likely to pay for it:
//
//  * GEO's waste recovery draws thresholds T uniformly from (eps/2, eps);
//    Lemma 4.3 bounds the probability that an accumulating sum crosses a
//    window [a, b] by 4(b-a)/W.
//  * GEO's level rebuilds draw integer thresholds from
//    [ceil(c/4), ceil(c/3)]; Lemma 4.4 bounds the hit probability of any
//    fixed count by 100/N.
//  * FLEXHASH's buffer rebuilds draw from (2M, 4M), and RSUM's rebuild
//    threshold from (delta^-1/(8m), delta^-1/(6m)).
//
// Each allocator draws its own thresholds from its Rng; this header holds
// the shared integer rounding.
#pragma once

#include <cstdint>

namespace memreal {

/// ceil(a / b) for unsigned integers.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace memreal
