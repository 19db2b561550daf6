#include <algorithm>
#include <bit>

#include "subsetsum/subsetsum.h"
#include "util/check.h"

namespace memreal {

namespace {

struct HalfSum {
  Tick sum;
  std::uint32_t mask;
  std::uint8_t card;
};

/// Enumerates all subset sums of `half` (including the empty subset).
std::vector<HalfSum> enumerate_half(std::span<const Tick> half) {
  const std::size_t m = half.size();
  std::vector<HalfSum> out;
  out.reserve(std::size_t{1} << m);
  out.push_back(HalfSum{0, 0, 0});
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t sz = out.size();
    for (std::size_t j = 0; j < sz; ++j) {
      HalfSum h = out[j];
      h.sum += half[i];
      h.mask |= (std::uint32_t{1} << i);
      h.card = static_cast<std::uint8_t>(h.card + 1);
      out.push_back(h);
    }
  }
  return out;
}

std::optional<SubsetResult> build_result(std::span<const Tick> values,
                                         std::uint32_t left_mask,
                                         std::size_t left_size,
                                         std::uint32_t right_mask, Tick sum) {
  SubsetResult r;
  r.sum = sum;
  for (std::size_t i = 0; i < left_size; ++i) {
    if (left_mask & (std::uint32_t{1} << i)) r.indices.push_back(i);
  }
  for (std::size_t i = 0; left_size + i < values.size(); ++i) {
    if (right_mask & (std::uint32_t{1} << i)) {
      r.indices.push_back(left_size + i);
    }
  }
  return r;
}

}  // namespace

std::optional<SubsetResult> subset_in_range_mitm(
    std::span<const Tick> values, Tick lo, Tick hi,
    std::optional<std::size_t> cardinality) {
  MEMREAL_CHECK(lo <= hi);
  MEMREAL_CHECK_MSG(values.size() <= 48, "mitm limited to m <= 48");
  const std::size_t m = values.size();
  if (m == 0) return std::nullopt;
  const std::size_t left_size = m / 2;

  auto left = enumerate_half(values.subspan(0, left_size));
  auto right = enumerate_half(values.subspan(left_size));

  // Right halves sorted by (cardinality, sum) so both the unconstrained
  // search (scan all cardinalities) and the exact-cardinality search use
  // the same sorted buckets.
  std::sort(right.begin(), right.end(), [](const HalfSum& a, const HalfSum& b) {
    if (a.card != b.card) return a.card < b.card;
    return a.sum < b.sum;
  });
  // Bucket boundaries per cardinality.
  const std::size_t right_m = m - left_size;
  std::vector<std::size_t> bucket_begin(right_m + 2, right.size());
  for (std::size_t i = right.size(); i-- > 0;) {
    bucket_begin[right[i].card] = i;
  }
  for (std::size_t c = right_m + 1; c-- > 0;) {
    if (bucket_begin[c] == right.size() && c + 1 <= right_m + 1) {
      bucket_begin[c] = bucket_begin[c + 1];
    }
  }

  auto search_bucket = [&](std::size_t card, Tick want_lo,
                           Tick want_hi) -> const HalfSum* {
    const std::size_t b = bucket_begin[card];
    const std::size_t e = bucket_begin[card + 1];
    auto it = std::lower_bound(
        right.begin() + static_cast<std::ptrdiff_t>(b),
        right.begin() + static_cast<std::ptrdiff_t>(e), want_lo,
        [](const HalfSum& h, Tick v) { return h.sum < v; });
    if (it != right.begin() + static_cast<std::ptrdiff_t>(e) &&
        it->sum <= want_hi) {
      return &*it;
    }
    return nullptr;
  };

  for (const HalfSum& l : left) {
    if (l.sum > hi) continue;
    const Tick want_lo = lo > l.sum ? lo - l.sum : 0;
    const Tick want_hi = hi - l.sum;
    if (cardinality) {
      if (l.card > *cardinality) continue;
      const std::size_t need = *cardinality - l.card;
      if (need > right_m) continue;
      if (const HalfSum* r = search_bucket(need, want_lo, want_hi)) {
        if (l.mask == 0 && r->mask == 0) continue;  // exclude empty subset
        return build_result(values, l.mask, left_size, r->mask,
                            l.sum + r->sum);
      }
    } else {
      for (std::size_t c = 0; c <= right_m; ++c) {
        if (const HalfSum* r = search_bucket(c, want_lo, want_hi)) {
          if (l.mask == 0 && r->mask == 0) continue;
          return build_result(values, l.mask, left_size, r->mask,
                              l.sum + r->sum);
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace memreal
