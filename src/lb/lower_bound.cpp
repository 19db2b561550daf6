#include "lb/lower_bound.h"

#include <cmath>

#include "util/check.h"

namespace memreal {

double LowerBoundSpec::harmonic() const {
  double h = 0;
  for (std::size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

double LowerBoundSpec::amortized_floor() const {
  const double h = harmonic();
  const double ratio =
      static_cast<double>(s2) / static_cast<double>(s1);
  return std::max(0.0, (h - 1.0) / 6.0 * ratio);
}

LowerBoundSpec make_lower_bound_spec(Tick capacity, double eps) {
  MEMREAL_CHECK(eps > 0 && eps <= 1.0 / 16);
  LowerBoundSpec spec;
  spec.capacity = capacity;
  spec.eps = eps;
  const auto cap_d = static_cast<double>(capacity);
  spec.eps_ticks = static_cast<Tick>(eps * cap_d);
  spec.n = static_cast<std::size_t>(std::floor(1.0 / std::sqrt(eps) / 4.0));
  MEMREAL_CHECK_MSG(spec.n >= 2, "eps too large for a meaningful sequence");
  // s2 = sqrt(eps); s1 = s2 + 2 eps exactly in ticks, preserving the
  // no-additive-structure property.
  spec.s2 = static_cast<Tick>(std::sqrt(eps) * cap_d);
  spec.s1 = spec.s2 + 2 * spec.eps_ticks;
  // Feasibility: n items of size s1 plus eps free space fit in memory.
  MEMREAL_CHECK(static_cast<Tick>(spec.n) * spec.s1 + spec.eps_ticks <
                capacity);
  return spec;
}

Sequence make_lower_bound_sequence(const LowerBoundSpec& spec) {
  Sequence seq;
  seq.name = "lower-bound";
  seq.capacity = spec.capacity;
  seq.eps = spec.eps;
  seq.eps_ticks = spec.eps_ticks;
  seq.updates.reserve(3 * spec.n);
  // Insert n A's (ids 1..n).
  for (std::size_t i = 1; i <= spec.n; ++i) {
    seq.updates.push_back(Update::insert(static_cast<ItemId>(i), spec.s1));
  }
  // n iterations: delete an A, insert a B (ids n+1..2n).
  for (std::size_t i = 1; i <= spec.n; ++i) {
    seq.updates.push_back(Update::erase(static_cast<ItemId>(i), spec.s1));
    seq.updates.push_back(
        Update::insert(static_cast<ItemId>(spec.n + i), spec.s2));
  }
  return seq;
}

}  // namespace memreal
