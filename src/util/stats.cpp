#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace memreal {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double StreamingStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Quantiles::merge(const Quantiles& other) {
  if (other.xs_.empty()) return;
  xs_.insert(xs_.end(), other.xs_.begin(), other.xs_.end());
  sorted_ = false;
}

double Quantiles::quantile(double q) {
  MEMREAL_CHECK(q >= 0.0 && q <= 1.0);
  if (xs_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs_[lo] * (1.0 - frac) + xs_[hi] * frac;
}

}  // namespace memreal
