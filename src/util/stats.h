// Streaming statistics used by the cost-accounting engine and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace memreal {

/// Accumulates count / mean / variance (Welford) / min / max of a stream.
class StreamingStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const StreamingStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains samples for exact quantiles.  For the run lengths in this repo
/// (<= a few hundred thousand updates) exact retention is cheap and avoids
/// sketch error in the reproduced tables.
class Quantiles {
 public:
  /// Invalidates the lazy sort cache: a sample appended after a
  /// quantile() call lands unsorted, so the next query must re-sort.
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { xs_.reserve(n); }

  /// Appends all of `other`'s samples (parallel reduction: per-worker
  /// latency recorders merge into one before querying).
  void merge(const Quantiles& other);

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  /// q in [0, 1]; q = 0.5 is the median, q = 1 the max.  Returns 0 when
  /// empty.  Not const: sorts lazily.
  [[nodiscard]] double quantile(double q);

 private:
  std::vector<double> xs_;
  bool sorted_ = false;
};

}  // namespace memreal
