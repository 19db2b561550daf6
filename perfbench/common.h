// Shared pieces of the benchmark: options, the metric record every
// workload returns, clocks, order statistics and process accounting.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/layout_store.h"
#include "util/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write one span per update here
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations the value summarizes
};

struct Result {
  std::uint64_t attempted = 0;  ///< updates applied + reads made
  std::uint64_t failed = 0;     ///< operations that threw or failed a check
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;

  void fail(const std::string& what, std::uint64_t ops = 1) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(what);
  }
  void add(std::string name, std::string unit, double value,
           std::size_t samples) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
};

using Clock = std::chrono::steady_clock;

/// Rounds per sequence at least (per kind in traced runs), so every update
/// has several timings to summarize.
inline constexpr std::size_t kMinRounds = 3;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]); reorders `xs`.
inline double percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(xs.size()) - 1,
                       q * static_cast<double>(xs.size())));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Element-wise median of equally long sample vectors.
inline std::vector<double> median_by_index(
    const std::vector<std::vector<double>>& runs) {
  std::vector<double> out;
  if (runs.empty()) return out;
  out.resize(runs.front().size());
  std::vector<double> column(runs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t r = 0; r < runs.size(); ++r) column[r] = runs[r][i];
    out[i] = median(column);
  }
  return out;
}

/// Element-wise minimum of equally long sample vectors.
inline std::vector<double> min_by_index(
    const std::vector<std::vector<double>>& runs) {
  std::vector<double> out;
  if (runs.empty()) return out;
  out = runs.front();
  for (const std::vector<double>& run : runs) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], run[i]);
    }
  }
  return out;
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Process CPU and scheduling counters (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t ctx_switches = 0;  ///< voluntary + involuntary

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime),
            ru.ru_nvcsw + ru.ru_nivcsw};
  }
  friend Usage operator-(const Usage& a, const Usage& b) {
    return {a.user_s - b.user_s, a.sys_s - b.sys_s,
            a.ctx_switches - b.ctx_switches};
  }
};

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: the latter survives exec, so under a Python launcher it
/// reports the launcher's footprint (~14 MiB) whenever that is larger.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// (offset, id) order, the order of the store's offset index.
inline bool precedes(const memreal::PlacedItem& a,
                     const memreal::PlacedItem& b) {
  return a.offset < b.offset || (a.offset == b.offset && a.id < b.id);
}

/// Every workload's entry point.
Result run_cell_workload(const Options& options);
Result run_serve_workload(const Options& options);

}  // namespace perfbench
