// Low-overhead labeled metrics: counters, gauges, and log-bucketed
// histograms behind a single process-wide registry.
//
// Design constraints (see docs/ARCHITECTURE.md "Observability"):
//  - The hot path (Counter::add, Histogram::record) is a relaxed atomic
//    increment; counters stripe across cache-line-aligned slots so
//    concurrent shard workers never contend on one line.
//  - A runtime kill switch (MetricRegistry::set_enabled) makes every
//    mutator a single relaxed load + branch with zero allocations, and
//    the compile-time switch MEMREAL_OBS_ENABLED=0 compiles mutators to
//    empty inline bodies.
//  - Instruments are registered once (cell construction), never in the
//    update loop, and live for the process lifetime: raw pointers handed
//    to engines stay valid across MetricRegistry::reset().
//  - Snapshots (JSON / Prometheus text / summary table) merge the
//    striped slots; they are exact once writers have quiesced and
//    approximate (but tear-free per slot) while a run is in flight.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/types.h"

#ifndef MEMREAL_OBS_ENABLED
#define MEMREAL_OBS_ENABLED 1
#endif

namespace memreal::obs {

inline constexpr bool kObsCompiledIn = MEMREAL_OBS_ENABLED != 0;

// Label dimensions shared by every metric.  Empty string / -1 means the
// dimension does not apply (e.g. a registry-global counter has no shard).
struct MetricLabels {
  std::string allocator;
  std::string engine;
  int shard = -1;
  std::string workload;

  // Canonical registry key, also usable as a display string:
  // {allocator="geo",engine="release",shard="3",workload="churn"}.
  // Unset dimensions are omitted; an all-default label set renders as "".
  std::string key() const;
};

namespace detail {

inline constexpr std::size_t kStripes = 16;

// Registers the calling thread once and returns its sequence number.
std::size_t next_thread_id() noexcept;

// Each writer thread owns one stripe index for its lifetime; 16 stripes
// cover every (shards x threads) configuration the tools run.  Inline so
// counter sites pay one TLS load, not an out-of-line call per add().
inline std::size_t stripe_index() noexcept {
  thread_local const std::size_t id = next_thread_id();
  return id & (kStripes - 1);
}

}  // namespace detail

// Monotone counter.  add() is wait-free; value() sums the stripes.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    if constexpr (!kObsCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    add_at(detail::stripe_index(), delta);
  }
  void inc() noexcept { add(1); }

  // Guard-free variant for bundled record sites (CellMetrics::on_update)
  // that test the shared registry switch once and reuse one
  // stripe_index() result across the whole bundle.
  void add_at(std::size_t stripe, std::uint64_t delta) noexcept {
    if constexpr (!kObsCompiledIn) return;
    stripes_[stripe].v.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, detail::kStripes> stripes_{};
  const std::atomic<bool>* enabled_;
};

// Point-in-time signed value with a lifetime high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if constexpr (!kObsCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    // Storing an unchanged value would still take the cache line from
    // every other core that sets this gauge.
    if (value_.load(std::memory_order_relaxed) != v) {
      value_.store(v, std::memory_order_relaxed);
    }
    raise_high_water(v);
  }
  void add(std::int64_t delta) noexcept {
    if constexpr (!kObsCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    raise_high_water(value_.fetch_add(delta, std::memory_order_relaxed) +
                     delta);
  }

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  void raise_high_water(std::int64_t v) noexcept {
    std::int64_t hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw && !high_water_.compare_exchange_weak(
                         hw, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
  const std::atomic<bool>* enabled_;
};

// Base-2 log-bucketed histogram over unsigned integer samples (ticks,
// bytes, microseconds).  Bucket 0 holds the value 0; bucket b in [1,62]
// holds [2^(b-1), 2^b - 1]; bucket 63 holds everything from 2^62 up.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const std::size_t b = 64 - static_cast<std::size_t>(countl_zero(v));
    return b < kBuckets ? b : kBuckets - 1;
  }
  // Inclusive range [bucket_lo(b), bucket_hi(b)] covered by bucket b.
  static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static std::uint64_t bucket_hi(std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) noexcept {
    if constexpr (!kObsCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    record_unguarded(v);
  }

  // Guard-free variant: the caller has already tested the shared
  // registry switch for the whole instrument bundle.
  void record_unguarded(std::uint64_t v) noexcept {
    if constexpr (!kObsCompiledIn) return;
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    // Zero samples (no move, no queue wait) are common; skipping their
    // no-op add spares one contended RMW.
    if (v != 0) sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Folds another histogram into this one (used by tests to check
  // merge == single-stream and by tools to aggregate per-shard series).
  void merge(const Histogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b].fetch_add(other.bucket_count(b), std::memory_order_relaxed);
    }
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  }

  // Total samples, derived from the buckets: every record lands in
  // exactly one bucket, so a separate count cell would only add a third
  // RMW to the hot path.
  std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  // Upper bound of the bucket holding the q-quantile sample (0 if empty).
  std::uint64_t quantile_bound(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static int countl_zero(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(v);
#else
    int n = 0;
    for (std::uint64_t bit = std::uint64_t{1} << 63; bit && !(v & bit);
         bit >>= 1) {
      ++n;
    }
    return n;
#endif
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  const std::atomic<bool>* enabled_;
};

// Process-wide instrument registry.  Lookup/creation takes a mutex and
// happens at setup time only; the returned pointers are stable for the
// process lifetime (reset() zeroes values, never drops registrations).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& global();

  void set_enabled(bool on) noexcept {
    enabled_.store(kObsCompiledIn && on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  const std::atomic<bool>* enabled_flag() const noexcept { return &enabled_; }

  Counter* counter(const std::string& name, const MetricLabels& labels = {});
  Gauge* gauge(const std::string& name, const MetricLabels& labels = {});
  Histogram* histogram(const std::string& name,
                       const MetricLabels& labels = {});

  // Zeroes every instrument; registrations and pointers stay valid.
  void reset();

  // One snapshot object: {"metrics": [{name, labels, kind, ...}, ...]}.
  Json snapshot_json() const;
  // Prometheus text exposition format (counters as *_total, histograms
  // with cumulative `le` buckets).
  std::string prometheus_text() const;
  // Human-readable end-of-run table for --metrics-summary.
  std::string summary_table() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    MetricLabels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_or_create(const std::string& name, const MetricLabels& labels,
                        Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
  std::unordered_map<std::string, Entry*> index_;
  std::atomic<bool> enabled_{kObsCompiledIn};
};

// ---------------------------------------------------------------------------
// Per-layer instrument bundles.  Each layer holds one of these by value;
// all pointers are either set (metrics wired) or null (observability off
// for this object), so the hot-path guard is a single pointer test.

// Per-cell (Engine) instruments.
struct CellMetrics {
  Counter* updates = nullptr;
  Counter* inserts = nullptr;
  Counter* deletes = nullptr;
  Counter* moved_ticks = nullptr;
  Counter* update_ticks = nullptr;
  Counter* moved_bytes = nullptr;
  Histogram* cost = nullptr;
  Histogram* realloc_ticks = nullptr;
  const std::atomic<bool>* enabled = nullptr;  // shared registry switch
  int shard = -1;  // trace-span label; -1 when unsharded

  static CellMetrics create(MetricRegistry& reg, const MetricLabels& labels);

  // One kill-switch test and one stripe lookup cover the whole bundle:
  // every instrument here shares the registry's switch, so per-call
  // guards would be seven loads of the same atomic.
  void on_update(bool is_insert, Tick update_size, Tick moved,
                 Tick bytes) noexcept {
    if constexpr (!kObsCompiledIn) return;
    if (updates == nullptr) return;
    if (!enabled->load(std::memory_order_relaxed)) return;
    const std::size_t s = detail::stripe_index();
    updates->add_at(s, 1);
    (is_insert ? inserts : deletes)->add_at(s, 1);
    moved_ticks->add_at(s, moved);
    update_ticks->add_at(s, update_size);
    if (bytes != 0) moved_bytes->add_at(s, bytes);
    cost->record_unguarded(moved);
    realloc_ticks->record_unguarded(update_size);
  }
};

// ShardedEngine router instruments (registry-global per run).
struct RouterMetrics {
  Counter* fallback_routes = nullptr;
  Counter* migrations = nullptr;
  Counter* migrated_ticks = nullptr;
  Counter* batches = nullptr;

  static RouterMetrics create(MetricRegistry& reg, const MetricLabels& labels);
};

// ServingEngine per-shard queue instruments.
struct ServeMetrics {
  Gauge* queue_depth = nullptr;
  Histogram* queue_wait_us = nullptr;

  static ServeMetrics create(MetricRegistry& reg, const MetricLabels& labels);
};

// ArenaStore byte-movement instruments.
struct ArenaMetrics {
  Counter* moved_bytes = nullptr;
  Counter* verified_bytes = nullptr;
  Counter* payload_moves = nullptr;

  static ArenaMetrics create(MetricRegistry& reg, const MetricLabels& labels);

  void on_move(std::uint64_t bytes) const noexcept {
    if (moved_bytes == nullptr) return;
    moved_bytes->add(bytes);
    payload_moves->inc();
  }
  void on_verify(std::uint64_t bytes) const noexcept {
    if (verified_bytes == nullptr) return;
    verified_bytes->add(bytes);
  }
};

}  // namespace memreal::obs
