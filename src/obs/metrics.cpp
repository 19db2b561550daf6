#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace memreal::obs {

namespace detail {

std::size_t next_thread_id() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

std::string MetricLabels::key() const {
  std::string out;
  auto append = [&out](const char* dim, const std::string& value) {
    if (value.empty()) return;
    out += out.empty() ? "{" : ",";
    out += dim;
    out += "=\"";
    out += value;
    out += "\"";
  };
  append("allocator", allocator);
  append("engine", engine);
  if (shard >= 0) append("shard", std::to_string(shard));
  append("workload", workload);
  if (!out.empty()) out += "}";
  return out;
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry::Entry* MetricRegistry::find_or_create(
    const std::string& name, const MetricLabels& labels, Kind kind) {
  const std::string key = name + labels.key();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter.reset(new Counter(&enabled_));
      break;
    case Kind::kGauge:
      entry->gauge.reset(new Gauge(&enabled_));
      break;
    case Kind::kHistogram:
      entry->histogram.reset(new Histogram(&enabled_));
      break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  index_.emplace(key, raw);
  return raw;
}

Counter* MetricRegistry::counter(const std::string& name,
                                 const MetricLabels& labels) {
  return find_or_create(name, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricRegistry::gauge(const std::string& name,
                             const MetricLabels& labels) {
  return find_or_create(name, labels, Kind::kGauge)->gauge.get();
}

Histogram* MetricRegistry::histogram(const std::string& name,
                                     const MetricLabels& labels) {
  return find_or_create(name, labels, Kind::kHistogram)->histogram.get();
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        entry->counter->reset();
        break;
      case Kind::kGauge:
        entry->gauge->reset();
        break;
      case Kind::kHistogram:
        entry->histogram->reset();
        break;
    }
  }
}

std::uint64_t Histogram::quantile_bound(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket_count(b);
    if (seen > rank) return bucket_hi(b);
  }
  return bucket_hi(kBuckets - 1);
}

namespace {

Json labels_json(const MetricLabels& labels) {
  Json out = Json::object();
  if (!labels.allocator.empty()) out.set("allocator", labels.allocator);
  if (!labels.engine.empty()) out.set("engine", labels.engine);
  if (labels.shard >= 0) out.set("shard", labels.shard);
  if (!labels.workload.empty()) out.set("workload", labels.workload);
  return out;
}

}  // namespace

Json MetricRegistry::snapshot_json() const {
  Json metrics = Json::array();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    Json m = Json::object();
    m.set("name", entry->name);
    m.set("labels", labels_json(entry->labels));
    switch (entry->kind) {
      case Kind::kCounter:
        m.set("kind", "counter");
        m.set("value", entry->counter->value());
        break;
      case Kind::kGauge:
        m.set("kind", "gauge");
        m.set("value", static_cast<double>(entry->gauge->value()));
        m.set("high_water", static_cast<double>(entry->gauge->high_water()));
        break;
      case Kind::kHistogram: {
        m.set("kind", "histogram");
        const Histogram& h = *entry->histogram;
        m.set("count", h.count());
        m.set("sum", h.sum());
        Json buckets = Json::array();
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t c = h.bucket_count(b);
          if (c == 0) continue;
          Json bucket = Json::object();
          bucket.set("le", Histogram::bucket_hi(b));
          bucket.set("count", c);
          buckets.push(std::move(bucket));
        }
        m.set("buckets", std::move(buckets));
        break;
      }
    }
    metrics.push(std::move(m));
  }
  Json out = Json::object();
  out.set("metrics", std::move(metrics));
  return out;
}

std::string MetricRegistry::prometheus_text() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  std::string last_name;
  for (const auto& entry : entries_) {
    const std::string& name = entry->name;
    const std::string labels = entry->labels.key();
    if (name != last_name) {
      out += "# TYPE " + name + " ";
      switch (entry->kind) {
        case Kind::kCounter:
          out += "counter";
          break;
        case Kind::kGauge:
          out += "gauge";
          break;
        case Kind::kHistogram:
          out += "histogram";
          break;
      }
      out += "\n";
      last_name = name;
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out += name + labels + " " + std::to_string(entry->counter->value()) +
               "\n";
        break;
      case Kind::kGauge:
        out += name + labels + " " + std::to_string(entry->gauge->value()) +
               "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        // Cumulative `le` buckets, Prometheus-style; skip trailing empty
        // ranges but always emit +Inf, _sum, and _count.
        std::uint64_t cumulative = 0;
        std::string base = entry->labels.key();
        std::string prefix =
            base.empty() ? "{" : base.substr(0, base.size() - 1) + ",";
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t c = h.bucket_count(b);
          if (c == 0) continue;
          cumulative += c;
          out += name + "_bucket" + prefix + "le=\"" +
                 std::to_string(Histogram::bucket_hi(b)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket" + prefix + "le=\"+Inf\"} " +
               std::to_string(h.count()) + "\n";
        out += name + "_sum" + labels + " " + std::to_string(h.sum()) + "\n";
        out += name + "_count" + labels + " " + std::to_string(h.count()) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricRegistry::summary_table() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t width = 0;
  for (const auto& entry : entries_) {
    width = std::max(width, entry->name.size() + entry->labels.key().size());
  }
  char line[256];
  for (const auto& entry : entries_) {
    const std::string id = entry->name + entry->labels.key();
    switch (entry->kind) {
      case Kind::kCounter:
        std::snprintf(line, sizeof line, "  %-*s %20llu\n",
                      static_cast<int>(width), id.c_str(),
                      static_cast<unsigned long long>(
                          entry->counter->value()));
        break;
      case Kind::kGauge:
        std::snprintf(line, sizeof line, "  %-*s %20lld  (high water %lld)\n",
                      static_cast<int>(width), id.c_str(),
                      static_cast<long long>(entry->gauge->value()),
                      static_cast<long long>(entry->gauge->high_water()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        std::snprintf(
            line, sizeof line,
            "  %-*s count=%llu sum=%llu p50<=%llu p99<=%llu\n",
            static_cast<int>(width), id.c_str(),
            static_cast<unsigned long long>(h.count()),
            static_cast<unsigned long long>(h.sum()),
            static_cast<unsigned long long>(h.quantile_bound(0.50)),
            static_cast<unsigned long long>(h.quantile_bound(0.99)));
        break;
      }
    }
    out += line;
  }
  return out;
}

CellMetrics CellMetrics::create(MetricRegistry& reg,
                                const MetricLabels& labels) {
  CellMetrics m;
  m.updates = reg.counter("memreal_cell_updates_total", labels);
  m.inserts = reg.counter("memreal_cell_inserts_total", labels);
  m.deletes = reg.counter("memreal_cell_deletes_total", labels);
  m.moved_ticks = reg.counter("memreal_cell_moved_ticks_total", labels);
  m.update_ticks = reg.counter("memreal_cell_update_ticks_total", labels);
  m.moved_bytes = reg.counter("memreal_cell_moved_bytes_total", labels);
  m.moved_ticks_per_update =
      reg.histogram("memreal_cell_moved_ticks_per_update", labels);
  m.realloc_ticks = reg.histogram("memreal_cell_realloc_ticks", labels);
  m.enabled = reg.enabled_flag();
  m.shard = labels.shard;
  return m;
}

RouterMetrics RouterMetrics::create(MetricRegistry& reg,
                                    const MetricLabels& labels) {
  RouterMetrics m;
  m.fallback_routes = reg.counter("memreal_shard_fallback_routes_total",
                                  labels);
  m.migrations = reg.counter("memreal_shard_migrations_total", labels);
  m.migrated_ticks = reg.counter("memreal_shard_migrated_ticks_total", labels);
  m.batches = reg.counter("memreal_shard_batches_total", labels);
  return m;
}

ServeMetrics ServeMetrics::create(MetricRegistry& reg,
                                  const MetricLabels& labels) {
  ServeMetrics m;
  m.queue_depth = reg.gauge("memreal_serve_queue_depth", labels);
  m.queue_wait_ns = reg.histogram("memreal_serve_queue_wait_ns", labels);
  return m;
}

ArenaMetrics ArenaMetrics::create(MetricRegistry& reg,
                                  const MetricLabels& labels) {
  ArenaMetrics m;
  m.moved_bytes = reg.counter("memreal_arena_moved_bytes_total", labels);
  m.verified_bytes = reg.counter("memreal_arena_verified_bytes_total", labels);
  m.payload_moves = reg.counter("memreal_arena_payload_moves_total", labels);
  return m;
}

}  // namespace memreal::obs
