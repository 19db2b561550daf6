// Tests for the observability subsystem (src/obs): counter striping,
// gauge high-water marks, log-bucketed histogram boundary properties and
// merge semantics, the registry kill switch (including the
// zero-allocation guarantee on both the enabled and disabled mutator
// paths), snapshot round-trips through the repo's own JSON parser, the
// trace ring + logical clock, and the end-to-end wiring invariants: cell
// counters equal RunStats tick-for-tick, and serve_deterministic stays
// bit-identical to the batch ShardedEngine with tracing + metrics on.
// `ctest -L obs` runs this suite alone; CI also runs it under ASan/UBSan
// and ThreadSanitizer.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/run_stats.h"
#include "serve/mpsc_queue.h"
#include "serve/serving_engine.h"
#include "shard/sharded_engine.h"
#include "testing.h"
#include "util/json.h"
#include "workload/churn.h"

// -- allocation counter -----------------------------------------------------
// Global operator new/delete overrides so the suite can assert that
// metric mutators never allocate.  Counting is a relaxed atomic bump;
// storage still comes from malloc/free so ASan's interceptors keep
// working underneath.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair; the replacement operator new above allocates with malloc, so the
// pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace memreal {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricLabels;
using obs::MetricRegistry;
using obs::ScopedSpan;
using obs::SpanPhase;
using obs::TraceSession;

constexpr double kEps = 1.0 / 64;
constexpr Tick kShardCap = Tick{1} << 30;

Sequence obs_churn(std::size_t shards, std::size_t updates,
                   std::uint64_t seed) {
  ChurnConfig c;
  c.capacity = kShardCap * shards;
  c.eps = kEps;
  c.min_size = static_cast<Tick>(kEps * static_cast<double>(kShardCap));
  c.max_size =
      static_cast<Tick>(2 * kEps * static_cast<double>(kShardCap)) - 1;
  c.target_load = 0.6;
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

using testing::expect_same_layout;

ShardedConfig obs_config(MetricRegistry* reg, const std::string& engine,
                         std::size_t shards, bool arena = false) {
  ShardedConfig c;
  c.allocator = "simple";
  c.engine = engine;
  c.arena = arena;
  c.params.eps = kEps;
  c.params.seed = 1;
  c.shards = shards;
  c.shard_capacity = arena ? Tick{1} << 22 : kShardCap;
  c.eps = kEps;
  c.metrics = reg;
  c.workload_label = "churn";
  return c;
}

// -- counters / gauges ------------------------------------------------------

TEST(ObsCounter, AccumulatesAcrossConcurrentThreads) {
  MetricRegistry reg;
  Counter* c = reg.counter("test_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEach = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (std::uint64_t i = 0; i < kEach; ++i) c->add(2);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), 2 * kThreads * kEach);
}

TEST(ObsGauge, TracksValueAndLifetimeHighWater) {
  MetricRegistry reg;
  Gauge* g = reg.gauge("depth");
  g->set(3);
  g->set(7);
  g->set(2);
  EXPECT_EQ(g->value(), 2);
  EXPECT_EQ(g->high_water(), 7);
  g->add(10);
  EXPECT_EQ(g->value(), 12);
  EXPECT_EQ(g->high_water(), 12);
  g->reset();
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->high_water(), 0);
}

TEST(ObsRegistry, SameNameAndLabelsYieldSameInstrument) {
  MetricRegistry reg;
  MetricLabels a;
  a.allocator = "geo";
  a.shard = 3;
  MetricLabels b = a;
  EXPECT_EQ(reg.counter("x_total", a), reg.counter("x_total", b));
  b.shard = 4;
  EXPECT_NE(reg.counter("x_total", a), reg.counter("x_total", b));
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsPointersValid) {
  MetricRegistry reg;
  Counter* c = reg.counter("y_total");
  Histogram* h = reg.histogram("y_hist");
  c->add(5);
  h->record(9);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.counter("y_total"), c);
  EXPECT_EQ(reg.histogram("y_hist"), h);
  c->add(1);
  EXPECT_EQ(c->value(), 1u);
}

// -- histogram boundary properties ------------------------------------------

TEST(ObsHistogram, BucketBoundsPartitionTheValueSpace) {
  // Every bucket's own bounds land back in that bucket, and adjacent
  // buckets tile the space with no gap or overlap.
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_hi(b - 1) + 1, Histogram::bucket_lo(b))
          << b;
    }
  }
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST(ObsHistogram, EveryRecordedValueLandsInItsContainingBucket) {
  MetricRegistry reg;
  Histogram* h = reg.histogram("prop");
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t b = Histogram::bucket_of(x);
    EXPECT_GE(x, Histogram::bucket_lo(b));
    EXPECT_LE(x, Histogram::bucket_hi(b));
    h->record(x);
  }
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    total += h->bucket_count(b);
  }
  EXPECT_EQ(total, h->count());
  EXPECT_EQ(h->count(), 2'000u);
}

TEST(ObsHistogram, MergeEqualsSingleStream) {
  MetricRegistry reg;
  Histogram* a = reg.histogram("a");
  Histogram* b = reg.histogram("b");
  Histogram* all = reg.histogram("all");
  std::uint64_t x = 42;
  for (int i = 0; i < 1'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = x >> 20;
    ((i % 2 == 0) ? a : b)->record(v);
    all->record(v);
  }
  a->merge(*b);
  EXPECT_EQ(a->count(), all->count());
  EXPECT_EQ(a->sum(), all->sum());
  for (std::size_t bk = 0; bk < Histogram::kBuckets; ++bk) {
    EXPECT_EQ(a->bucket_count(bk), all->bucket_count(bk)) << bk;
  }
}

TEST(ObsHistogram, QuantileBoundIsAConservativeBucketCeiling) {
  MetricRegistry reg;
  Histogram* h = reg.histogram("q");
  EXPECT_EQ(h->quantile_bound(0.5), 0u);  // empty
  for (std::uint64_t v = 1; v <= 100; ++v) h->record(v);
  // The p50 sample is 50; its bucket [32, 63] upper bound is 63.
  EXPECT_EQ(h->quantile_bound(0.5), 63u);
  EXPECT_EQ(h->quantile_bound(1.0),
            Histogram::bucket_hi(Histogram::bucket_of(100)));
  EXPECT_GE(h->quantile_bound(1.0), 100u);
}

// -- kill switch / allocation-free hot path ---------------------------------

TEST(ObsKillSwitch, DisabledMutatorsAreDroppedAndReenableWorks) {
  MetricRegistry reg;
  Counter* c = reg.counter("k_total");
  Histogram* h = reg.histogram("k_hist");
  Gauge* g = reg.gauge("k_gauge");
  reg.set_enabled(false);
  EXPECT_FALSE(reg.enabled());
  c->add(7);
  h->record(7);
  g->set(7);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(g->value(), 0);
  reg.set_enabled(true);
  c->add(7);
  EXPECT_EQ(c->value(), 7u);
}

TEST(ObsKillSwitch, MutatorsNeverAllocateOnEitherPath) {
  MetricRegistry reg;
  MetricLabels l;
  l.allocator = "simple";
  l.shard = 0;
  Counter* c = reg.counter("na_total", l);
  Histogram* h = reg.histogram("na_hist", l);
  Gauge* g = reg.gauge("na_gauge", l);
  for (const bool enabled : {true, false}) {
    reg.set_enabled(enabled);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      c->add(i);
      h->record(i);
      g->set(static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
        << "mutators allocated with enabled=" << enabled;
  }
}

// -- snapshots ---------------------------------------------------------------

TEST(ObsSnapshot, JsonRoundTripsThroughParser) {
  MetricRegistry reg;
  MetricLabels l;
  l.allocator = "geo";
  l.engine = "release";
  l.shard = 1;
  l.workload = "churn";
  reg.counter("rt_total", l)->add(11);
  reg.gauge("rt_gauge", l)->set(4);
  reg.histogram("rt_hist", l)->record(5);
  const Json parsed = Json::parse(reg.snapshot_json().dump(2));
  const Json& metrics = parsed.at("metrics");
  std::size_t seen = 0;
  for (const auto& [key, m] : metrics.items()) {
    (void)key;
    ++seen;
    const std::string name = m.at("name").as_string();
    EXPECT_EQ(m.at("labels").at("allocator").as_string(), "geo");
    EXPECT_EQ(m.at("labels").at("shard").as_u64(), 1u);
    if (name == "rt_total") {
      EXPECT_EQ(m.at("kind").as_string(), "counter");
      EXPECT_EQ(m.at("value").as_u64(), 11u);
    } else if (name == "rt_gauge") {
      EXPECT_DOUBLE_EQ(m.at("high_water").as_double(), 4.0);
    } else if (name == "rt_hist") {
      EXPECT_EQ(m.at("count").as_u64(), 1u);
      EXPECT_EQ(m.at("sum").as_u64(), 5u);
    }
  }
  EXPECT_EQ(seen, 3u);
}

TEST(ObsSnapshot, PrometheusTextHasCumulativeBucketsAndTotals) {
  MetricRegistry reg;
  Histogram* h = reg.histogram("pm_hist");
  h->record(1);
  h->record(2);
  h->record(4);
  reg.counter("pm_total")->add(3);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE pm_total counter"), std::string::npos);
  EXPECT_NE(text.find("pm_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pm_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("pm_hist_sum 7"), std::string::npos);
  EXPECT_NE(text.find("pm_hist_count 3"), std::string::npos);
}

TEST(ObsSnapshot, SummaryTableMentionsEveryInstrument) {
  MetricRegistry reg;
  reg.counter("st_total")->add(2);
  reg.gauge("st_gauge")->set(9);
  const std::string table = reg.summary_table();
  EXPECT_NE(table.find("st_total"), std::string::npos);
  EXPECT_NE(table.find("st_gauge"), std::string::npos);
  EXPECT_NE(table.find("high water"), std::string::npos);
}

// -- trace sessions ----------------------------------------------------------

TEST(ObsTrace, ChromeJsonRoundTripsWithLogicalClock) {
  TraceSession& trace = TraceSession::global();
  trace.start(TraceSession::Clock::kLogical, 64);
  {
    ScopedSpan route(SpanPhase::kRoute, 2);
    ScopedSpan apply(SpanPhase::kApply, 2);
  }
  trace.stop();
  ASSERT_EQ(trace.event_count(), 2u);
  const Json doc = Json::parse(trace.chrome_json());
  EXPECT_EQ(doc.at("clock").as_string(), "logical");
  std::size_t events = 0;
  for (const auto& [key, e] : doc.at("traceEvents").items()) {
    (void)key;
    ++events;
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("cat").as_string(), "memreal");
    EXPECT_EQ(e.at("args").at("shard").as_u64(), 2u);
    const std::string name = e.at("name").as_string();
    EXPECT_TRUE(name == "route" || name == "apply") << name;
    EXPECT_LT(e.at("ts").as_u64(), 4u);  // logical ticks stay integers
  }
  EXPECT_EQ(events, 2u);
  trace.clear();
}

// Wall spans are stamped in nanoseconds and exported as fractional
// microseconds, so a sub-microsecond apply keeps its duration.
TEST(ObsTrace, WallClockExportsFractionalMicroseconds) {
  TraceSession& trace = TraceSession::global();
  trace.start(TraceSession::Clock::kWall, 4);
  trace.record(SpanPhase::kApply, 1500, 2250, 0);
  trace.stop();
  const Json doc = Json::parse(trace.chrome_json());
  EXPECT_EQ(doc.at("clock").as_string(), "wall");
  ASSERT_EQ(doc.at("traceEvents").size(), 1u);
  for (const auto& [key, e] : doc.at("traceEvents").items()) {
    (void)key;
    EXPECT_EQ(e.at("name").as_string(), "apply");
    EXPECT_EQ(e.at("ts").as_double(), 1.5);
    EXPECT_EQ(e.at("dur").as_double(), 0.75);
  }
  trace.clear();
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  TraceSession& trace = TraceSession::global();
  trace.start(TraceSession::Clock::kLogical, 8);
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span(SpanPhase::kValidate, 0);
  }
  trace.stop();
  EXPECT_EQ(trace.event_count(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  trace.clear();
}

TEST(ObsTrace, InactiveSessionRecordsNothing) {
  TraceSession& trace = TraceSession::global();
  trace.clear();
  ASSERT_FALSE(trace.active());
  {
    ScopedSpan span(SpanPhase::kApply, 1);
  }
  EXPECT_EQ(trace.event_count(), 0u);
}

// -- wiring invariants --------------------------------------------------------

TEST(ObsWiring, CellCountersEqualRunStatsTickForTick) {
  MetricRegistry reg;
  for (const std::string engine : {"validated", "release"}) {
    reg.reset();
    ShardedConfig config = obs_config(&reg, engine, 2);
    const Sequence seq = obs_churn(2, 600, 7);
    ShardedEngine sharded(config);
    const ShardedRunStats stats = sharded.run(seq);
    sharded.audit();
    std::uint64_t updates = 0;
    std::uint64_t moved = 0;
    for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
      MetricLabels l;
      l.allocator = "simple";
      l.engine = engine;
      l.shard = static_cast<int>(s);
      l.workload = "churn";
      const RunStats& ps = stats.per_shard[s];
      EXPECT_EQ(reg.counter("memreal_cell_updates_total", l)->value(),
                ps.updates);
      EXPECT_EQ(reg.counter("memreal_cell_inserts_total", l)->value(),
                ps.inserts);
      EXPECT_EQ(reg.counter("memreal_cell_deletes_total", l)->value(),
                ps.deletes);
      EXPECT_EQ(reg.counter("memreal_cell_moved_ticks_total", l)->value(),
                static_cast<std::uint64_t>(ps.moved_mass));
      EXPECT_EQ(reg.counter("memreal_cell_update_ticks_total", l)->value(),
                static_cast<std::uint64_t>(ps.update_mass));
      EXPECT_EQ(
          reg.histogram("memreal_cell_moved_ticks_per_update", l)->count(),
          ps.updates);
      updates += ps.updates;
      moved += static_cast<std::uint64_t>(ps.moved_mass);
    }
    EXPECT_EQ(updates, stats.global.updates) << engine;
    EXPECT_EQ(moved, static_cast<std::uint64_t>(stats.global.moved_mass))
        << engine;
  }
}

TEST(ObsWiring, ArenaCountersTrackByteMovement) {
  MetricRegistry reg;
  ShardedConfig config = obs_config(&reg, "validated", 2, /*arena=*/true);
  // Arena cells are 2^22 ticks; size the churn to their geometry.
  ChurnConfig c;
  c.capacity = config.shard_capacity * 2;
  c.eps = kEps;
  c.min_size =
      static_cast<Tick>(kEps * static_cast<double>(config.shard_capacity));
  c.max_size = static_cast<Tick>(
                   2 * kEps * static_cast<double>(config.shard_capacity)) -
               1;
  c.target_load = 0.6;
  c.churn_updates = 400;
  c.seed = 11;
  ShardedEngine sharded(config);
  const ShardedRunStats stats = sharded.run(make_churn(c));
  sharded.audit();
  std::uint64_t cell_bytes = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t payload_moves = 0;
  for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
    MetricLabels l;
    l.allocator = "simple";
    l.engine = "validated+arena";
    l.shard = static_cast<int>(s);
    l.workload = "churn";
    cell_bytes += reg.counter("memreal_cell_moved_bytes_total", l)->value();
    arena_bytes += reg.counter("memreal_arena_moved_bytes_total", l)->value();
    payload_moves +=
        reg.counter("memreal_arena_payload_moves_total", l)->value();
  }
  EXPECT_EQ(cell_bytes, static_cast<std::uint64_t>(stats.global.moved_bytes));
  EXPECT_GT(arena_bytes, 0u);
  EXPECT_GT(payload_moves, 0u);
}

TEST(ObsWiring, ServeQueueMetricsCoverEveryRequest) {
  MetricRegistry reg;
  ShardedConfig config = obs_config(&reg, "validated", 2);
  const Sequence seq = obs_churn(2, 500, 13);
  std::uint64_t waits = 0;
  std::size_t high_water = 0;
  {
    ServingEngine engine(config);
    for (const Update& u : seq.updates) (void)engine.submit(u);
    engine.drain();
    engine.audit();
    for (std::size_t s = 0; s < 2; ++s) {
      MetricLabels l;
      l.allocator = "simple";
      l.engine = "validated";
      l.shard = static_cast<int>(s);
      l.workload = "churn";
      waits += reg.histogram("memreal_serve_queue_wait_ns", l)->count();
      high_water = std::max(high_water, engine.queue_high_water(s));
    }
    engine.stop();
  }
  EXPECT_EQ(waits, seq.updates.size());
  EXPECT_GE(high_water, 1u);
}

TEST(ObsWiring, ServeDeterministicBitIdenticalWithTracingAndMetricsOn) {
  // The acceptance invariant: arming the logical-clock trace session and
  // wiring the metric registry must not perturb serve_deterministic.
  const Sequence seq = obs_churn(2, 500, 17);
  ShardedConfig plain = obs_config(nullptr, "validated", 2);
  ShardedEngine batch(plain);
  const ShardedRunStats want = batch.run(seq);
  batch.audit();

  MetricRegistry reg;
  ShardedConfig wired = obs_config(&reg, "validated", 2);
  TraceSession& trace = TraceSession::global();
  trace.start(TraceSession::Clock::kLogical);
  ShardedRunStats got;
  {
    ServingEngine serve(wired);
    (void)serve_deterministic(serve, seq, /*lanes=*/3, 18);
    got = serve.stats();
    serve.audit();
    for (std::size_t s = 0; s < batch.shard_count(); ++s) {
      expect_same_layout(batch.memory(s), serve.sharded().memory(s));
    }
    serve.stop();
  }
  trace.stop();
  ASSERT_EQ(got.per_shard.size(), want.per_shard.size());
  EXPECT_EQ(got.global.updates, want.global.updates);
  EXPECT_EQ(got.global.moved_mass, want.global.moved_mass);
  EXPECT_EQ(got.global.update_mass, want.global.update_mass);
  for (std::size_t s = 0; s < want.per_shard.size(); ++s) {
    EXPECT_EQ(got.per_shard[s].updates, want.per_shard[s].updates);
    EXPECT_EQ(got.per_shard[s].moved_mass, want.per_shard[s].moved_mass);
    EXPECT_EQ(got.per_shard[s].cost.sum(), want.per_shard[s].cost.sum());
    EXPECT_EQ(got.per_shard[s].cost.variance(),
              want.per_shard[s].cost.variance());
  }
  EXPECT_GT(trace.event_count(), 0u);
  trace.clear();
}

// -- satellites ---------------------------------------------------------------

TEST(ObsSatellite, MpscQueueTracksDepthAndLifetimeHighWater) {
  MpscQueue<int> q;
  std::size_t depth = 0;
  q.push(1, &depth);
  EXPECT_EQ(depth, 1u);
  q.push(2, &depth);
  q.push(3, &depth);
  EXPECT_EQ(depth, 3u);
  EXPECT_EQ(q.high_water(), 3u);
  EXPECT_EQ(q.pushed(), 3u);
  std::vector<int> got;
  ASSERT_TRUE(q.pop_all(got));
  q.push(4, &depth);
  EXPECT_EQ(depth, 1u);
  EXPECT_EQ(q.high_water(), 3u);  // lifetime, not current
  EXPECT_EQ(q.pushed(), 4u);
}

TEST(ObsSatellite, RunStatsToJsonRoundTrips) {
  RunStats stats;
  stats.record(/*is_insert=*/true, /*update_size=*/10, /*moved=*/30,
               /*moved_bytes=*/240);
  stats.record(/*is_insert=*/false, /*update_size=*/5, /*moved=*/10,
               /*moved_bytes=*/80);
  const Json parsed = Json::parse(stats.to_json().dump(2));
  EXPECT_EQ(parsed.at("updates").as_u64(), 2u);
  EXPECT_EQ(parsed.at("inserts").as_u64(), 1u);
  EXPECT_EQ(parsed.at("deletes").as_u64(), 1u);
  EXPECT_EQ(parsed.at("moved_mass").as_u64(), 40u);
  EXPECT_EQ(parsed.at("update_mass").as_u64(), 15u);
  EXPECT_EQ(parsed.at("moved_bytes").as_u64(), 320u);
  EXPECT_DOUBLE_EQ(parsed.at("mean_cost").as_double(), stats.mean_cost());
  EXPECT_DOUBLE_EQ(parsed.at("ratio_cost").as_double(), 40.0 / 15.0);
  EXPECT_GT(parsed.at("cost_quantiles").at("p50").as_double(), 0.0);
}

}  // namespace
}  // namespace memreal
