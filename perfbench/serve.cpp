// serve_rw: SIMPLE on two release shards behind ServingEngine, eps 1/64.
//
// One closed-loop writer keeps one request outstanding (submit, then wait
// on the future); one reader sends batches of item_at / neighbors_of /
// contains and sleeps between batches, so it never keeps a core busy.
// With the two shard workers that is four threads.  Applying an update
// takes ~1.6 us of a ~20 us round trip, so the serving layer (promise,
// route and drain mutexes, condvar wake-ups, shard shared_mutex) does
// nearly all the work, and reads share the shard locks with writes.
//
// With one writer, route order equals submission order, so every cell
// sees the batch path's sub-sequence: the served per-shard RunStats must
// equal a batch ShardedEngine::run and the served costs a single-thread
// route + apply replay.
#include <atomic>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "perfadv/zoo.h"
#include "serve/serving_engine.h"
#include "traced_cell.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using memreal::Sequence;
using memreal::ServingEngine;
using memreal::ShardedConfig;
using memreal::ShardedEngine;
using memreal::Update;

constexpr const char* kAllocator = "simple";
constexpr std::size_t kShards = 2;
constexpr Tick kShardCapacity = Tick{1} << 40;
constexpr double kEps = 1.0 / 64;
constexpr std::size_t kTimedUpdates = 50'000;
/// Reader: probes per batch (each item_at, then neighbors_of + contains on
/// a hit) and the pause between batches.
constexpr std::size_t kProbes = 32;
constexpr auto kReaderPause = std::chrono::microseconds(200);

struct Generated {
  Sequence fill;
  Sequence timed;
};

/// Churn over both shards' total capacity at half load, item sizes in
/// SIMPLE's band of one shard, so the hash router always finds room.
Generated generate(std::uint64_t seed) {
  memreal::ScenarioParams p = memreal::scenario_params_for(
      memreal::allocator_info(kAllocator), kEps, kShardCapacity,
      kTimedUpdates, seed);
  p.capacity = kShardCapacity * kShards;
  p.target_load = 0.5;
  Sequence seq = memreal::make_scenario("churn", p);
  MEMREAL_CHECK(seq.size() > kTimedUpdates);
  Generated g{seq, seq};
  const auto split =
      seq.updates.begin() +
      static_cast<std::ptrdiff_t>(seq.size() - kTimedUpdates);
  g.fill.updates.assign(seq.updates.begin(), split);
  g.timed.updates.assign(split, seq.updates.end());
  return g;
}

ShardedConfig config(std::uint64_t seed, const std::string& engine) {
  ShardedConfig c;
  c.engine = engine;
  c.allocator = kAllocator;
  c.params.eps = kEps;
  c.params.seed = seed;
  c.shards = kShards;
  c.shard_capacity = kShardCapacity;
  c.eps = kEps;
  return c;
}

/// The integer part of per-shard RunStats (what must match exactly).
std::vector<Tick> stats_key(const memreal::ShardedRunStats& s) {
  std::vector<Tick> key;
  for (const memreal::RunStats& r : s.per_shard) {
    key.insert(key.end(), {r.updates, r.inserts, r.deletes, r.moved_mass,
                           r.update_mass, r.moved_bytes});
  }
  return key;
}

// -- Reader ---------------------------------------------------------------

struct Reader {
  std::vector<double> ns_per_read;  ///< per batch
  std::uint64_t reads = 0;
  std::uint64_t bad = 0;
  std::string first_bad;
};

void read_until(ServingEngine& engine, std::uint64_t seed,
                const std::atomic<bool>& stop, Reader& out) {
  struct Probe {
    std::size_t shard = 0;
    Tick offset = 0;
    std::optional<PlacedItem> at;
    std::optional<LayoutStore::Neighbors> around;
  };
  memreal::Rng rng(seed ^ 0x7eadULL);
  std::vector<Probe> probes(kProbes);
  while (!stop.load(std::memory_order_relaxed)) {
    for (std::size_t k = 0; k < kProbes; ++k) {
      probes[k] = Probe{};
      probes[k].shard = k % kShards;
      probes[k].offset = rng.next_below(kShardCapacity / 2);
    }
    std::size_t reads = 0;
    const Clock::time_point t0 = Clock::now();
    for (Probe& p : probes) {
      p.at = engine.item_at(p.shard, p.offset);
      ++reads;
      if (p.at) {
        p.around = engine.neighbors_of(p.at->id);
        (void)engine.contains(p.at->id);
        reads += 2;
      }
    }
    const Clock::time_point t1 = Clock::now();
    out.reads += reads;
    out.ns_per_read.push_back(static_cast<double>(ns_between(t0, t1)) /
                              static_cast<double>(reads));
    for (const Probe& p : probes) {
      std::string bad;
      if (p.at && !(p.at->offset <= p.offset &&
                    p.offset < p.at->offset + p.at->extent)) {
        bad = "item_at returned an item not covering the offset";
      } else if (p.around && p.around->prev && p.around->next &&
                 (!precedes(*p.around->prev, *p.around->next) ||
                  p.around->prev->offset + p.around->prev->size >
                      p.around->next->offset)) {
        bad = "neighbors_of out of (offset, id) order or overlapping";
      }
      if (!bad.empty() && out.bad++ == 0) out.first_bad = bad;
    }
    std::this_thread::sleep_for(kReaderPause);
  }
}

/// The reader thread's body: a throwing query counts as a failed read.
void reader_loop(ServingEngine& engine, std::uint64_t seed,
                 const std::atomic<bool>& stop, Reader& out) {
  try {
    read_until(engine, seed, stop, out);
  } catch (const std::exception& e) {
    if (out.bad++ == 0) out.first_bad = e.what();
  }
}

// -- Rounds ---------------------------------------------------------------

struct Round {
  double gen_s = 0.0;
  double fill_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> latency_us;  ///< in sequence order
  std::vector<double> submit_us;  ///< traced rounds only
  std::vector<double> wait_us;    ///< traced rounds only
  std::vector<double> costs;      ///< timed phase
  Usage usage;
  Reader reader;
  std::vector<Tick> stats;
  bool ok = true;
};

Round run_round(std::uint64_t seed, bool traced, Result& result) {
  Round r;
  const Clock::time_point t0 = Clock::now();
  const Generated g = generate(seed);
  const Clock::time_point t1 = Clock::now();
  ServingEngine engine(config(seed, "release"));
  try {
    for (const Update& u : g.fill.updates) (void)engine.submit(u).get();
  } catch (const std::exception& e) {
    result.fail(std::string("fill: ") + e.what(), g.fill.size());
    r.ok = false;
    return r;
  }
  const Clock::time_point t2 = Clock::now();
  r.gen_s = seconds_between(t0, t1);
  r.fill_s = seconds_between(t1, t2);
  r.setup_s = seconds_between(t0, t2);

  const std::size_t n = g.timed.size();
  r.latency_us.reserve(n);
  r.costs.reserve(n);
  if (traced) {
    r.submit_us.reserve(n);
    r.wait_us.reserve(n);
  }
  // Nothing between starting the reader and joining it may throw.
  std::atomic<bool> stop{false};
  std::thread reader([&] { reader_loop(engine, seed, stop, r.reader); });
  const Usage u0 = Usage::now();
  std::size_t i = 0;
  try {
    for (; i < n; ++i) {
      const Clock::time_point a = Clock::now();
      std::future<double> done = engine.submit(g.timed.updates[i]);
      Clock::time_point b;
      if (traced) b = Clock::now();
      const double cost = done.get();
      const Clock::time_point c = Clock::now();
      r.latency_us.push_back(static_cast<double>(ns_between(a, c)) * 1e-3);
      if (traced) {
        r.submit_us.push_back(static_cast<double>(ns_between(a, b)) * 1e-3);
        r.wait_us.push_back(static_cast<double>(ns_between(b, c)) * 1e-3);
      }
      r.costs.push_back(cost);
    }
  } catch (const std::exception& e) {
    result.fail(std::string("update: ") + e.what(), n - i);
    r.ok = false;
  }
  r.usage = Usage::now() - u0;
  stop.store(true);
  reader.join();
  result.attempted += g.fill.size() + n + r.reader.reads;
  if (r.reader.bad > 0) result.fail("read: " + r.reader.first_bad, r.reader.bad);
  if (!r.ok) return r;
  try {
    r.stats = stats_key(engine.stats());
    engine.audit();
  } catch (const std::exception& e) {
    result.fail(std::string("audit: ") + e.what());
  }
  engine.stop();
  return r;
}

/// Single-thread replay of what the serving path does per update: route
/// on the sharded engine, then step the routed shard's cell.  Timed only
/// over the timed phase.
struct Replay {
  std::vector<double> costs;  ///< timed phase
  double route_ns = 0.0;      ///< per update, mean
  double step_us = 0.0;       ///< per update, mean
  std::vector<Tick> stats;
};

template <typename Step>
Replay replay(const Generated& g, ShardedEngine& router, Step&& step) {
  Replay out;
  for (const Update& u : g.fill.updates) step(router.route_update(u), u);
  std::int64_t route_ns = 0;
  std::int64_t step_ns = 0;
  out.costs.reserve(g.timed.size());
  for (const Update& u : g.timed.updates) {
    const Clock::time_point a = Clock::now();
    const std::size_t shard = router.route_update(u);
    const Clock::time_point b = Clock::now();
    out.costs.push_back(step(shard, u));
    const Clock::time_point c = Clock::now();
    route_ns += ns_between(a, b);
    step_ns += ns_between(b, c);
  }
  const auto n = static_cast<double>(g.timed.size());
  out.route_ns = static_cast<double>(route_ns) / n;
  out.step_us = static_cast<double>(step_ns) * 1e-3 / n;
  return out;
}

Replay replay_engine(const Generated& g, std::uint64_t seed,
                     const std::string& engine) {
  ShardedEngine sharded(config(seed, engine));
  Replay out = replay(g, sharded, [&](std::size_t s, const Update& u) {
    return sharded.cell(s).step(u);
  });
  out.stats = stats_key(sharded.stats());
  sharded.audit();
  return out;
}

}  // namespace

Result run_serve_workload(const Options& o) {
  Result result;
  const Generated g = generate(o.seed);

  // References, outside the measured window: the batch path (integers of
  // per-shard RunStats, and its throughput on the timed phase) and the
  // single-thread route + apply replay (per-update costs, route and apply
  // times).
  ShardedEngine batch(config(o.seed, "release"));
  batch.run(g.fill);
  const memreal::ShardedRunStats filled = batch.stats();
  const Clock::time_point b0 = Clock::now();
  batch.run(g.timed);
  const double batch_ups =
      static_cast<double>(g.timed.size()) / seconds_between(b0, Clock::now());
  const memreal::ShardedRunStats batch_stats = batch.stats();
  batch.audit();
  const Replay release = replay_engine(g, o.seed, "release");
  if (release.stats != stats_key(batch_stats)) {
    result.fail("route + apply replay differs from the batch path");
  }

  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  double peak_mb = 0.0;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < kMinRounds ||
         (o.trace && traced_rounds.size() < kMinRounds) ||
         seconds_between(start, Clock::now()) < o.seconds) {
    const bool trace_this = o.trace && rounds.size() > traced_rounds.size();
    Round r = run_round(o.seed, trace_this, result);
    if (!r.ok) break;
    if (r.stats != stats_key(batch_stats)) {
      result.fail("served per-shard RunStats differ from the batch path");
    }
    if (r.costs != release.costs) {
      result.fail("served costs differ from the route + apply replay");
    }
    (trace_this ? traced_rounds : rounds).push_back(std::move(r));
    // Later rounds only add samples; the footprint is one round's.
    if (rounds.size() == 1 && traced_rounds.empty()) peak_mb = peak_rss_mb();
  }
  if (rounds.empty()) return result;

  // Every round submits the same updates; an update's latency is its
  // median over rounds, so a burst of interference from other work on the
  // host slows one round, not the median.  The closed loop's wall time is
  // the sum of its round trips.
  const auto typical_latency = [](const std::vector<Round>& rs) {
    std::vector<std::vector<double>> runs;
    for (const Round& r : rs) runs.push_back(r.latency_us);
    return median_by_index(runs);
  };
  std::vector<double> typical = typical_latency(rounds);
  const double updates_per_s = 1e6 / mean(typical);
  std::vector<double> setup, gen, fill, read_ns;
  Usage usage;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    gen.push_back(r.gen_s);
    fill.push_back(r.fill_s);
    read_ns.insert(read_ns.end(), r.reader.ns_per_read.begin(),
                   r.reader.ns_per_read.end());
    usage.user_s += r.usage.user_s;
    usage.sys_s += r.usage.sys_s;
    usage.ctx_switches += r.usage.ctx_switches;
  }
  const std::size_t n = rounds.size();
  const std::size_t samples = n * typical.size();
  if (!o.trace) {
    const memreal::RunStats& a = filled.global;
    const memreal::RunStats& b = batch_stats.global;
    result.add("updates_per_s", "1/s", updates_per_s, samples);
    result.add("update_p50_us", "us", percentile(typical, 0.50), samples);
    result.add("update_p90_us", "us", percentile(typical, 0.90), samples);
    result.add("update_p99_us", "us", percentile(typical, 0.99), samples);
    result.add("read_p50_ns", "ns", median(read_ns), read_ns.size());
    result.add("mean_cost", "L/k", mean(release.costs), release.costs.size());
    result.add("ratio_cost", "L/k",
               static_cast<double>(b.moved_mass - a.moved_mass) /
                   static_cast<double>(b.update_mass - a.update_mass),
               release.costs.size());
    result.add("setup_s", "s", median(setup), n);
    result.add("peak_rss_mb", "MiB", peak_mb, 1);
    return result;
  }

  // Alloc/release split from decorated cells fed the same routing.
  ShardedEngine router(config(o.seed, "release"));
  std::vector<std::unique_ptr<TracedCell>> cells;
  memreal::AllocatorParams params;
  params.eps = kEps;
  params.seed = o.seed;
  for (std::size_t s = 0; s < kShards; ++s) {
    cells.push_back(std::make_unique<TracedCell>(
        kShardCapacity, memreal::Eps::of(kEps, kShardCapacity).ticks,
        kAllocator, params, false, 8));
  }
  // Decorator totals are cumulative: snapshot them after the fill.
  StoreTotals before[kShards];
  std::int64_t step_ns = 0;
  const Replay decorated = [&] {
    Replay out;
    for (const Update& u : g.fill.updates) {
      cells[router.route_update(u)]->step(u);
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      before[s] = cells[s]->release_layer().totals();
    }
    for (const Update& u : g.timed.updates) {
      TracedCell& cell = *cells[router.route_update(u)];
      const Clock::time_point a = Clock::now();
      out.costs.push_back(cell.step(u));
      step_ns += ns_between(a, Clock::now());
    }
    return out;
  }();
  if (decorated.costs != release.costs) {
    result.fail("decorated replay costs differ from the plain replay");
  }
  StoreTotals timed;
  for (std::size_t s = 0; s < kShards; ++s) {
    cells[s]->audit();
    timed = timed + (cells[s]->release_layer().totals() - before[s]);
  }
  const Replay validated = replay_engine(g, o.seed, "validated");
  if (validated.costs != release.costs) {
    result.fail("validated replay costs differ from the release replay");
  }

  // Self time is a span minus its child spans; the decorators' order-shadow
  // bookkeeping is billed to no layer.
  const double m = static_cast<double>(g.timed.size());
  const double calls = static_cast<double>(timed.total_calls());
  const double store_us = static_cast<double>(timed.total_ns()) * 1e-3 / m;
  const double alloc_us =
      static_cast<double>(step_ns - timed.total_ns() - timed.bookkeeping_ns) *
      1e-3 / m;
  std::vector<double> submit_us, wait_us;
  for (const Round& r : traced_rounds) {
    submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
    wait_us.insert(wait_us.end(), r.wait_us.begin(), r.wait_us.end());
  }

  result.add("workload.gen_s", "s", median(gen), n);
  result.add("cell.fill_s", "s", median(fill), n);
  result.add("alloc.self_us_per_update", "us", alloc_us, g.timed.size());
  result.add("alloc.store_calls_per_update", "count", calls / m,
             g.timed.size());
  result.add("release.store_us_per_update", "us", store_us, g.timed.size());
  result.add("release.moves_per_update", "count",
             static_cast<double>(timed.moves) / m, g.timed.size());
  result.add("release.order_breaking_moves_per_update", "count",
             static_cast<double>(timed.order_breaking_moves) / m,
             g.timed.size());
  result.add("release.ordered_queries_per_update", "count",
             static_cast<double>(
                 timed.calls[static_cast<std::size_t>(Op::kOrderedQuery)]) /
                 m,
             g.timed.size());
  result.add("mem.validated_us_per_update", "us", validated.step_us,
             g.timed.size());
  result.add("release.speedup_vs_validated", "x",
             validated.step_us / release.step_us, g.timed.size());
  result.add("shard.route_ns_per_update", "ns", release.route_ns,
             g.timed.size());
  result.add("shard.fallback_routes", "count",
             static_cast<double>(batch_stats.fallback_routes), 1);
  result.add("shard.batch_updates_per_s", "1/s", batch_ups, g.timed.size());
  result.add("serve.submit_us", "us", median(submit_us), submit_us.size());
  result.add("serve.wait_us", "us", median(wait_us), wait_us.size());
  result.add("serve.apply_us", "us", release.step_us, g.timed.size());
  result.add("serve.served_over_batch", "ratio", updates_per_s / batch_ups,
             n);
  result.add("serve.ctx_switches_per_update", "count",
             static_cast<double>(usage.ctx_switches) /
                 static_cast<double>(samples),
             samples);
  result.add("serve.sys_cpu_frac", "ratio",
             usage.sys_s / (usage.user_s + usage.sys_s), n);
  result.add("trace.overhead_frac", "ratio",
             1.0 - mean(typical) / mean(typical_latency(traced_rounds)),
             traced_rounds.size());

  if (!o.spans_out.empty()) {
    std::ofstream os(o.spans_out);
    // The first traced round's spans: one per update.
    const Round& r = traced_rounds.front();
    for (std::size_t i = 0; i < r.submit_us.size(); ++i) {
      os << "{\"workload\":\"serve_rw\",\"update\":" << g.fill.size() + i
         << ",\"latency_us\":" << r.latency_us[i]
         << ",\"submit_us\":" << r.submit_us[i]
         << ",\"wait_us\":" << r.wait_us[i] << "}\n";
    }
  }
  return result;
}

}  // namespace perfbench
