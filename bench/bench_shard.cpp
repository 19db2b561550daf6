// Sharded-engine scaling experiment: updates/sec of a fully validated
// sharded run as a function of (shards, threads).
//
// Two sweeps on a uniform churn workload (sizes in the allocator's
// registered band of the shard capacity):
//   T-SHARD-S — shard scaling at all cores: S = 1, 2, 4, 8 (16 when not
//               MEMREAL_FAST).  More cells mean smaller per-cell layouts
//               and more parallel lanes; updates/sec should grow until
//               the core count binds.
//   T-SHARD-T — thread scaling at S = 8: T = 1, 2, 4, ..., cores.  The
//               acceptance bar for the subsystem: updates/sec increases
//               from 1 thread to all cores (on multi-core hosts).
//
//   T-REL     — release vs validated engine at S = 1, 1 thread, on a
//               denser cell: the unchecked fast path's speedup.  A second
//               pair runs COMBINED on the zoo churn stream (eps 1/32,
//               2^40 ticks, sizes in the top 16x of the band — the
//               perfbench cell_combined cell), where the release store's
//               order upkeep, not validation, is the work: the fast path
//               must be no slower than the checked one there.
//
// All three are emitted to BENCH_shard.json via BenchJson.
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness/cell.h"
#include "perfadv/zoo.h"
#include "shard/sharded_engine.h"
#include "workload/churn.h"

namespace memreal::bench {
namespace {

constexpr double kEps = 1.0 / 64;
constexpr Tick kShardCapacity = Tick{1} << 34;

/// T-REL runs its cell denser (~550 live items vs ~34 at kEps) so the
/// head-to-head measures what the release engine removes — per-update
/// validation work, which scales with moved mass — rather than the fixed
/// per-update engine overhead that dominates a near-empty cell.
constexpr double kRelEps = 1.0 / 1024;
/// The COMBINED T-REL pair: the perfbench cell_combined cell.
constexpr double kCombinedEps = 1.0 / 32;
constexpr Tick kCombinedCapacity = Tick{1} << 40;

std::size_t cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Sequence shard_workload(const std::string& allocator, std::size_t shards,
                        std::size_t updates, std::uint64_t seed,
                        double eps = kEps) {
  const AllocatorInfo info = allocator_info(allocator);
  ChurnConfig c;
  c.capacity = kShardCapacity * shards;
  c.eps = eps;
  c.min_size = info.sizes.min_size(eps, kShardCapacity);
  c.max_size = info.sizes.max_size(eps, kShardCapacity) - 1;
  c.target_load = 0.8;
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

ShardedConfig shard_config(const std::string& allocator, std::size_t shards,
                           std::size_t threads, Tick shard_capacity,
                           const std::string& engine, double eps) {
  ShardedConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.params.eps = eps;
  c.params.seed = 1;
  c.shards = shards;
  c.shard_capacity = shard_capacity;
  c.eps = eps;
  c.threads = threads;
  c.batch_size = 4'096;
  return c;
}

struct Point {
  std::size_t shards;
  std::size_t threads;
  ShardedRunStats stats;
};

Point measure(const std::string& allocator, const Sequence& seq,
              std::size_t shards, std::size_t threads,
              const std::string& engine_name = "validated",
              double eps = kEps) {
  ShardedEngine engine(shard_config(allocator, shards, threads,
                                    seq.capacity / shards, engine_name, eps));
  Point p{shards, engine.thread_count(), engine.run(seq)};
  engine.audit();
  return p;
}

Json point_row(const Point& p) {
  Json row = Json::object();
  row.set("shards", static_cast<std::uint64_t>(p.shards))
      .set("threads", static_cast<std::uint64_t>(p.threads))
      .set("updates", static_cast<std::uint64_t>(p.stats.global.updates))
      .set("wall_seconds", p.stats.global.wall_seconds)
      .set("updates_per_second", p.stats.updates_per_second())
      .set("mean_cost", p.stats.global.mean_cost())
      .set("ratio_cost", p.stats.global.ratio_cost())
      .set("imbalance", p.stats.imbalance())
      .set("fallback_routes",
           static_cast<std::uint64_t>(p.stats.fallback_routes));
  return row;
}

void add_row(Table& t, const Point& p) {
  t.add_row({std::to_string(p.shards), std::to_string(p.threads),
             std::to_string(p.stats.global.updates),
             Table::num(p.stats.global.wall_seconds, 4),
             Table::num(p.stats.updates_per_second(), 6),
             Table::num(p.stats.global.mean_cost(), 4),
             Table::num(p.stats.imbalance(), 3)});
}

void print_experiment() {
  const bool fast = fast_mode();
  const std::string allocator = "simple";
  const std::size_t updates = fast ? 4'000 : 40'000;
  BenchJson artifact("shard");
  artifact.set_seeds({1});

  print_header("T-SHARD-S — shard scaling (all cores)",
               "Validated sharded churn: updates/sec vs shard count at "
               "full thread parallelism.");
  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  if (!fast) shard_counts.push_back(16);
  Json shards_rec = series_record("shard_scaling", "T9", "shard-scaling");
  shards_rec.set("allocator", allocator);
  shards_rec.set("workload", "uniform churn, load 0.8, all cores");
  Json shards_rows = Json::array();
  Table by_shards({"shards", "threads", "updates", "wall_s", "updates/s",
                   "mean_cost", "imbalance"});
  for (const std::size_t s : shard_counts) {
    const Sequence seq = shard_workload(allocator, s, updates, 1);
    const Point p = measure(allocator, seq, s, 0);
    add_row(by_shards, p);
    shards_rows.push(point_row(p));
  }
  shards_rec.set("rows", std::move(shards_rows));
  artifact.add(std::move(shards_rec));
  by_shards.print(std::cout);

  print_header("T-SHARD-T — thread scaling (S = 8)",
               "Same workload, fixed 8 shards: updates/sec from 1 thread "
               "to all cores.");
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t < cores(); t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(cores());
  const Sequence seq8 = shard_workload(allocator, 8, updates, 1);
  Json threads_rec = series_record("shard_scaling", "T9", "thread-scaling");
  threads_rec.set("allocator", allocator);
  threads_rec.set("workload", "uniform churn, load 0.8, S = 8");
  Json threads_rows = Json::array();
  Table by_threads({"shards", "threads", "updates", "wall_s", "updates/s",
                    "mean_cost", "imbalance"});
  double first_rate = 0.0;
  double last_rate = 0.0;
  for (const std::size_t t : thread_counts) {
    const Point p = measure(allocator, seq8, 8, t);
    add_row(by_threads, p);
    threads_rows.push(point_row(p));
    if (t == thread_counts.front()) first_rate = p.stats.updates_per_second();
    last_rate = p.stats.updates_per_second();
  }
  threads_rec.set("rows", std::move(threads_rows));
  artifact.add(std::move(threads_rec));
  by_threads.print(std::cout);
  std::cout << "1-thread -> all-cores speedup at S = 8: "
            << Table::num(last_rate / first_rate, 3) << "x over "
            << cores() << " core(s)\n";

  print_header("T-REL — engine throughput (S = 1, single thread)",
               "Churn on one dense cell (eps = 1/1024, ~550 live items): "
               "the unchecked release engine (slab store, no per-update "
               "validation) vs the validated engine, updates/sec head to "
               "head.");
  const Sequence seq1 = shard_workload(allocator, 1, updates, 1, kRelEps);
  Json rel_rec = series_record("engine_throughput", "T-REL",
                               "engine-throughput");
  rel_rec.set("allocator", allocator);
  rel_rec.set("workload",
              "uniform churn, load 0.8, eps 1/1024, S = 1, 1 thread");
  Json rel_rows = Json::array();
  Table by_engine({"engine", "shards", "threads", "updates", "wall_s",
                   "updates/s", "mean_cost", "imbalance"});
  double validated_rate = 0.0;
  double release_rate = 0.0;
  for (const std::string& engine : engine_names()) {
    const Point p = measure(allocator, seq1, 1, 1, engine, kRelEps);
    by_engine.add_row({engine, std::to_string(p.shards),
                       std::to_string(p.threads),
                       std::to_string(p.stats.global.updates),
                       Table::num(p.stats.global.wall_seconds, 4),
                       Table::num(p.stats.updates_per_second(), 6),
                       Table::num(p.stats.global.mean_cost(), 4),
                       Table::num(p.stats.imbalance(), 3)});
    Json row = point_row(p);
    row.set("engine", engine);
    rel_rows.push(std::move(row));
    if (engine == "validated") validated_rate = p.stats.updates_per_second();
    if (engine == "release") release_rate = p.stats.updates_per_second();
  }
  rel_rec.set("rows", std::move(rel_rows));
  artifact.add(std::move(rel_rec));
  by_engine.print(std::cout);
  std::cout << "release / validated updates-per-second ratio at S = 1: "
            << Table::num(validated_rate > 0 ? release_rate / validated_rate
                                             : 0.0, 3)
            << "x\n";

  print_header("T-REL — COMBINED engine throughput (S = 1, single thread)",
               "COMBINED on zoo churn (eps = 1/32, 2^40 ticks, sizes in "
               "the top 16x of the band, ~1,650 live items): the release "
               "store re-orders ~200 items per update, so its index "
               "upkeep must stay cheaper than the validated engine's "
               "checks.");
  const std::string combined = "combined";
  ScenarioParams cp = scenario_params_for(
      allocator_info(combined), kCombinedEps, kCombinedCapacity,
      fast ? 1'000 : 10'000, 1);
  cp.min_size = cp.max_size / 16;
  const Sequence seq_combined = make_scenario("churn", cp);
  Json comb_rec = series_record("engine_throughput", "T-REL",
                                "engine-throughput/combined");
  comb_rec.set("allocator", combined);
  comb_rec.set("workload",
               "zoo churn, sizes in the top 16x of the band, eps 1/32, "
               "2^40 ticks, S = 1, 1 thread");
  Json comb_rows = Json::array();
  Table comb_table({"engine", "updates", "wall_s", "updates/s", "mean_cost"});
  double comb_validated = 0.0;
  double comb_release = 0.0;
  for (const std::string& engine : engine_names()) {
    const Point p =
        measure(combined, seq_combined, 1, 1, engine, kCombinedEps);
    comb_table.add_row({engine, std::to_string(p.stats.global.updates),
                        Table::num(p.stats.global.wall_seconds, 4),
                        Table::num(p.stats.updates_per_second(), 6),
                        Table::num(p.stats.global.mean_cost(), 4)});
    Json row = point_row(p);
    row.set("engine", engine);
    comb_rows.push(std::move(row));
    if (engine == "validated") comb_validated = p.stats.updates_per_second();
    if (engine == "release") comb_release = p.stats.updates_per_second();
  }
  comb_rec.set("rows", std::move(comb_rows));
  artifact.add(std::move(comb_rec));
  comb_table.print(std::cout);
  std::cout << "COMBINED release / validated updates-per-second ratio: "
            << Table::num(comb_validated > 0 ? comb_release / comb_validated
                                             : 0.0, 3)
            << "x\n";

  artifact.write();
}

}  // namespace
}  // namespace memreal::bench

int main() {
  memreal::bench::print_experiment();
  return 0;
}
