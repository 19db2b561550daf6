// memreal_shard — throughput driver for the sharded multi-cell engine.
// Run with --help for usage.  Exit status 0 = clean, 1 = invariant
// violation, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "alloc/registry.h"
#include "cli.h"
#include "obs/metrics.h"
#include "perfadv/zoo.h"
#include "shard/sharded_engine.h"
#include "util/check.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace memreal;
using namespace memreal::cli;

constexpr Tool kTool{"memreal_shard"};

constexpr const char* kUsage = R"(memreal_shard [options]
  --allocator NAME   registry allocator for every cell (default simple)
  --engine E         cell engine: validated (default), release or arena.
                     release is the unchecked slab fast path (its
                     correctness story is ctest -L release plus
                     memreal_fuzz --engine release); arena is an alias
                     for --arena below (matching memreal_fuzz)
  --arena            back every shard's cell with a real byte arena:
                     payloads get physical addresses, moves execute real
                     memmoves, and the run reports measured byte traffic.
                     Lowers the default per-shard capacity to 2^22 ticks
                     (a byte payload per tick; override with
                     --capacity-log2)
  --bytes-per-tick N byte-space granule for --arena (default 8); also
                     the minimum allocation and alignment
  --no-verify-payloads
                     skip payload fill-pattern checks under --arena:
                     measures raw memmove bandwidth instead of
                     integrity-checked movement
  --shards N         cell count (default 8)
  --threads N        worker threads (default 0 = all cores)
  --eps X            free-space parameter (default 0.015625)
  --router P         hash | size-class | round-robin (default hash)
  --workload W       scenario-zoo name (default churn; memreal_adv
                     --list-scenarios prints the zoo); one the allocator
                     cannot serve errors up front with the compatible
                     list.  vm_heap is the byte-addressed GC-heap stream;
                     pair it with --arena for real payload movement
  --updates N        churn updates in the workload (default 20000)
  --tenants N        tenants for multi_tenant_zipf; palette size on
                     fixed-palette allocators (default 8)
  --zipf S           tenant skew exponent for multi_tenant_zipf
                     (default 1)
  --batch N          updates per parallel round (default 4096)
  --rebalance X      live-mass imbalance threshold, >= 1 enables the
                     between-batch rebalancer (default 0 = off)
  --seed N           workload + allocator seed (default 1)
  --capacity-log2 N  per-shard capacity 2^N ticks (default 40; 22 under
                     --arena)
  --audit-every N    full per-cell audit cadence (default 0 = final only)
  --no-validate      disable incremental per-update validation
  --json FILE        also write the results as JSON to FILE
  --metrics-summary  print the end-of-run metrics table (wires the
                     observability registry through every cell)
  --metrics-out FILE write a final metrics snapshot (JSON) to FILE
  --prom-out FILE    write a Prometheus text-format dump to FILE
  --trace-out FILE   write the run's lifecycle spans (route, apply,
                     validate, arena-flush) as Chrome trace JSON to FILE
  --quiet            suppress the tables (summary line + JSON only)

The workload's size band comes from the allocator's registered
AllocatorInfo size profile, evaluated against the *shard* capacity, so
every generated item is admissible for the chosen allocator.  The run
ends with a full audit of every cell (including payload pattern
verification under --arena).
)";

struct Options {
  std::string allocator = "simple";
  std::string engine = "validated";
  bool arena = false;
  Tick bytes_per_tick = 8;
  bool verify_payloads = true;
  std::size_t shards = 8;
  std::size_t threads = 0;
  double eps = 1.0 / 64;
  std::string router = "hash";
  std::string workload = "churn";
  std::size_t updates = 20'000;
  std::size_t tenants = 8;
  double zipf = 1.0;
  std::size_t batch = 4'096;
  double rebalance = 0.0;
  std::uint64_t seed = 1;
  unsigned capacity_log2 = 40;
  bool capacity_log2_set = false;
  std::size_t audit_every = 0;
  bool validate = true;
  std::string json_path;
  bool metrics_summary = false;
  std::string metrics_out;
  std::string prom_out;
  std::string trace_out;
  bool quiet = false;

  [[nodiscard]] bool metrics_wired() const {
    return metrics_summary || !metrics_out.empty() || !prom_out.empty();
  }
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(kTool, "missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (flag == "--allocator") {
      o.allocator = next();
    } else if (flag == "--engine") {
      parse_engine(kTool, next(), o.engine, o.arena);
    } else if (flag == "--arena") {
      o.arena = true;
    } else if (flag == "--bytes-per-tick") {
      o.bytes_per_tick = parse_u64(kTool, flag, next());
      if (o.bytes_per_tick == 0) {
        usage_error(kTool, "--bytes-per-tick must be >= 1");
      }
    } else if (flag == "--no-verify-payloads") {
      o.verify_payloads = false;
    } else if (flag == "--shards") {
      o.shards = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--threads") {
      o.threads = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--eps") {
      o.eps = parse_double(kTool, flag, next());
    } else if (flag == "--router") {
      o.router = next();
    } else if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--updates") {
      o.updates = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--tenants") {
      o.tenants = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--zipf") {
      o.zipf = parse_double(kTool, flag, next());
    } else if (flag == "--batch") {
      o.batch = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--rebalance") {
      o.rebalance = parse_double(kTool, flag, next());
    } else if (flag == "--seed") {
      o.seed = parse_u64(kTool, flag, next());
    } else if (flag == "--capacity-log2") {
      const std::uint64_t v = parse_u64(kTool, flag, next());
      if (v < 10 || v > 50) {
        usage_error(kTool, "--capacity-log2 must be in [10, 50]");
      }
      o.capacity_log2 = static_cast<unsigned>(v);
      o.capacity_log2_set = true;
    } else if (flag == "--audit-every") {
      o.audit_every = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--no-validate") {
      o.validate = false;
    } else if (flag == "--json") {
      o.json_path = next();
    } else if (flag == "--metrics-summary") {
      o.metrics_summary = true;
    } else if (flag == "--metrics-out") {
      o.metrics_out = next();
    } else if (flag == "--prom-out") {
      o.prom_out = next();
    } else if (flag == "--trace-out") {
      o.trace_out = next();
    } else if (flag == "--quiet") {
      o.quiet = true;
    } else {
      usage_error(kTool, "unknown flag '" + flag + "'");
    }
  }
  if (o.shards == 0) usage_error(kTool, "--shards must be >= 1");
  // An arena shard carries a real byte payload per tick; the tick-only
  // default capacity would ask for terabytes of physical arena.
  if (o.arena && !o.capacity_log2_set) o.capacity_log2 = 22;
  // The global workload spans shards * 2^capacity-log2 ticks; reject
  // combinations that would wrap the tick space.
  if (o.shards > (std::numeric_limits<Tick>::max() >> o.capacity_log2)) {
    usage_error(kTool, "--shards x 2^capacity-log2 overflows the tick space");
  }
  if (o.eps <= 0.0 || o.eps >= 1.0) {
    usage_error(kTool, "--eps must be in (0, 1)");
  }
  return o;
}

/// Builds the workload from the scenario zoo: item sizes come from the
/// allocator's registered size band over the *shard* capacity; the
/// live-mass budget spans all shards (global capacity = shards *
/// shard_capacity).  An inadmissible pair is a usage error naming the
/// compatible scenarios.
Sequence make_workload(const Options& o, Tick shard_capacity) {
  const AllocatorInfo info = allocator_info(o.allocator);
  const std::string rejected = scenario_rejection(
      o.workload, info, o.eps, shard_capacity, kNoFillCeiling);
  if (!rejected.empty()) usage_error(kTool, rejected);
  ScenarioParams p =
      scenario_params_for(info, o.eps, shard_capacity, o.updates, o.seed);
  p.capacity = shard_capacity * o.shards;
  p.tenants = o.tenants;
  p.palette = o.tenants;
  p.zipf_s = o.zipf;
  p.bytes_per_tick = o.bytes_per_tick;
  return make_scenario(o.workload, p);
}

Json results_json(const Options& o, const ShardedEngine& engine,
                  const Sequence& seq, const ShardedRunStats& stats) {
  Json config = Json::object();
  config.set("allocator", o.allocator)
      .set("engine", o.engine)
      .set("arena", o.arena)
      .set("bytes_per_tick", o.bytes_per_tick)
      .set("shards", static_cast<std::uint64_t>(o.shards))
      .set("threads", static_cast<std::uint64_t>(engine.thread_count()))
      .set("eps", o.eps)
      .set("router", o.router)
      .set("workload", seq.name)
      .set("batch", static_cast<std::uint64_t>(o.batch))
      .set("rebalance_threshold", o.rebalance)
      .set("seed", o.seed)
      .set("shard_capacity_log2",
           static_cast<std::uint64_t>(o.capacity_log2))
      .set("validated", o.validate);

  Json global = Json::object();
  global.set("updates", static_cast<std::uint64_t>(stats.global.updates))
      .set("wall_seconds", stats.global.wall_seconds)
      .set("updates_per_second", stats.updates_per_second())
      .set("mean_cost", stats.global.mean_cost())
      .set("ratio_cost", stats.global.ratio_cost())
      .set("max_cost", stats.global.max_cost())
      .set("moved_mass", stats.global.moved_mass)
      .set("update_mass", stats.global.update_mass);
  if (o.arena) {
    global.set("moved_bytes", stats.global.moved_bytes)
        .set("bytes_per_second",
             stats.global.wall_seconds > 0.0
                 ? static_cast<double>(stats.global.moved_bytes) /
                       stats.global.wall_seconds
                 : 0.0);
  }

  Json routing = Json::object();
  routing.set("batches", static_cast<std::uint64_t>(stats.batches))
      .set("fallback_routes",
           static_cast<std::uint64_t>(stats.fallback_routes))
      .set("migrations", static_cast<std::uint64_t>(stats.migrations))
      .set("migrated_mass", stats.migrated_mass)
      .set("imbalance", stats.imbalance())
      .set("max_shard_cost", stats.max_shard_cost())
      .set("median_shard_cost", stats.median_shard_cost());

  Json shards = Json::array();
  for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
    const RunStats& ps = stats.per_shard[s];
    Json row = Json::object();
    row.set("shard", static_cast<std::uint64_t>(s))
        .set("updates", static_cast<std::uint64_t>(ps.updates))
        .set("update_mass", ps.update_mass)
        .set("moved_mass", ps.moved_mass)
        .set("ratio_cost", ps.ratio_cost())
        .set("mean_cost", ps.mean_cost());
    shards.push(std::move(row));
  }

  Json doc = Json::object();
  doc.set("tool", "memreal_shard")
      .set("schema", std::uint64_t{1})
      .set("config", std::move(config))
      .set("global", std::move(global))
      .set("stats", stats.global.to_json())
      .set("routing", std::move(routing))
      .set("shards", std::move(shards));
  return doc;
}

int run(const Options& o) {
  const Tick shard_capacity = Tick{1} << o.capacity_log2;

  ShardedConfig config;
  config.engine = o.engine;
  config.allocator = o.allocator;
  config.arena = o.arena;
  config.bytes_per_tick = o.bytes_per_tick;
  config.verify_payloads = o.verify_payloads;
  config.params.eps = o.eps;
  config.params.seed = o.seed;
  config.shards = o.shards;
  config.shard_capacity = shard_capacity;
  config.eps = o.eps;
  config.router = o.router;
  config.threads = o.threads;
  config.batch_size = o.batch;
  config.rebalance_threshold = o.rebalance;
  config.incremental_validation = o.validate;
  config.audit_every = o.audit_every;
  if (o.metrics_wired()) {
    obs::MetricRegistry::global().reset();
    config.metrics = &obs::MetricRegistry::global();
    config.workload_label = o.workload;
  }

  const Sequence seq = make_workload(o, shard_capacity);
  ShardedEngine engine(config);
  start_trace(o.trace_out);
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();
  if (const int rc = finish_trace(kTool, o.trace_out); rc != 0) return rc;

  if (!o.quiet) {
    Table per_shard({"shard", "updates", "update_mass", "moved_mass",
                     "ratio_cost", "mean_cost"});
    for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
      const RunStats& ps = stats.per_shard[s];
      per_shard.add_row({std::to_string(s), std::to_string(ps.updates),
                         std::to_string(ps.update_mass),
                         std::to_string(ps.moved_mass),
                         Table::num(ps.ratio_cost(), 4),
                         Table::num(ps.mean_cost(), 4)});
    }
    per_shard.print(std::cout);
    std::cout << "imbalance " << Table::num(stats.imbalance(), 3)
              << "  max shard cost " << Table::num(stats.max_shard_cost(), 4)
              << "  median shard cost "
              << Table::num(stats.median_shard_cost(), 4)
              << "  fallback routes " << stats.fallback_routes
              << "  migrations " << stats.migrations << " ("
              << stats.migrated_mass << " ticks)\n";
  }
  std::cout << seq.name << ": " << stats.global.updates << " updates over "
            << o.shards << " shards x " << engine.thread_count()
            << " threads in " << Table::num(stats.global.wall_seconds, 4)
            << " s = " << Table::num(stats.updates_per_second(), 6)
            << " updates/s (mean cost "
            << Table::num(stats.global.mean_cost(), 4) << ", ratio cost "
            << Table::num(stats.global.ratio_cost(), 4) << ")\n";
  if (o.arena) {
    std::cout << "arena: " << stats.global.moved_bytes
              << " bytes physically moved ("
              << Table::num(stats.global.wall_seconds > 0.0
                                ? static_cast<double>(
                                      stats.global.moved_bytes) /
                                      stats.global.wall_seconds
                                : 0.0,
                            6)
              << " bytes/s, granule " << o.bytes_per_tick
              << " bytes/tick)\n";
  }

  if (!o.json_path.empty() &&
      !write_text(kTool, o.json_path,
                  results_json(o, engine, seq, stats).dump(2) + "\n")) {
    return 1;
  }
  return write_metrics_outputs(kTool, obs::MetricRegistry::global(),
                               o.metrics_out, o.prom_out, o.metrics_summary);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const memreal::InvariantViolation& e) {
    std::fprintf(stderr, "memreal_shard: invariant violation: %s\n",
                 e.what());
    return 1;
  }
}
