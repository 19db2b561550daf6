// memreal_shard — throughput driver for the sharded multi-cell engine.
// Run with --help for usage.  Exit status 0 = clean, 1 = invariant
// violation, 2 = usage error.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <iostream>
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
                     --arena, where 2^N x granule must stay within 2 GiB)
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
  /// The cells plus the batch engine's knobs (threads, router, batch,
  /// rebalance, audit cadence, validation, payload checks).
  ShardedConfig config;
  std::string workload = "churn";
  std::size_t updates = 20'000;
  std::size_t tenants = 8;
  double zipf = 1.0;
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
  ShardedConfig& c = o.config;
  c.allocator = "simple";
  c.shards = 8;
  c.batch_size = 4'096;
  auto tool_flag = [&](const std::string& flag, const auto& next) {
    if (flag == "--no-verify-payloads") {
      c.verify_payloads = false;
    } else if (flag == "--threads") {
      c.threads = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--router") {
      c.router = next();
    } else if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--updates") {
      o.updates = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--tenants") {
      o.tenants = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--zipf") {
      o.zipf = parse_double(kTool, flag, next());
    } else if (flag == "--batch") {
      c.batch_size = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--rebalance") {
      c.rebalance_threshold = parse_double(kTool, flag, next());
    } else if (flag == "--audit-every") {
      c.audit_every = static_cast<std::size_t>(parse_u64(kTool, flag, next()));
    } else if (flag == "--no-validate") {
      c.incremental_validation = false;
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
      return false;
    }
    return true;
  };
  parse_cell_args(argc, argv, kTool, kUsage, c, tool_flag);
  return o;
}

/// Builds the workload from the scenario zoo: item sizes come from the
/// allocator's registered size band over the *shard* capacity; the
/// live-mass budget spans all shards (global capacity = shards *
/// shard_capacity).  An inadmissible pair is a usage error naming the
/// compatible scenarios.
Sequence make_workload(const Options& o) {
  const ShardedConfig& c = o.config;
  const AllocatorInfo info = allocator_info(c.allocator);
  const std::string rejected = scenario_rejection(
      o.workload, info, c.eps, c.shard_capacity, kNoFillCeiling);
  if (!rejected.empty()) usage_error(kTool, rejected);
  ScenarioParams p = scenario_params_for(info, c.eps, c.shard_capacity,
                                         o.updates, c.params.seed);
  p.capacity = c.shard_capacity * c.shards;
  p.tenants = o.tenants;
  p.palette = o.tenants;
  p.zipf_s = o.zipf;
  p.bytes_per_tick = c.bytes_per_tick;
  return make_scenario(o.workload, p);
}

Json results_json(const Options& o, const ShardedEngine& engine,
                  const Sequence& seq, const ShardedRunStats& stats) {
  const ShardedConfig& c = o.config;
  Json config = Json::object();
  config.set("allocator", c.allocator)
      .set("engine", c.engine)
      .set("arena", c.arena)
      .set("bytes_per_tick", c.bytes_per_tick)
      .set("shards", static_cast<std::uint64_t>(c.shards))
      .set("threads", static_cast<std::uint64_t>(engine.thread_count()))
      .set("eps", c.eps)
      .set("router", c.router)
      .set("workload", seq.name)
      .set("batch", static_cast<std::uint64_t>(c.batch_size))
      .set("rebalance_threshold", c.rebalance_threshold)
      .set("seed", c.params.seed)
      .set("shard_capacity_log2",
           static_cast<std::uint64_t>(std::countr_zero(c.shard_capacity)))
      .set("validated", c.incremental_validation);

  Json global = Json::object();
  global.set("updates", static_cast<std::uint64_t>(stats.global.updates))
      .set("wall_seconds", stats.global.wall_seconds)
      .set("updates_per_second", stats.updates_per_second())
      .set("mean_cost", stats.global.mean_cost())
      .set("ratio_cost", stats.global.ratio_cost())
      .set("max_cost", stats.global.max_cost())
      .set("moved_mass", stats.global.moved_mass)
      .set("update_mass", stats.global.update_mass);
  if (c.arena) {
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
  ShardedConfig config = o.config;
  if (o.metrics_wired()) {
    obs::MetricRegistry::global().reset();
    config.metrics = &obs::MetricRegistry::global();
    config.workload_label = o.workload;
  }

  const Sequence seq = make_workload(o);
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
            << config.shards << " shards x " << engine.thread_count()
            << " threads in " << Table::num(stats.global.wall_seconds, 4)
            << " s = " << Table::num(stats.updates_per_second(), 6)
            << " updates/s (mean cost "
            << Table::num(stats.global.mean_cost(), 4) << ", ratio cost "
            << Table::num(stats.global.ratio_cost(), 4) << ")\n";
  if (config.arena) {
    std::cout << "arena: " << stats.global.moved_bytes
              << " bytes physically moved ("
              << Table::num(stats.global.wall_seconds > 0.0
                                ? static_cast<double>(
                                      stats.global.moved_bytes) /
                                      stats.global.wall_seconds
                                : 0.0,
                            6)
              << " bytes/s, granule " << config.bytes_per_tick
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
