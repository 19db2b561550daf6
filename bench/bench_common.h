// Shared scaffolding for the experiment binaries.
//
// Each bench binary prints its paper-shaped experiment table(s) first (the
// reproduction artifact recorded in EXPERIMENTS.md), then runs a small
// google-benchmark section for wall-clock throughput of the same
// allocators.  `MEMREAL_FAST=1` in the environment shrinks the sweeps
// (useful for smoke runs).
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <string>

#include "core/engine.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "mem/memory.h"
#include "report/bench_data.h"
#include "util/json.h"
#include "util/table.h"

namespace memreal::bench {

// The one BENCH_*.json writer lives next to its reader.
using report::BenchJson;
using report::fast_mode;

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n==================================================\n"
            << id << "\n" << claim << "\n"
            << "==================================================\n";
}

inline void print_fit(const std::string& label, const PowerLawFit& fit) {
  std::cout << label << ": cost ~ (1/eps)^" << Table::num(fit.exponent, 3)
            << "  (r^2 = " << Table::num(fit.r2, 3) << ")\n";
}

inline void print_fit(const std::string& label, const LinearFit& fit) {
  std::cout << label << ": cost ~ " << Table::num(fit.intercept, 3) << " + "
            << Table::num(fit.slope, 3) << " * log2(1/eps)  (r^2 = "
            << Table::num(fit.r2, 3) << ")\n";
}

/// One measured series of a paper claim: names the claim (the report's
/// key), the series (unique within the bench), and which fit model the
/// rows are meant to reproduce ("power", "log", "both" or "none").
struct SeriesSpec {
  std::string claim;
  std::string series;
  std::string allocator;
  std::string workload;
  std::string fit = "power";
};

/// The single path every eps-sweep series goes through: prints the rows
/// table plus the requested fit(s) and appends the schema-2 `eps_sweep`
/// record to the artifact, so the human tables and the machine-readable
/// fit inputs cannot drift apart.
inline void emit_eps_series(BenchJson& artifact, const SeriesSpec& spec,
                            const std::vector<EpsRow>& rows) {
  std::cout << "\nWorkload: " << spec.workload << "\n";
  rows_table(spec.allocator, rows).print(std::cout);
  if (spec.fit == "power" || spec.fit == "both") {
    print_fit(spec.allocator, fit_cost_exponent(rows));
  }
  if (spec.fit == "log" || spec.fit == "both") {
    print_fit(spec.allocator + " (log model)", fit_cost_log(rows));
  }
  Json rec = Json::object();
  rec.set("kind", "eps_sweep")
      .set("claim", spec.claim)
      .set("series", spec.series)
      .set("allocator", spec.allocator)
      .set("workload", spec.workload)
      .set("fit", spec.fit)
      .set("rows", eps_rows_json(rows));
  artifact.add(std::move(rec));
}

/// Registry allocator names as JSON row keys ("folklore-compact" ->
/// "folklore_compact") — the report's verdict rules look rows up by
/// these keys.
inline std::string json_key(std::string name) {
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

/// Starts a non-eps-sweep record (`kind` in {bound_check, success_rate,
/// lb_floor, ablation, flat_check, validation_speedup, shard_scaling,
/// info}); the caller fills `rows` with flat objects sharing one key set.
inline Json series_record(const std::string& kind, const std::string& claim,
                          const std::string& series) {
  Json rec = Json::object();
  rec.set("kind", kind).set("claim", claim).set("series", series);
  return rec;
}

/// Registers a google-benchmark measuring updates/second of `allocator` on
/// the sequence produced by `make_seq(eps, seed)`.
inline void register_throughput(const std::string& name,
                                const std::string& allocator, double eps,
                                SequenceFactory make_seq,
                                double delta = 0.0) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [allocator, eps, make_seq, delta](benchmark::State& state) {
        const Sequence seq = make_seq(eps, 1);
        for (auto _ : state) {
          ValidationPolicy policy;
          policy.incremental = false;  // pure allocator throughput
          Memory mem(seq.capacity, seq.eps_ticks, policy);
          AllocatorParams params;
          params.eps = eps;
          params.delta = delta;
          params.seed = 1;
          auto alloc = make_allocator(allocator, mem, params);
          Engine engine(mem, *alloc);
          const RunStats stats = engine.run(seq.updates);
          benchmark::DoNotOptimize(stats.moved_mass);
          state.counters["mean_cost"] = stats.mean_cost();
          state.counters["updates"] =
              static_cast<double>(stats.updates);
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() *
                                      seq.updates.size()));
      });
}

}  // namespace memreal::bench
