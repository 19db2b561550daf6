// perfbench: one benchmark run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// Prints one line per metric (name, value, unit, sample count) and, last,
// one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, measured by timing calls into each layer from the
// benchmark's own code.  Layers a workload does not run report 0.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct Declared {
  const char* name;
  const char* unit;
};

constexpr Declared kEndToEnd[] = {
    {"updates_per_s", "1/s"}, {"update_p50_us", "us"},
    {"update_p90_us", "us"},  {"update_p99_us", "us"},
    {"read_p50_ns", "ns"},    {"mean_cost", "L/k"},
    {"ratio_cost", "L/k"},    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr Declared kPerLayer[] = {
    {"workload.gen_s", "s"},
    {"cell.fill_s", "s"},
    {"alloc.self_us_per_update", "us"},
    {"alloc.store_calls_per_update", "count"},
    {"release.store_us_per_update", "us"},
    {"release.moves_per_update", "count"},
    {"release.order_breaking_moves_per_update", "count"},
    {"release.ordered_queries_per_update", "count"},
    {"mem.validated_us_per_update", "us"},
    {"release.speedup_vs_validated", "x"},
    {"arena.self_us_per_update", "us"},
    {"arena.bytes_moved_per_update", "B"},
    {"arena.copy_gbps", "GB/s"},
    {"shard.route_ns_per_update", "ns"},
    {"shard.fallback_routes", "count"},
    {"shard.batch_updates_per_s", "1/s"},
    {"serve.submit_us", "us"},
    {"serve.wait_us", "us"},
    {"serve.apply_us", "us"},
    {"serve.served_over_batch", "ratio"},
    {"serve.ctx_switches_per_update", "count"},
    {"serve.sys_cpu_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload cell_combined|serve_rw|"
               "arena_vm_heap --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Orders the workload's metrics as declared; layers the workload does not
/// run are reported as 0 with no samples.
std::vector<Metric> declared_order(const Result& r, bool trace) {
  std::vector<Metric> out;
  const auto emit = [&](const Declared& d) {
    for (const Metric& m : r.metrics) {
      if (m.name == d.name) {
        out.push_back(m);
        return;
      }
    }
    out.push_back({d.name, d.unit, 0.0, 0});
  };
  if (trace) {
    for (const Declared& d : kPerLayer) emit(d);
  } else {
    for (const Declared& d : kEndToEnd) emit(d);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Every round frees its engine and builds a new one.  Keeping freed
  // memory in the heap (no mmap per large block, no trim) lets the next
  // round reuse it instead of faulting fresh pages in: page faults made up
  // ~30% of arena_vm_heap's set-up and swung with the host's load.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Result r;
  try {
    if (o.workload == "serve_rw") {
      r = perfbench::run_serve_workload(o);
    } else if (o.workload == "cell_combined" ||
               o.workload == "arena_vm_heap") {
      r = perfbench::run_cell_workload(o);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "  %s\n", f.c_str());
    }
    return 1;
  }
  const std::vector<Metric> metrics = declared_order(r, o.trace);
  std::printf("%-42s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-42s %16.6g %-6s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
