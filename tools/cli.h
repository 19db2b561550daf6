// Command-line plumbing shared by the operational CLIs: usage errors,
// strict number parsing, comma-separated lists, the --capacity-log2 and
// --eps value checks, the cell drivers' shared flags (parsed once into a
// ShardedConfig) and their output files (--metrics-out / --prom-out /
// --metrics-summary and --trace-out).  A usage error prints one line to
// stderr and exits with status 2; an output file that cannot be written
// prints one line and makes the tool exit 1.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arena/arena_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sharded_engine.h"

namespace memreal::cli {

/// The tool a usage error names, and where its message sends the user.
struct Tool {
  const char* name;
  const char* usage_hint = "run with --help for usage";
};

/// Prints "<tool>: <what> (<usage hint>)" to stderr and exits with 2.
[[noreturn]] inline void usage_error(const Tool& tool,
                                     const std::string& what) {
  std::fprintf(stderr, "%s: %s (%s)\n", tool.name, what.c_str(),
               tool.usage_hint);
  std::exit(2);
}

[[noreturn]] inline void bad_value(const Tool& tool, const std::string& flag,
                                   const char* value) {
  usage_error(tool, "bad value '" + std::string(value) + "' for " + flag);
}

/// A base-10 unsigned integer spelling all of `value`.  The first
/// character must be a digit: strtoull would skip leading whitespace and
/// wrap a negative to 2^64 - 1.  Values past 2^64 - 1 are rejected, not
/// clamped.
inline std::uint64_t parse_u64(const Tool& tool, const std::string& flag,
                               const char* value) {
  if (!std::isdigit(static_cast<unsigned char>(value[0]))) {
    bad_value(tool, flag, value);
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(value, &end, 10);
  if (*end != '\0' || errno == ERANGE) bad_value(tool, flag, value);
  return v;
}

/// A finite number spelling all of `value` (no leading whitespace; inf,
/// nan and overflowing literals are rejected).
inline double parse_double(const Tool& tool, const std::string& flag,
                           const char* value) {
  if (value[0] == '\0' || std::isspace(static_cast<unsigned char>(value[0]))) {
    bad_value(tool, flag, value);
  }
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (*end != '\0' || !std::isfinite(v)) bad_value(tool, flag, value);
  return v;
}

/// Splits the list "a,b,c" given to `flag`.  An empty element ("a,,b",
/// a leading or trailing comma, or an empty list) is a usage error naming
/// the whole list, never silently dropped.
inline std::vector<std::string> split_csv(const Tool& tool,
                                          const std::string& flag,
                                          const char* value) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (cur.empty()) bad_value(tool, flag, value);
      out.push_back(std::move(cur));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

/// --capacity-log2's value check: N in [10, max_log2].
inline void check_capacity_log2(const Tool& tool, std::uint64_t log2,
                                unsigned max_log2) {
  if (log2 < 10 || log2 > max_log2) {
    usage_error(tool, "--capacity-log2 must be in [10, " +
                          std::to_string(max_log2) + "]");
  }
}

/// --eps's value check: eps in (0, 1).
inline void check_eps(const Tool& tool, double eps) {
  if (eps <= 0.0 || eps >= 1.0) usage_error(tool, "--eps must be in (0, 1)");
}

/// Walks a cell driver's command line (memreal_shard, memreal_serve).
/// --help / -h prints `usage` and exits 0.  The cell flags (--allocator
/// --engine --arena --bytes-per-tick --shards --eps --seed
/// --capacity-log2) go straight into `config`; one --eps sets both the
/// allocators' eps and the cells' budget.  Every other flag goes to
/// `tool_flag(flag, next)`, which returns false for one it does not know.
/// The cell is then checked once; each failure is a usage error.
template <class ToolFlag>
void parse_cell_args(int argc, char** argv, const Tool& tool,
                     const char* usage, ShardedConfig& config,
                     const ToolFlag& tool_flag) {
  std::optional<std::uint64_t> capacity_log2;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(tool, "missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::fputs(usage, stdout);
      std::exit(0);
    } else if (flag == "--allocator") {
      config.allocator = next();
    } else if (flag == "--engine") {
      config.engine = next();
      if (config.engine == "arena") {
        config.engine = "validated";
        config.arena = true;
      } else if (config.engine != "validated" && config.engine != "release") {
        usage_error(tool,
                    "--engine must be 'validated', 'release', or 'arena'");
      }
    } else if (flag == "--arena") {
      config.arena = true;
    } else if (flag == "--bytes-per-tick") {
      config.bytes_per_tick = parse_u64(tool, flag, next());
    } else if (flag == "--shards") {
      config.shards = static_cast<std::size_t>(parse_u64(tool, flag, next()));
    } else if (flag == "--eps") {
      config.eps = config.params.eps = parse_double(tool, flag, next());
    } else if (flag == "--seed") {
      config.params.seed = parse_u64(tool, flag, next());
    } else if (flag == "--capacity-log2") {
      capacity_log2 = parse_u64(tool, flag, next());
    } else if (!tool_flag(flag, next)) {
      usage_error(tool, "unknown flag '" + flag + "'");
    }
  }

  if (config.shards == 0) usage_error(tool, "--shards must be >= 1");
  if (config.bytes_per_tick == 0) {
    usage_error(tool, "--bytes-per-tick must be >= 1");
  }
  check_eps(tool, config.eps);
  // An arena shard carries a real byte payload per tick; the tick-only
  // default capacity would ask for terabytes of physical arena.
  const std::uint64_t log2 = capacity_log2.value_or(config.arena ? 22 : 40);
  check_capacity_log2(tool, log2, 50);
  config.shard_capacity = Tick{1} << log2;
  // The global workload spans shards * 2^capacity-log2 ticks.
  if (config.shards > (std::numeric_limits<Tick>::max() >> log2)) {
    usage_error(tool, "--shards x 2^capacity-log2 overflows the tick space");
  }
  const std::uint64_t max_arena_bytes = ArenaOptions{}.max_arena_bytes;
  if (config.arena &&
      config.shard_capacity > max_arena_bytes / config.bytes_per_tick) {
    std::ostringstream what;
    what << "--arena: a shard of 2^" << log2 << " ticks at "
         << config.bytes_per_tick << " bytes per tick passes the "
         << "max_arena_bytes cap of " << max_arena_bytes
         << " bytes; lower --capacity-log2 or --bytes-per-tick";
    usage_error(tool, what.str());
  }
}

/// Writes `text` to `path`; on failure prints "<tool>: cannot write
/// '<path>'" to stderr and returns false.
inline bool write_text(const Tool& tool, const std::string& path,
                       const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", tool.name, path.c_str());
    return false;
  }
  return true;
}

/// --metrics-out / --prom-out / --metrics-summary: the final registry
/// snapshot (JSON), its Prometheus dump (each skipped when empty) and the
/// summary table.  Returns the tool's exit status (1 = a write failed).
inline int write_metrics_outputs(const Tool& tool,
                                 const obs::MetricRegistry& reg,
                                 const std::string& metrics_out,
                                 const std::string& prom_out, bool summary) {
  if (!metrics_out.empty() &&
      !write_text(tool, metrics_out, reg.snapshot_json().dump(2) + "\n")) {
    return 1;
  }
  if (!prom_out.empty() &&
      !write_text(tool, prom_out, reg.prometheus_text())) {
    return 1;
  }
  if (summary) std::cout << "metrics summary:\n" << reg.summary_table();
  return 0;
}

/// --trace-out: arms the global wall-clock trace session when `path` is
/// non-empty; every span recorded until finish_trace lands in the file.
inline void start_trace(const std::string& path) {
  if (!path.empty()) {
    obs::TraceSession::global().start(obs::TraceSession::Clock::kWall);
  }
}

/// Disarms the session and writes its Chrome trace_event JSON to `path`
/// (a no-op when empty).  Call once every recording thread has quiesced.
/// Returns the tool's exit status, like write_metrics_outputs.
inline int finish_trace(const Tool& tool, const std::string& path) {
  if (path.empty()) return 0;
  obs::TraceSession& trace = obs::TraceSession::global();
  trace.stop();
  if (!write_text(tool, path, trace.chrome_json() + "\n")) return 1;
  std::cout << "trace: " << trace.event_count() << " spans ("
            << trace.dropped() << " overwritten) -> " << path << "\n";
  trace.clear();
  return 0;
}

}  // namespace memreal::cli
