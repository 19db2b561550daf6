// Command-line plumbing shared by the operational CLIs: usage errors,
// strict number parsing, comma-separated lists, the cell drivers'
// --engine spelling and their output files (--metrics-out / --prom-out /
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
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

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

/// Splits "a,b,c"; empty elements are dropped.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The cell drivers' --engine: "validated" or "release" names the cell
/// store; "arena" is an alias for --arena over the validated store.
inline void parse_engine(const Tool& tool, const char* value,
                         std::string& engine, bool& arena) {
  engine = value;
  if (engine == "arena") {
    engine = "validated";
    arena = true;
  } else if (engine != "validated" && engine != "release") {
    usage_error(tool, "--engine must be 'validated', 'release', or 'arena'");
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
