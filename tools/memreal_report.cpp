// memreal_report — aggregates the BENCH_*.json artifacts the bench
// binaries emit into the reproduction report.
//
// For each claim T0–T9 / T-VAL the tool parses the recorded rows,
// *recomputes* the fits (fit_cost_exponent / fit_cost_log) and applies
// the paper-shape verdict rules (src/report/verdict.cpp).  Outputs are a
// pure function of the artifacts: re-running on the same BENCH files is
// a byte-identical no-op.  Artifacts with a stale schema version are
// rejected with an error naming the file (re-run the bench).
//
// Run with --help for usage.  Exit status 0 = ok, 1 = artifact error or
// --check verdict failure, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "cli.h"
#include "report/bench_data.h"
#include "report/markdown.h"
#include "report/verdict.h"
#include "util/table.h"

namespace {

using namespace memreal;
using namespace memreal::report;
using namespace memreal::cli;

constexpr Tool kTool{"memreal_report"};

constexpr const char* kUsage = R"(memreal_report [options]
  --bench-dir DIR     directory holding BENCH_*.json (default .)
  --report FILE       generated report path (default docs/REPORT.md)
  --experiments FILE  doc whose marker blocks are rewritten in place
                      (default EXPERIMENTS.md)
  --no-report         skip writing the report file
  --no-experiments    skip the EXPERIMENTS.md rewrite
  --check             claim-shape regression gate: exit 1 unless every
                      claim verdict is PASS (missing bench files fail)
  --shard-floor FILE  throughput floor: a BENCH_shard.json from an
                      earlier run; every matching updates/sec point in
                      the current artifact must reach floor-ratio of it
                      (violations fail --check)
  --floor-ratio X     fraction of the floor artifact's rate that must
                      be sustained (default 0.7)
  --quiet             suppress the per-claim summary table
  --help, -h          print this help and exit

Exit status: 0 = ok, 1 = artifact error or --check verdict failure,
2 = usage error.
)";

struct Options {
  std::string bench_dir = ".";
  std::string report_path = "docs/REPORT.md";
  std::string experiments_path = "EXPERIMENTS.md";
  bool write_report = true;
  bool write_experiments = true;
  bool check = false;
  std::string shard_floor_path;
  double floor_ratio = 0.7;
  bool quiet = false;
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
    } else if (flag == "--bench-dir") {
      o.bench_dir = next();
    } else if (flag == "--report") {
      o.report_path = next();
    } else if (flag == "--experiments") {
      o.experiments_path = next();
    } else if (flag == "--no-report") {
      o.write_report = false;
    } else if (flag == "--no-experiments") {
      o.write_experiments = false;
    } else if (flag == "--check") {
      o.check = true;
    } else if (flag == "--shard-floor") {
      o.shard_floor_path = next();
    } else if (flag == "--floor-ratio") {
      o.floor_ratio = parse_double(kTool, flag, next());
      if (o.floor_ratio <= 0.0) {
        usage_error(kTool, "--floor-ratio must be a positive number");
      }
    } else if (flag == "--quiet") {
      o.quiet = true;
    } else {
      usage_error(kTool, "unknown flag '" + flag + "'");
    }
  }
  return o;
}

/// Writes `content` to `path`, creating parent directories.  Skips the
/// write when the file already holds exactly `content` (so a re-run does
/// not even touch mtimes).
bool write_file(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) fs::create_directories(p.parent_path(), ec);
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (buf.str() == content) return true;
    }
  }
  std::ofstream out(path);
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

int run(const Options& o) {
  const BenchSet set = load_bench_dir(o.bench_dir);
  const std::vector<ClaimResult> results = evaluate_claims(set);

  if (!o.quiet) {
    Table t({"claim", "bench", "verdict", "headline"});
    for (const ClaimResult& r : results) {
      t.add_row({r.spec->id, "bench_" + r.spec->bench,
                 status_name(r.status),
                 r.headline.empty() ? "-" : r.headline});
    }
    t.print(std::cout);
    for (const ClaimResult& r : results) {
      if (r.passed()) continue;
      std::cout << r.spec->id << ":\n";
      for (const std::string& line : r.checks) {
        std::cout << "  " << line << "\n";
      }
    }
  }

  if (o.write_report) {
    if (!write_file(o.report_path, render_report(set, results))) {
      std::fprintf(stderr, "memreal_report: cannot write '%s'\n",
                   o.report_path.c_str());
      return 1;
    }
    if (!o.quiet) std::cout << "wrote " << o.report_path << "\n";
  }

  if (o.write_experiments) {
    std::ifstream in(o.experiments_path);
    if (!in) {
      std::fprintf(stderr, "memreal_report: cannot read '%s'\n",
                   o.experiments_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();
    std::map<std::string, std::string> blocks;
    for (const ClaimResult& r : results) {
      blocks[r.spec->id] = render_claim_block(set, r);
    }
    const MarkerRewrite rw = rewrite_marker_blocks(buf.str(), blocks);
    if (!write_file(o.experiments_path, rw.text)) {
      std::fprintf(stderr, "memreal_report: cannot write '%s'\n",
                   o.experiments_path.c_str());
      return 1;
    }
    if (!o.quiet) {
      std::cout << "rewrote " << rw.rewritten.size() << " marker block(s) in "
                << o.experiments_path;
      if (!rw.unmatched.empty()) {
        std::cout << " (no markers for:";
        for (const std::string& id : rw.unmatched) std::cout << " " << id;
        std::cout << ")";
      }
      std::cout << "\n";
    }
  }

  bool floor_ok = true;
  if (!o.shard_floor_path.empty()) {
    const BenchFile baseline = load_bench_file(o.shard_floor_path);
    const FloorResult floor =
        check_throughput_floor(set, baseline, o.floor_ratio);
    floor_ok = floor.ok;
    if (!o.quiet || !floor.ok) {
      std::cout << "throughput floor vs " << o.shard_floor_path << ":\n";
      for (const std::string& line : floor.lines) {
        std::cout << "  " << line << "\n";
      }
    }
  }

  if (o.check) {
    std::size_t failures = 0;
    for (const ClaimResult& r : results) failures += !r.passed();
    if (failures > 0) {
      std::fprintf(stderr,
                   "memreal_report: %zu claim verdict(s) not PASS\n",
                   failures);
      return 1;
    }
    if (!floor_ok) {
      std::fprintf(stderr,
                   "memreal_report: throughput floor violated (see the "
                   "floor lines above)\n");
      return 1;
    }
    std::cout << "all " << results.size() << " claim verdicts PASS\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const ReportError& e) {
    std::fprintf(stderr, "memreal_report: %s\n", e.what());
    return 1;
  } catch (const JsonParseError& e) {
    std::fprintf(stderr, "memreal_report: %s\n", e.what());
    return 1;
  }
}
