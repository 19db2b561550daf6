#include "report/markdown.h"

#include <cmath>

#include "harness/experiment.h"
#include "util/table.h"

namespace memreal::report {

namespace {

std::string num(double v, int digits = 4) { return Table::num(v, digits); }

std::string cell(const Json& v) {
  if (v.is_uint()) return std::to_string(v.as_u64());
  if (v.is_number()) return num(v.as_double());
  if (v.is_string()) return v.as_string();
  if (v.is_bool()) return v.as_bool() ? "yes" : "no";
  if (v.is_null()) return "—";
  return v.dump();
}

void md_row(std::string& out, const std::vector<std::string>& cells) {
  out += "|";
  for (const std::string& c : cells) out += " " + c + " |";
  out += "\n";
}

void md_header(std::string& out, const std::vector<std::string>& cells) {
  md_row(out, cells);
  out += "|";
  for (std::size_t i = 0; i < cells.size(); ++i) out += "---|";
  out += "\n";
}

/// Generic table for rows of flat objects: columns are the keys of the
/// rows in first-appearance order.
std::string generic_rows_table(const Json& rows) {
  std::vector<std::string> columns;
  for (const auto& [key, row] : rows.items()) {
    (void)key;
    for (const auto& [col, value] : row.items()) {
      (void)value;
      bool known = false;
      for (const std::string& c : columns) known |= c == col;
      if (!known) columns.push_back(col);
    }
  }
  std::string out;
  md_header(out, columns);
  for (const auto& [key, row] : rows.items()) {
    (void)key;
    std::vector<std::string> cells;
    for (const std::string& col : columns) {
      const Json* v = row.find(col);
      cells.push_back(v == nullptr ? "" : cell(*v));
    }
    md_row(out, cells);
  }
  return out;
}

/// The fixed-column table for eps_sweep rows (wall-µs stays in the JSON
/// only — it is machine noise, not a reproduction artifact).
std::string eps_sweep_table(const std::vector<EpsRow>& rows) {
  std::string out;
  md_header(out, {"eps", "1/eps", "updates", "mean_cost", "±sd",
                  "ratio_cost", "p99", "max", "decide_µs"});
  for (const EpsRow& r : rows) {
    md_row(out, {num(r.eps), num(1.0 / r.eps, 5), std::to_string(r.updates),
                 num(r.mean_cost), num(r.mean_cost_stddev, 2),
                 num(r.ratio_cost), num(r.p99_cost), num(r.max_cost),
                 num(r.decision_us_per_update, 3)});
  }
  return out;
}

std::string fit_lines(const std::string& fit_kind,
                      const std::vector<EpsRow>& rows) {
  std::string out;
  if (rows.size() < 2) return out;
  if (fit_kind == "power" || fit_kind == "both") {
    const PowerLawFit f = fit_cost_exponent(rows);
    out += "Fit: cost ~ (1/eps)^" + num(f.exponent, 3) + " (r² " +
           num(f.r2, 3) + ")\n";
  }
  if (fit_kind == "log" || fit_kind == "both") {
    const LinearFit f = fit_cost_log(rows);
    out += "Fit: cost ~ " + num(f.intercept, 3) + " + " + num(f.slope, 3) +
           "·log2(1/eps) (r² " + num(f.r2, 3) + ")\n";
  }
  return out;
}

std::string seeds_list(const std::vector<std::uint64_t>& seeds) {
  std::string out = "[";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(seeds[i]);
  }
  return out + "]";
}

std::string record_section(const Json& rec) {
  std::string out;
  const Json* series = rec.find("series");
  const Json* allocator = rec.find("allocator");
  const Json* workload = rec.find("workload");
  out.append("**")
      .append(series != nullptr ? series->as_string() : "?")
      .append("**");
  if (allocator != nullptr) out += " — `" + allocator->as_string() + "`";
  if (workload != nullptr) out += " on " + workload->as_string();
  out += ":\n\n";
  const Json& rows = rec.at("rows");
  const Json* kind = rec.find("kind");
  if (kind != nullptr && kind->as_string() == "eps_sweep") {
    const std::vector<EpsRow> eps_rows = eps_rows_from_json(rows);
    out += eps_sweep_table(eps_rows);
    const Json* fit = rec.find("fit");
    if (fit != nullptr && fit->as_string() != "none") {
      out.append("\n").append(fit_lines(fit->as_string(), eps_rows));
    }
  } else {
    out += generic_rows_table(rows);
  }
  return out;
}

}  // namespace

std::string begin_marker(const std::string& claim_id) {
  return "<!-- memreal_report:begin " + claim_id + " -->";
}

std::string end_marker(const std::string& claim_id) {
  return "<!-- memreal_report:end " + claim_id + " -->";
}

std::string render_claim_block(const BenchSet& set,
                               const ClaimResult& result) {
  std::string out;
  out += "**Verdict: " + status_name(result.status) + "**";
  if (!result.headline.empty()) out += " — " + result.headline;
  out += "\n";

  const BenchFile* file = set.find(result.spec->bench);
  if (file != nullptr) {
    out += "\nSource: `BENCH_" + file->bench + ".json` · git `" +
           file->git_describe + "` · " +
           (file->fast_mode ? "fast (shrunk) sweeps" : "full sweeps") +
           " · seeds " + seeds_list(file->seeds) + "\n";
    for (const Json* rec : file->records()) {
      const Json* claim = rec->find("claim");
      if (claim == nullptr || !claim->is_string() ||
          claim->as_string() != result.spec->id) {
        continue;
      }
      out.append("\n").append(record_section(*rec));
    }
  }

  if (!result.checks.empty()) {
    out += "\nChecks:\n";
    for (const std::string& line : result.checks) out += "- " + line + "\n";
  }
  return out;
}

std::string render_report(const BenchSet& set,
                          const std::vector<ClaimResult>& rs) {
  std::string out;
  out +=
      "# Reproduction report\n"
      "\n"
      "Generated by `memreal_report` from the `BENCH_*.json` artifacts the\n"
      "bench binaries emit — do not edit by hand.  Regenerate with:\n"
      "\n"
      "```sh\n"
      "for b in build/bench/bench_*; do MEMREAL_FAST=1 \"$b\"; done\n"
      "MEMREAL_FAST=1 ./build/tools/memreal_serve --quiet\n"
      "./build/tools/memreal_report --check\n"
      "```\n"
      "\n"
      "Fits are recomputed from the recorded rows by this tool\n"
      "(`fit_cost_exponent` / `fit_cost_log`); drop `MEMREAL_FAST=1` for\n"
      "the full sweeps (minutes instead of seconds, tighter fits).\n";

  out += "\n## Claim verdicts\n\n";
  md_header(out, {"claim", "paper locus", "bench", "verdict", "headline"});
  for (const ClaimResult& r : rs) {
    md_row(out, {r.spec->id, r.spec->paper, "`bench_" + r.spec->bench + "`",
                 status_name(r.status),
                 r.headline.empty() ? "—" : r.headline});
  }

  out += "\n## Provenance\n\n";
  md_header(out, {"artifact", "git", "mode", "seeds", "records"});
  for (const auto& [bench, file] : set.by_bench) {
    (void)bench;
    md_row(out, {"`BENCH_" + file.bench + ".json`",
                 "`" + file.git_describe + "`",
                 file.fast_mode ? "fast" : "full", seeds_list(file.seeds),
                 std::to_string(file.records().size())});
  }

  for (const ClaimResult& r : rs) {
    out += "\n## " + r.spec->id + " — " + r.spec->title + " (`bench_" +
           r.spec->bench + "`)\n\n";
    out += "**Claim (" + r.spec->paper + "):** " + r.spec->claim + ".\n\n";
    out += render_claim_block(set, r);
  }
  return out;
}

MarkerRewrite rewrite_marker_blocks(
    const std::string& text,
    const std::map<std::string, std::string>& blocks) {
  MarkerRewrite out;
  out.text = text;
  for (const auto& [id, block] : blocks) {
    const std::string begin = begin_marker(id);
    const std::string end = end_marker(id);
    const std::size_t b = out.text.find(begin);
    if (b == std::string::npos) {
      out.unmatched.push_back(id);
      continue;
    }
    const std::size_t content_start = b + begin.size();
    const std::size_t e = out.text.find(end, content_start);
    if (e == std::string::npos) {
      throw ReportError("marker " + begin + " has no matching " + end);
    }
    out.text = out.text.substr(0, content_start) + "\n" + block +
               out.text.substr(e);
    out.rewritten.push_back(id);
  }
  return out;
}

}  // namespace memreal::report
