// memreal_adv — adversarial performance search over the allocator
// registry: maximize realized cost ratio against the lower-bound floor,
// seeded from the scenario zoo.  Run with --help for usage.  Exit
// status: 0 = clean, 1 = replay regression or --min-gain not met,
// 2 = usage error.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "cli.h"
#include "perfadv/campaign.h"
#include "perfadv/search.h"
#include "perfadv/zoo.h"
#include "util/check.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace memreal;
using namespace memreal::cli;

constexpr Tool kTool{"memreal_adv"};

constexpr const char* kUsage = R"(memreal_adv [options]
  --seed N           campaign seed (default 1)
  --iters N          mutation evaluations per allocator (default 300)
  --updates N        churn budget for zoo seed sequences (default 300)
  --allocators a,b   comma-separated registry names (default: all fuzz
                     targets)
  --scenarios a,b    zoo scenarios to seed from (default: every scenario
                     compatible with the target allocator; a named
                     incompatible scenario is an error listing the
                     compatible set)
  --engine E         evaluation engine: "release" (default, cost-bit-
                     identical and ~10x faster) or "validated"
  --eps X            override the per-allocator default eps
  --capacity-log2 N  memory capacity 2^N ticks (default 40)
  --max-edits N      mutator edits per mutant (default 4)
  --threads N        worker threads (default: all cores)
  --no-shrink        keep the found adversary unminimized
  --shrink-checks N  predicate-evaluation ceiling per shrink (default 1500)
  --corpus DIR       persist shrunk adversaries under DIR as replayable
                     perf-ratio traces (default: don't persist)
  --replay DIR       replay a perf-ratio corpus instead of searching;
                     exits 1 if any replayed ratio regressed
  --retain X         replay pass bar: replayed >= X * recorded (default
                     0.99)
  --min-gain X       exit 1 unless every allocator's found ratio beats
                     its zoo baseline by at least X (CI smoke)
  --list-scenarios   print the scenario zoo (with per-allocator
                     compatibility) and exit
  --json             emit results as JSON instead of a table
  --quiet            suppress the progress banner

Determinism: every result is a pure function of (--seed, allocator name,
search shape flags); thread count only changes the wall clock, and a
single-allocator run reproduces that allocator's campaign member
bit-exactly.
)";

void print_scenarios(const AdvCampaignConfig& cfg) {
  std::vector<std::string> names = cfg.allocators;
  if (names.empty()) {
    for (const AllocatorInfo& info : allocator_infos()) {
      if (info.fuzz_default) names.push_back(info.name);
    }
  }
  for (const ScenarioInfo& s : scenario_infos()) {
    std::printf("%-18s %s\n", s.name.c_str(), s.summary.c_str());
  }
  std::printf("\n");
  Table t({"allocator", "eps", "compatible scenarios"});
  for (const std::string& name : names) {
    const AllocatorInfo info = allocator_info(name);
    const double eps =
        adv_search_eps(info, cfg.base.eps, cfg.base.capacity);
    std::string compat;
    for (const std::string& s :
         compatible_scenarios(info, eps, cfg.base.capacity)) {
      if (!compat.empty()) compat += ",";
      compat += s;
    }
    t.add_row({name, Table::num(eps, 5), compat});
  }
  t.print(std::cout);
}

int run_replay(const std::string& dir, double retain, bool json) {
  const std::vector<AdvReplay> replays = replay_adversaries(dir, retain);
  bool all_ok = true;
  if (json) {
    Json arr = Json::array();
    for (const AdvReplay& r : replays) {
      arr.push(Json::object()
                   .set("path", r.path)
                   .set("allocator", r.allocator)
                   .set("engine", r.engine)
                   .set("recorded_ratio", r.recorded_ratio)
                   .set("replayed_ratio", r.replayed_ratio)
                   .set("budget_ceiling", r.budget_ceiling)
                   .set("ok", r.ok));
      all_ok = all_ok && r.ok;
    }
    std::printf("%s\n", arr.dump(2).c_str());
  } else {
    Table t({"trace", "allocator", "engine", "recorded", "replayed", "ok"});
    for (const AdvReplay& r : replays) {
      t.add_row({r.path, r.allocator, r.engine, Table::num(r.recorded_ratio, 4),
                 Table::num(r.replayed_ratio, 4), r.ok ? "yes" : "NO"});
      all_ok = all_ok && r.ok;
    }
    t.print(std::cout);
    std::printf("memreal_adv replay: %zu adversaries, %s\n", replays.size(),
                all_ok ? "all ratios held" : "RATIO REGRESSION");
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  AdvCampaignConfig cfg;
  bool list_scenarios = false;
  bool json = false;
  bool quiet = false;
  double retain = 0.99;
  double min_gain = 0;
  std::string replay_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(kTool, "missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (flag == "--seed") {
      cfg.base.seed = parse_u64(kTool, flag, value());
    } else if (flag == "--iters") {
      cfg.base.iterations =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--updates") {
      cfg.base.updates =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--allocators") {
      cfg.allocators = split_csv(value());
    } else if (flag == "--scenarios") {
      cfg.base.scenarios = split_csv(value());
    } else if (flag == "--engine") {
      cfg.base.engine = value();
      if (cfg.base.engine != "release" && cfg.base.engine != "validated") {
        usage_error(kTool, "--engine must be 'release' or 'validated'");
      }
    } else if (flag == "--eps") {
      cfg.base.eps = parse_double(kTool, flag, value());
      if (cfg.base.eps <= 0 || cfg.base.eps >= 1) {
        usage_error(kTool, "--eps must be in (0, 1)");
      }
    } else if (flag == "--capacity-log2") {
      const std::uint64_t log2 = parse_u64(kTool, flag, value());
      if (log2 < 10 || log2 > 62) {
        usage_error(kTool, "--capacity-log2 out of range");
      }
      cfg.base.capacity = Tick{1} << log2;
    } else if (flag == "--max-edits") {
      cfg.base.max_edits =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--threads") {
      cfg.threads = static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--no-shrink") {
      cfg.base.shrink = false;
    } else if (flag == "--shrink-checks") {
      cfg.base.max_shrink_checks =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--corpus") {
      cfg.corpus_dir = value();
    } else if (flag == "--replay") {
      replay_dir = value();
    } else if (flag == "--retain") {
      retain = parse_double(kTool, flag, value());
    } else if (flag == "--min-gain") {
      min_gain = parse_double(kTool, flag, value());
    } else if (flag == "--list-scenarios") {
      list_scenarios = true;
    } else if (flag == "--json") {
      json = true;
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      usage_error(kTool, "unknown flag '" + flag + "'");
    }
  }

  try {
    if (list_scenarios) {
      print_scenarios(cfg);
      return 0;
    }
    if (!replay_dir.empty()) return run_replay(replay_dir, retain, json);

    if (!quiet && !json) {
      std::printf("memreal_adv: seed=%llu iters=%zu updates=%zu engine=%s "
                  "capacity=2^%d threads=%zu\n",
                  static_cast<unsigned long long>(cfg.base.seed),
                  cfg.base.iterations, cfg.base.updates,
                  cfg.base.engine.c_str(), std::countr_zero(cfg.base.capacity),
                  cfg.threads);
    }
    const AdvCampaign campaign = run_adv_campaign(cfg);

    bool gain_ok = true;
    if (json) {
      Json arr = Json::array();
      for (std::size_t i = 0; i < campaign.results.size(); ++i) {
        const AdvResult& r = campaign.results[i];
        gain_ok = gain_ok && (min_gain <= 0 || r.gain() >= min_gain);
        Json row = Json::object()
                       .set("allocator", r.allocator)
                       .set("engine", r.engine)
                       .set("eps", r.eps)
                       .set("seed", r.seed)
                       .set("baseline_scenario", r.baseline_scenario)
                       .set("baseline_ratio", r.baseline_ratio)
                       .set("found_ratio", r.found_ratio)
                       .set("gain", r.gain())
                       .set("shrunk_ratio", r.shrunk_ratio)
                       .set("original_updates",
                            static_cast<std::uint64_t>(r.original_updates))
                       .set("shrunk_updates",
                            static_cast<std::uint64_t>(r.shrunk_updates))
                       .set("evaluations",
                            static_cast<std::uint64_t>(r.evaluations))
                       .set("budget_ceiling", r.budget_ceiling);
        if (!campaign.corpus_paths[i].empty()) {
          row.set("corpus", campaign.corpus_paths[i]);
        }
        arr.push(std::move(row));
      }
      std::printf("%s\n", arr.dump(2).c_str());
    } else {
      Table t({"allocator", "eps", "baseline (scenario)", "found", "gain",
               "shrunk", "updates", "budget"});
      for (std::size_t i = 0; i < campaign.results.size(); ++i) {
        const AdvResult& r = campaign.results[i];
        gain_ok = gain_ok && (min_gain <= 0 || r.gain() >= min_gain);
        t.add_row({r.allocator, Table::num(r.eps, 5),
                   Table::num(r.baseline_ratio, 3) + " (" +
                       r.baseline_scenario + ")",
                   Table::num(r.found_ratio, 3),
                   Table::num(r.gain(), 2) + "x",
                   Table::num(r.shrunk_ratio, 3),
                   std::to_string(r.original_updates) + " -> " +
                       std::to_string(r.shrunk_updates),
                   Table::num(r.budget_ceiling, 1)});
      }
      t.print(std::cout);
      for (std::size_t i = 0; i < campaign.corpus_paths.size(); ++i) {
        if (!campaign.corpus_paths[i].empty()) {
          std::printf("corpus: %s\n", campaign.corpus_paths[i].c_str());
        }
      }
      if (min_gain > 0 && !gain_ok) {
        std::printf("memreal_adv: FAIL — some allocator missed --min-gain "
                    "%.2f\n",
                    min_gain);
      }
    }
    return min_gain > 0 && !gain_ok ? 1 : 0;
  } catch (const InvariantViolation& e) {
    std::fprintf(stderr, "memreal_adv: %s\n", e.what());
    return 2;
  }
}
