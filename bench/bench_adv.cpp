// Adversarial-search experiment: run the memreal_adv campaign (scenario-
// zoo seeding, mutation hill climb, cost-preserving shrink) against the
// registry and record, per allocator, the worst realized cost ratio the
// search found against the lower-bound floor.
//
// One series under claim T-ADV:
//   adv-ratio — per-allocator best zoo baseline, found ratio after the
//     guided search, search gain, and the shrunk reproducer's retained
//     ratio, next to the allocator's CostBudget ceiling.  The claim holds
//     when every found ratio stays under its ceiling (the paper bounds
//     survive guided adversarial pressure) and the folklore allocators —
//     the only ones with a Theta(eps^-1) lower bound — remain clearly
//     easier to hurt than SIMPLE.
//
// Fast mode keeps the cheap allocators only (GEO/TINYSLAB/FLEXHASH/
// COMBINED evaluations move orders of magnitude more mass per run, so a
// full campaign takes minutes, not seconds).  Emitted to BENCH_adv.json;
// memreal_report renders the T-ADV claim from the records.
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "perfadv/campaign.h"
#include "perfadv/search.h"
#include "util/json.h"
#include "util/table.h"

namespace memreal::bench {
namespace {

constexpr std::uint64_t kSeed = 1;
constexpr std::size_t kIterations = 300;
constexpr std::size_t kUpdates = 300;

AdvCampaignConfig campaign_config() {
  AdvCampaignConfig cfg;
  cfg.base.seed = kSeed;
  cfg.base.iterations = kIterations;
  cfg.base.updates = kUpdates;
  cfg.base.engine = "release";
  if (fast_mode()) {
    cfg.allocators = {"folklore-compact", "folklore-windowed", "simple",
                      "rsum", "discrete"};
  }
  return cfg;
}

void print_experiment() {
  BenchJson artifact("adv");
  artifact.set_seeds({kSeed});

  print_header("T-ADV — adversarial search vs the cost budgets",
               "A guided mutation search seeded from the scenario zoo "
               "maximizes realized cost over the lower-bound floor; every "
               "allocator's found ratio must stay under its CostBudget "
               "ceiling, and folklore must stay the easiest target.");

  const AdvCampaign campaign = run_adv_campaign(campaign_config());

  Json rec = series_record("bound_check", "T-ADV", "adv-ratio");
  rec.set("engine", "release")
      .set("iterations", static_cast<std::uint64_t>(kIterations))
      .set("updates", static_cast<std::uint64_t>(kUpdates));
  Json rows = Json::array();
  Table table({"allocator", "eps", "baseline (scenario)", "found", "gain",
               "shrunk", "updates", "budget"});
  bool all_under = true;
  for (const AdvResult& r : campaign.results) {
    all_under = all_under && r.found_ratio < r.budget_ceiling;
    table.add_row({r.allocator, Table::num(r.eps, 5),
                   Table::num(r.baseline_ratio, 3) + " (" +
                       r.baseline_scenario + ")",
                   Table::num(r.found_ratio, 3),
                   Table::num(r.gain(), 2) + "x",
                   Table::num(r.shrunk_ratio, 3),
                   std::to_string(r.original_updates) + " -> " +
                       std::to_string(r.shrunk_updates),
                   Table::num(r.budget_ceiling, 1)});
    Json row = Json::object();
    row.set("allocator", json_key(r.allocator))
        .set("eps", r.eps)
        .set("baseline_scenario", r.baseline_scenario)
        .set("baseline_ratio", r.baseline_ratio)
        .set("found_ratio", r.found_ratio)
        .set("gain", r.gain())
        .set("shrunk_ratio", r.shrunk_ratio)
        .set("shrink_retained",
             r.found_ratio > 0 ? r.shrunk_ratio / r.found_ratio : 0.0)
        .set("original_updates",
             static_cast<std::uint64_t>(r.original_updates))
        .set("shrunk_updates", static_cast<std::uint64_t>(r.shrunk_updates))
        .set("evaluations", static_cast<std::uint64_t>(r.evaluations))
        .set("budget_ceiling", r.budget_ceiling);
    rows.push(std::move(row));
  }
  rec.set("rows", std::move(rows));
  artifact.add(std::move(rec));
  table.print(std::cout);
  std::cout << "every found ratio under its budget ceiling: "
            << (all_under ? "yes" : "NO") << "\n";

  artifact.write();
}

}  // namespace
}  // namespace memreal::bench

int main() {
  memreal::bench::print_experiment();
  return 0;
}
