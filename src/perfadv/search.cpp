#include "perfadv/search.h"

#include <algorithm>
#include <utility>

#include "alloc/registry.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/shrinker.h"
#include "harness/cell.h"
#include "lb/potential.h"
#include "perfadv/zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace memreal {

namespace {

/// Drops the byte-space channel of a (vm_heap) sequence: the search
/// objective lives in tick space and the mutator edits tick sizes, so
/// byte payloads would only impose a consistency constraint the mutants
/// cannot honor.
Sequence to_tick_native(Sequence seq) {
  seq.bytes_per_tick = 0;
  for (Update& u : seq.updates) u.size_bytes = 0;
  return seq;
}

struct Candidate {
  Sequence seq;
  double ratio = 0;
  double cost = 0;  ///< realized total cost (simulation-work estimate)
};

}  // namespace

double adv_search_eps(const AllocatorInfo& info, double requested,
                      Tick capacity) {
  if (requested > 0) return requested;
  // Prefer seeds a small multiple of the churn budget; stop at the
  // allocator's supported eps ceiling regardless.
  constexpr double kPreferredSeedUpdates = 15'000;
  double eps = info.default_eps;
  while (eps * 2 <= info.max_eps * (1 + 1e-9)) {
    const double avg =
        (static_cast<double>(info.sizes.min_size(eps, capacity)) +
         static_cast<double>(info.sizes.max_size(eps, capacity))) /
        2.0;
    const double est_fill =
        0.8 * static_cast<double>(capacity) / std::max(1.0, avg);
    if (est_fill <= kPreferredSeedUpdates) break;
    eps *= 2;
  }
  return eps;
}

AdvObjective evaluate_adversary(const Sequence& seq,
                                const std::string& allocator,
                                const std::string& engine,
                                std::uint64_t alloc_seed) {
  AdvObjective obj;
  obj.floor = sequence_cost_floor(seq).cost_floor;
  if (seq.updates.empty() || obj.floor <= 0) return obj;

  CellConfig config;
  config.engine = engine;
  config.allocator = allocator;
  config.params.eps = seq.eps;
  config.params.seed = alloc_seed;
  // The search evaluates thousands of candidates; correctness is the
  // fuzzer's job (and the release engine is cost-bit-identical), so skip
  // per-update validation and audit once at the end.
  config.incremental_validation = false;
  auto cell = make_cell(seq.capacity, seq.eps_ticks, config);
  const RunStats stats = cell->run(seq.updates);
  cell->audit();

  obj.total_cost = stats.cost.sum();
  obj.ratio = obj.total_cost / obj.floor;
  return obj;
}

AdvResult run_adv_search(const AdvSearchConfig& config) {
  const AllocatorInfo info = allocator_info(config.allocator);
  const double eps = adv_search_eps(info, config.eps, config.capacity);
  MEMREAL_CHECK_MSG(eps <= info.max_eps,
                    config.allocator << " does not support eps " << eps
                                     << " (ceiling " << info.max_eps << ")");
  // All randomness is a pure function of (seed, allocator, stream index),
  // reusing the fuzzer's derivation so corpus metadata alone reconstructs
  // the allocator randomness on replay.
  const std::uint64_t master = target_seed(config.seed, config.allocator);
  const std::uint64_t alloc_seed = iteration_seed(master, 0);

  AdvResult result;
  result.allocator = config.allocator;
  result.engine = config.engine;
  result.eps = eps;
  result.seed = config.seed;
  result.alloc_seed = alloc_seed;
  result.budget_ceiling = info.budget.bound(eps);

  double work_spent = 0;  // simulation-work units across all evaluations
  auto evaluate = [&](const Sequence& seq) {
    ++result.evaluations;
    const AdvObjective obj = evaluate_adversary(seq, config.allocator,
                                                config.engine, alloc_seed);
    work_spent += obj.total_cost + static_cast<double>(seq.size());
    return obj;
  };

  // --- Seed round: the scenario zoo is the baseline population. --------
  std::vector<std::string> scenarios = config.scenarios;
  if (scenarios.empty()) {
    scenarios = compatible_scenarios(info, eps, config.capacity);
  } else {
    for (const std::string& s : scenarios) {
      const std::string rejected = scenario_rejection(
          s, info, eps, config.capacity, kMaxScenarioSeedUpdates);
      MEMREAL_CHECK_MSG(rejected.empty(), rejected);
    }
  }
  MEMREAL_CHECK_MSG(!scenarios.empty(), "no compatible scenario for "
                                            << config.allocator);

  std::vector<Candidate> population;
  std::size_t best = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioParams params = scenario_params_for(
        info, eps, config.capacity, config.updates,
        iteration_seed(master, 1 + i));
    Candidate cand;
    cand.seq = to_tick_native(make_scenario(scenarios[i], params));
    const AdvObjective obj = evaluate(cand.seq);
    cand.ratio = obj.ratio;
    cand.cost = obj.total_cost;
    if (cand.ratio > result.baseline_ratio) {
      result.baseline_ratio = cand.ratio;
      result.baseline_scenario = scenarios[i];
    }
    population.push_back(std::move(cand));
    if (population.back().ratio > population[best].ratio) {
      best = population.size() - 1;
    }
  }
  // Planted seeds join the population but not the zoo baseline.
  for (const Sequence& seq : config.extra_seeds) {
    Candidate cand;
    cand.seq = to_tick_native(seq);
    const AdvObjective obj = evaluate(cand.seq);
    cand.ratio = obj.ratio;
    cand.cost = obj.total_cost;
    population.push_back(std::move(cand));
    if (population.back().ratio > population[best].ratio) {
      best = population.size() - 1;
    }
  }

  // --- Hill climb with novelty acceptance. -----------------------------
  MutatorConfig mut;
  mut.eps = eps;
  mut.sizes = info.sizes;
  mut.max_edits = config.max_edits;
  constexpr std::size_t kMaxPopulation = 32;
  const double seed_work = work_spent;  // the seed round is exempt
  for (std::size_t it = 0; it < config.iterations; ++it) {
    if (work_spent - seed_work > config.max_search_work) break;
    Rng rng(iteration_seed(master, 1'000 + it));
    // Mostly exploit the best candidate; sometimes explore the population.
    const std::size_t parent =
        population.size() > 1 && rng.next_double() < 0.25
            ? static_cast<std::size_t>(rng.next_below(population.size()))
            : best;
    if (population[parent].seq.updates.empty()) continue;
    Candidate cand;
    cand.seq = mutate_sequence(population[parent].seq, mut, rng);
    const AdvObjective obj = evaluate(cand.seq);
    cand.ratio = obj.ratio;
    cand.cost = obj.total_cost;

    const bool improved_best = cand.ratio > population[best].ratio;
    const bool improved_parent = cand.ratio > population[parent].ratio;
    // Novelty: occasionally keep near-best non-improvements as fresh
    // mutation starting points.
    const bool novel = cand.ratio > 0.8 * population[best].ratio &&
                       rng.next_double() < 0.15;
    if (!improved_best && !improved_parent && !novel) continue;
    population.push_back(std::move(cand));
    if (improved_best) best = population.size() - 1;
    if (population.size() > kMaxPopulation) {
      // Evict the weakest non-best candidate.
      std::size_t weakest = best == 0 ? 1 : 0;
      for (std::size_t i = 0; i < population.size(); ++i) {
        if (i != best && population[i].ratio < population[weakest].ratio) {
          weakest = i;
        }
      }
      population.erase(population.begin() +
                       static_cast<std::ptrdiff_t>(weakest));
      if (best > weakest) --best;
    }
  }

  result.found_ratio = population[best].ratio;
  result.original_updates = population[best].seq.size();

  // --- Cost-preserving shrink. -----------------------------------------
  if (!config.shrink || population[best].seq.updates.empty()) {
    result.adversary = population[best].seq;
    result.shrunk_ratio = result.found_ratio;
    result.shrunk_updates = result.adversary.size();
    return result;
  }
  const double keep = config.shrink_retain * result.found_ratio;
  const auto still_adversarial = [&](const Sequence& cand) {
    return evaluate(cand).ratio + 1e-12 >= keep;
  };
  ShrinkConfig shrink;
  shrink.min_size = info.sizes.min_size(eps, config.capacity);
  // Each shrink check re-runs (a subsequence of) the found best, so its
  // work is at most the best's own; derive the check ceiling from the
  // shrink work budget.
  const double check_work = std::max(
      1.0, population[best].cost + static_cast<double>(
                                       population[best].seq.size()));
  shrink.max_checks = std::min(
      config.max_shrink_checks,
      std::max<std::size_t>(
          8, static_cast<std::size_t>(config.max_shrink_work / check_work)));
  ShrinkResult shrunk =
      shrink_sequence(population[best].seq, still_adversarial, shrink);
  result.adversary = std::move(shrunk.seq);
  result.shrink_minimal = shrunk.minimal;
  result.shrunk_ratio = evaluate(result.adversary).ratio;
  result.shrunk_updates = result.adversary.size();
  return result;
}

}  // namespace memreal
