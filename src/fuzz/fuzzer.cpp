#include "fuzz/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>
#include <sstream>

#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/mutator.h"
#include "perfadv/zoo.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace memreal {

std::uint64_t iteration_seed(std::uint64_t campaign_seed,
                             std::uint64_t iteration) {
  SplitMix64 sm(campaign_seed ^ (0x9e3779b97f4a7c15ULL * (iteration + 1)));
  return sm.next();
}

std::uint64_t target_seed(std::uint64_t iteration_seed,
                          const std::string& allocator) {
  // FNV-1a over the name, folded into the iteration seed.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : allocator) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  SplitMix64 sm(iteration_seed ^ h);
  return sm.next();
}

std::vector<TargetGroup> make_target_groups(
    const std::vector<AllocatorInfo>& infos) {
  MEMREAL_CHECK_MSG(!infos.empty(), "no fuzz targets selected");
  std::vector<TargetGroup> groups;
  std::vector<AllocatorInfo> universal;
  for (const AllocatorInfo& info : infos) {
    if (info.universal) {
      universal.push_back(info);
      continue;
    }
    const auto it = std::find_if(
        groups.begin(), groups.end(), [&](const TargetGroup& g) {
          return g.sizes == info.sizes && g.eps == info.default_eps &&
                 g.delta == info.default_delta;
        });
    if (it != groups.end()) {
      it->members.push_back(info);
    } else {
      groups.push_back(
          {info.default_eps, info.default_delta, info.sizes, {info}});
    }
  }
  if (groups.empty()) {
    // Only universal baselines selected: fuzz them against each other on
    // the first one's own band.
    groups.push_back({universal.front().default_eps,
                      universal.front().default_delta,
                      universal.front().sizes,
                      {}});
  }
  for (TargetGroup& g : groups) {
    for (const AllocatorInfo& info : universal) g.members.push_back(info);
  }
  return groups;
}

namespace {

DifferentialConfig make_differential_config(const TargetGroup& group,
                                            std::uint64_t iter_seed,
                                            const FuzzConfig& cfg) {
  DifferentialConfig d;
  d.budget_slack = cfg.budget_slack;
  d.audit_every = cfg.audit_every;
  d.check_invariants_every = cfg.check_invariants_every;
  d.lockstep_release = cfg.engine == "release";
  d.lockstep_arena = cfg.engine == "arena";
  d.targets.reserve(group.members.size());
  for (const AllocatorInfo& info : group.members) {
    FuzzTarget t;
    t.allocator = info.name;
    t.params.eps = group.eps;
    t.params.delta = group.delta;
    t.params.seed = target_seed(iter_seed, info.name);
    t.budget = info.budget;
    d.targets.push_back(std::move(t));
  }
  return d;
}

/// Shrinks `failing` while the differential keeps reporting the same bug.
Sequence shrink_failure(const Sequence& failing, const FailureReport& report,
                        const DifferentialConfig& dcfg,
                        const TargetGroup& group, const FuzzConfig& cfg) {
  // same_bug is judged per (target, kind), so re-check candidates against
  // the failing target alone: ~group-size× fewer cells per candidate, and
  // another target failing first can't mask this one's reproduction.
  DifferentialConfig narrowed = dcfg;
  std::erase_if(narrowed.targets, [&](const FuzzTarget& t) {
    return t.allocator != report.allocator;
  });
  if (narrowed.targets.empty()) narrowed = dcfg;
  FailurePredicate same_bug = [&](const Sequence& cand) {
    const auto r = run_differential(cand, narrowed);
    return r.has_value() && r->same_bug(report);
  };
  ShrinkConfig sc;
  sc.min_size = group.sizes.min_size(group.eps, cfg.capacity);
  sc.max_checks = cfg.max_shrink_checks;
  return shrink_sequence(failing, same_bug, sc).seq;
}

/// Every target must serve cfg.scenario at its group's (eps, capacity);
/// throws naming the first misfit and its compatible scenarios.
void check_scenario_targets(const FuzzConfig& cfg,
                            const std::vector<TargetGroup>& groups) {
  for (const TargetGroup& group : groups) {
    for (const AllocatorInfo& info : group.members) {
      const std::string rejected =
          scenario_rejection(cfg.scenario, info, group.eps, cfg.capacity,
                             kMaxScenarioSeedUpdates);
      MEMREAL_CHECK_MSG(rejected.empty(), rejected);
    }
  }
}

/// Every target's cells (its allocator, and the arena when the campaign
/// locksteps one) must build at its group's (eps, capacity); throws one
/// line per misfit and its reason, so an infeasible campaign stops before
/// its first iteration instead of midway.
void check_constructible_targets(const FuzzConfig& cfg,
                                 const std::vector<TargetGroup>& groups) {
  // A universal baseline joins every group, so the same line can come up
  // more than once; each is listed once, in first-seen order.
  std::vector<std::string> misfits;
  for (const TargetGroup& group : groups) {
    const DifferentialConfig d = make_differential_config(group, cfg.seed, cfg);
    const Tick eps_ticks = Eps::of(group.eps, cfg.capacity).ticks;
    for (const FuzzTarget& target : d.targets) {
      try {
        build_target_cells(cfg.capacity, eps_ticks, target, d);
      } catch (const InvariantViolation& e) {
        std::ostringstream line;
        line << "\n  " << target.allocator << " (eps " << group.eps
             << "): " << e.reason();
        if (std::find(misfits.begin(), misfits.end(), line.str()) ==
            misfits.end()) {
          misfits.push_back(line.str());
        }
      }
    }
  }
  if (misfits.empty()) return;
  const std::string capacity =
      std::has_single_bit(cfg.capacity)
          ? "2^" + std::to_string(std::countr_zero(cfg.capacity))
          : std::to_string(cfg.capacity);
  std::string message = std::to_string(misfits.size()) +
                        " fuzz target(s) cannot run at capacity " + capacity +
                        " (drop them from --allocators or change "
                        "--capacity-log2):";
  for (const std::string& line : misfits) message += line;
  throw InvariantViolation(message);
}

}  // namespace

std::vector<AllocatorInfo> resolve_fuzz_targets(const FuzzConfig& cfg) {
  std::vector<AllocatorInfo> infos;
  if (cfg.allocators.empty()) {
    for (AllocatorInfo& info : allocator_infos()) {
      if (info.fuzz_default) infos.push_back(std::move(info));
    }
  } else {
    for (const std::string& name : cfg.allocators) {
      infos.push_back(allocator_info(name));  // throws on unknown names
    }
  }
  return infos;
}

FuzzSummary run_fuzz(const FuzzConfig& cfg) {
  MEMREAL_CHECK(cfg.iterations > 0);
  MEMREAL_CHECK_MSG(cfg.engine == "validated" || cfg.engine == "release" ||
                        cfg.engine == "arena",
                    "unknown fuzz engine '"
                        << cfg.engine << "' (validated, release, arena)");
  const std::vector<TargetGroup> groups =
      make_target_groups(resolve_fuzz_targets(cfg));
  check_constructible_targets(cfg, groups);
  if (!cfg.scenario.empty()) check_scenario_targets(cfg, groups);

  std::vector<std::optional<FuzzFailure>> slots(cfg.iterations);
  std::atomic<std::size_t> sequences{0};
  std::atomic<std::size_t> updates{0};

  parallel_for(
      cfg.iterations,
      [&](std::size_t i) {
        const std::uint64_t iter = cfg.start_iteration + i;
        const std::uint64_t iseed = iteration_seed(cfg.seed, iter);
        const TargetGroup& group = groups[iter % groups.size()];
        const DifferentialConfig dcfg =
            make_differential_config(group, iseed, cfg);
        Rng rng(iseed);

        std::ostringstream name;
        name << "fuzz-s" << cfg.seed << "-i" << iter;
        Sequence seq;
        if (cfg.scenario.empty()) {
          GeneratorConfig gen;
          gen.capacity = cfg.capacity;
          gen.eps = group.eps;
          gen.sizes = group.sizes;
          gen.updates = cfg.updates_per_sequence;
          seq = generate_sequence(gen, rng, name.str());
        } else {
          // Zoo-structured base: the group's band, a per-iteration seed.
          ScenarioParams sp;
          sp.capacity = cfg.capacity;
          sp.eps = group.eps;
          sp.min_size = group.sizes.min_size(group.eps, cfg.capacity);
          sp.max_size = group.sizes.max_size(group.eps, cfg.capacity) - 1;
          sp.fixed_palette = group.sizes.fixed_palette;
          sp.updates = cfg.updates_per_sequence;
          sp.seed = rng.next_u64();
          seq = make_scenario(cfg.scenario, sp);
          seq.name = name.str();
        }

        MutatorConfig mut;
        mut.eps = group.eps;
        mut.sizes = group.sizes;

        for (std::size_t m = 0; m <= cfg.mutants_per_sequence; ++m) {
          if (m > 0) {
            Sequence mutant = mutate_sequence(seq, mut, rng);
            mutant.name = name.str() + "-m" + std::to_string(m);
            seq = std::move(mutant);
          }
          sequences.fetch_add(1, std::memory_order_relaxed);
          updates.fetch_add(seq.size(), std::memory_order_relaxed);
          const auto report = run_differential(seq, dcfg);
          if (!report) continue;

          FuzzFailure f;
          f.report = *report;
          f.iteration = iter;
          f.sequence_seed = iseed;
          f.original_updates = seq.size();
          f.reproducer = cfg.shrink
                             ? shrink_failure(seq, *report, dcfg, group, cfg)
                             : std::move(seq);
          slots[i] = std::move(f);
          break;  // one failure per iteration
        }
      },
      cfg.threads);

  FuzzSummary summary;
  summary.iterations = cfg.iterations;
  summary.sequences = sequences.load();
  summary.updates = updates.load();
  for (auto& slot : slots) {
    if (slot) summary.failures.push_back(std::move(*slot));
  }
  if (!cfg.corpus_dir.empty()) {
    for (FuzzFailure& f : summary.failures) {
      CorpusEntry entry;
      entry.seq = f.reproducer;
      entry.allocator = f.report.allocator;
      entry.kind = to_string(f.report.kind);
      entry.seed = cfg.seed;
      entry.iteration = f.iteration;
      f.corpus_path = save_corpus_entry(entry, cfg.corpus_dir);
    }
  }
  return summary;
}

FuzzSummary replay_corpus(const FuzzConfig& cfg, const std::string& dir) {
  FuzzSummary summary;
  const std::vector<std::string> paths = list_corpus(dir);
  const std::vector<std::string> known = allocator_names();
  for (const std::string& path : paths) {
    const CorpusEntry entry = load_corpus_entry(path);
    ++summary.iterations;

    DifferentialConfig dcfg;
    dcfg.budget_slack = cfg.budget_slack;
    dcfg.audit_every = cfg.audit_every;
    dcfg.check_invariants_every = cfg.check_invariants_every;
    dcfg.lockstep_release = cfg.engine == "release";
    dcfg.lockstep_arena = cfg.engine == "arena";
    const std::uint64_t iseed = iteration_seed(entry.seed, entry.iteration);
    const bool have_target =
        std::find(known.begin(), known.end(), entry.allocator) != known.end();
    if (have_target) {
      const AllocatorInfo info = allocator_info(entry.allocator);
      FuzzTarget t;
      t.allocator = info.name;
      t.params.eps = entry.seq.eps;
      t.params.delta = info.default_delta;
      t.params.seed = target_seed(iseed, info.name);
      t.budget = info.budget;
      dcfg.targets.push_back(std::move(t));
    } else {
      for (const AllocatorInfo& info : allocator_infos()) {
        if (!info.universal) continue;
        FuzzTarget t;
        t.allocator = info.name;
        t.params.eps = entry.seq.eps;
        t.params.seed = target_seed(iseed, info.name);
        t.budget = info.budget;
        dcfg.targets.push_back(std::move(t));
      }
    }

    ++summary.sequences;
    summary.updates += entry.seq.size();
    const auto report = run_differential(entry.seq, dcfg);
    if (!report) continue;
    FuzzFailure f;
    f.report = *report;
    f.reproducer = entry.seq;
    f.iteration = entry.iteration;
    f.sequence_seed = iseed;
    f.original_updates = entry.seq.size();
    f.corpus_path = path;
    summary.failures.push_back(std::move(f));
  }
  return summary;
}

}  // namespace memreal
