// memreal_fuzz — differential fuzzing driver over the allocator registry.
// Run with --help for usage.  Exit status: 0 = clean, 1 = failures
// found, 2 = usage error.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "fuzz/fuzzer.h"
#include "util/check.h"
#include "util/table.h"

namespace {

using namespace memreal;
using namespace memreal::cli;

constexpr Tool kTool{"memreal_fuzz"};

constexpr const char* kUsage = R"(memreal_fuzz [options]
  --seed N           campaign seed (default 1)
  --iters N          iterations (default 100)
  --start-iter N     first iteration index (default 0); reproduce a
                     failure with --seed S --start-iter I --iters 1
  --updates N        updates per generated sequence (default 200)
  --mutants N        mutants chained off each base sequence (default 2)
  --allocators a,b   comma-separated registry names (default: all)
  --scenario NAME    generate base sequences from the named scenario-zoo
                     workload (memreal_adv --list-scenarios) instead of
                     the free-form generator; errors up front, listing
                     each target's compatible scenarios, if any resolved
                     target cannot serve it
  --engine E         "validated" (default), "release", or "arena".
                     release also runs every target on the unchecked
                     release engine in lockstep and reports any
                     cost/counter/layout difference as
                     engine-divergence; arena locksteps each target
                     against a byte-backed arena cell, checking payload
                     integrity and the byte/tick rounding bound on top
                     (pair with a small --capacity-log2 — every tick is
                     a real byte payload — and restrict --allocators:
                     at 2^20, simple,folklore-compact,folklore-windowed,
                     rsum,discrete)
  --threads N        worker threads (default: all cores)
  --capacity-log2 N  memory capacity 2^N ticks (default 40); a target
                     whose cells cannot be built at that capacity (its
                     allocator, or an arena over 2 GiB) is rejected up
                     front (exit 2), one line each
  --budget-slack X   multiplier on the registry cost budgets (default 1)
  --no-shrink        keep failing sequences unminimized
  --corpus DIR       persist shrunk reproducers under DIR
                     (default fuzz/corpus; "" disables persistence)
  --replay DIR       replay a reproducer corpus instead of fuzzing
  --list             print the fuzz target groups and exit

Determinism: the failure set and every reproducer trace are a pure
function of (--seed, --start-iter, --iters, workload shape flags) —
thread count only changes the wall clock.
)";

void print_target_groups(const FuzzConfig& cfg) {
  const auto groups = make_target_groups(resolve_fuzz_targets(cfg));
  Table t({"group", "eps", "min size", "max size", "palette", "members"});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const TargetGroup& group = groups[g];
    std::string members;
    for (const AllocatorInfo& m : group.members) {
      if (!members.empty()) members += ",";
      members += m.name;
    }
    t.add_row({std::to_string(g), Table::num(group.eps, 4),
               std::to_string(group.sizes.min_size(group.eps, cfg.capacity)),
               std::to_string(group.sizes.max_size(group.eps, cfg.capacity)),
               group.sizes.fixed_palette ? "yes" : "no", members});
  }
  t.print(std::cout);
}

/// The full replay line for one failing iteration — including every
/// workload-shape flag the campaign ran with, since the generated
/// sequence depends on all of them, not just the seed.
std::string reproduce_command(const FuzzConfig& cfg, std::uint64_t iteration) {
  std::ostringstream os;
  os << "memreal_fuzz --seed " << cfg.seed << " --start-iter " << iteration
     << " --iters 1 --updates " << cfg.updates_per_sequence << " --mutants "
     << cfg.mutants_per_sequence << " --capacity-log2 "
     << std::countr_zero(cfg.capacity);
  if (cfg.engine != "validated") os << " --engine " << cfg.engine;
  if (!cfg.scenario.empty()) os << " --scenario " << cfg.scenario;
  if (cfg.budget_slack != 1.0) os << " --budget-slack " << cfg.budget_slack;
  if (!cfg.allocators.empty()) {
    os << " --allocators ";
    for (std::size_t i = 0; i < cfg.allocators.size(); ++i) {
      os << (i ? "," : "") << cfg.allocators[i];
    }
  }
  return os.str();
}

void print_failures(const FuzzSummary& summary, const FuzzConfig& cfg) {
  for (const FuzzFailure& f : summary.failures) {
    std::printf(
        "FAILURE allocator=%s kind=%s iteration=%llu update=%zu\n"
        "  seed=%llu sequence-seed=%llu repro-updates=%zu (from %zu)\n"
        "  %s\n",
        f.report.allocator.c_str(), to_string(f.report.kind),
        static_cast<unsigned long long>(f.iteration),
        f.report.update_index,
        static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(f.sequence_seed),
        f.reproducer.size(), f.original_updates, f.report.message.c_str());
    if (!f.corpus_path.empty()) {
      std::printf("  corpus: %s\n", f.corpus_path.c_str());
    }
    std::printf("  reproduce: %s\n",
                reproduce_command(cfg, f.iteration).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FuzzConfig cfg;
  cfg.corpus_dir = "fuzz/corpus";
  bool list_only = false;
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
      cfg.seed = parse_u64(kTool, flag, value());
    } else if (flag == "--iters") {
      cfg.iterations =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--start-iter") {
      cfg.start_iteration = parse_u64(kTool, flag, value());
    } else if (flag == "--updates") {
      cfg.updates_per_sequence =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--mutants") {
      cfg.mutants_per_sequence =
          static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--allocators") {
      cfg.allocators = split_csv(kTool, flag, value());
    } else if (flag == "--scenario") {
      cfg.scenario = value();
    } else if (flag == "--engine") {
      cfg.engine = value();
      if (cfg.engine != "validated" && cfg.engine != "release" &&
          cfg.engine != "arena") {
        usage_error(kTool,
                    "--engine must be 'validated', 'release', or 'arena'");
      }
    } else if (flag == "--threads") {
      cfg.threads = static_cast<std::size_t>(parse_u64(kTool, flag, value()));
    } else if (flag == "--capacity-log2") {
      const std::uint64_t log2 = parse_u64(kTool, flag, value());
      check_capacity_log2(kTool, log2, 62);
      cfg.capacity = Tick{1} << log2;
    } else if (flag == "--budget-slack") {
      cfg.budget_slack = parse_double(kTool, flag, value());
    } else if (flag == "--no-shrink") {
      cfg.shrink = false;
    } else if (flag == "--corpus") {
      cfg.corpus_dir = value();
    } else if (flag == "--replay") {
      replay_dir = value();
    } else if (flag == "--list") {
      list_only = true;
    } else {
      usage_error(kTool, "unknown flag '" + flag + "'");
    }
  }

  try {
    if (list_only) {
      print_target_groups(cfg);
      return 0;
    }
    if (!replay_dir.empty()) {
      const FuzzSummary summary = replay_corpus(cfg, replay_dir);
      std::printf("memreal_fuzz replay: %zu reproducers, %zu updates, "
                  "%zu failures\n",
                  summary.iterations, summary.updates,
                  summary.failures.size());
      print_failures(summary, cfg);
      return summary.ok() ? 0 : 1;
    }
    std::printf("memreal_fuzz: seed=%llu iters=%zu start=%llu updates=%zu "
                "mutants=%zu engine=%s threads=%zu\n",
                static_cast<unsigned long long>(cfg.seed), cfg.iterations,
                static_cast<unsigned long long>(cfg.start_iteration),
                cfg.updates_per_sequence, cfg.mutants_per_sequence,
                cfg.engine.c_str(), cfg.threads);
    const FuzzSummary summary = run_fuzz(cfg);
    std::printf("memreal_fuzz: ran %zu sequences (%zu updates) over %zu "
                "iterations — %zu failures\n",
                summary.sequences, summary.updates, summary.iterations,
                summary.failures.size());
    print_failures(summary, cfg);
    return summary.ok() ? 0 : 1;
  } catch (const InvariantViolation& e) {
    std::fprintf(stderr, "memreal_fuzz: %s\n", e.what());
    return 2;
  }
}
