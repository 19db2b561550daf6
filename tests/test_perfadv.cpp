// The adversarial performance search (src/perfadv): planted-adversary
// recovery, campaign determinism across thread counts, bit-exact corpus
// replay, the committed ci/adversaries regression corpus, and zoo
// well-formedness for every registry allocator's size profile.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "perfadv/campaign.h"
#include "perfadv/search.h"
#include "perfadv/zoo.h"
#include "testing.h"
#include "workload/sequence.h"

namespace memreal {
namespace {

namespace fs = std::filesystem;

/// A throwaway corpus directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ =
        (fs::temp_directory_path() / ("memreal_perfadv_" + tag)).string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Small search shape shared by the deterministic tests: big enough to
/// exercise seeding + climb + shrink, small enough for Sanitize CI.
AdvSearchConfig small_config(const std::string& allocator) {
  AdvSearchConfig cfg;
  cfg.allocator = allocator;
  cfg.updates = 80;
  cfg.iterations = 25;
  cfg.seed = 3;
  return cfg;
}

// --- Planted-adversary recovery --------------------------------------

// A hand-planted <= 30-update adversary must survive the whole pipeline:
// the search's found ratio can only improve on it, and the shrunk
// reproducer retains >= 90% of the found ratio (the ISSUE's acceptance
// bar for the shrinker).
//
// The plant is folklore's textbook worst case, built by hand: fill to the
// budget with band-minimum items, then repeatedly free two *scattered*
// slots and insert one gap-defeating larger item — no single gap fits it,
// so the compacting allocator drags the whole heap along every time.
Sequence planted_folklore_adversary(Tick capacity, double eps) {
  const Tick small = static_cast<Tick>(eps * static_cast<double>(capacity));
  const Tick big = small + small / 2 + 1;  // defeats any one freed slot
  Sequence seq;
  seq.capacity = capacity;
  seq.eps = eps;
  seq.eps_ticks = small;
  const std::size_t fill = 15;  // fill * small == (1 - eps) * capacity
  for (std::size_t i = 1; i <= fill; ++i) {
    seq.updates.push_back(Update::insert(i, small));
  }
  // Scattered pairs: never adjacent in the compacted layout.
  const ItemId pairs[3][2] = {{1, 3}, {5, 7}, {9, 11}};
  for (std::size_t c = 0; c < 3; ++c) {
    seq.updates.push_back(Update::erase(pairs[c][0], small));
    seq.updates.push_back(Update::erase(pairs[c][1], small));
    seq.updates.push_back(Update::insert(100 + c, big));
  }
  return seq;
}

TEST(PerfAdv, PlantedAdversaryRecovered) {
  constexpr Tick kCap = Tick{1} << 20;
  constexpr double kEps = 1.0 / 16;

  Sequence planted = planted_folklore_adversary(kCap, kEps);
  ASSERT_LE(planted.size(), 30u);
  planted.check_well_formed();

  AdvSearchConfig cfg;
  cfg.allocator = "folklore-compact";
  cfg.capacity = kCap;
  cfg.eps = kEps;
  cfg.updates = 16;
  cfg.iterations = 30;
  cfg.seed = 11;
  // Seed the zoo from churn alone so the planted fragmenter is the only
  // strongly adversarial structure in the initial population.
  cfg.scenarios = {"churn"};
  cfg.extra_seeds = {planted};

  const std::uint64_t master = target_seed(cfg.seed, cfg.allocator);
  const double planted_ratio =
      evaluate_adversary(planted, cfg.allocator, cfg.engine,
                         iteration_seed(master, 0))
          .ratio;
  ASSERT_GT(planted_ratio, 0.0);

  const AdvResult r = run_adv_search(cfg);
  // The planted seed joins the population, so the found best dominates it
  // and beats the churn-only zoo baseline.
  EXPECT_GE(r.found_ratio, planted_ratio);
  EXPECT_GT(r.found_ratio, r.baseline_ratio);
  EXPECT_GT(planted_ratio, r.baseline_ratio)
      << "churn baseline unexpectedly beats the planted fragmenter";
  // Cost-preserving shrink: >= 90% of the found ratio retained.
  EXPECT_GE(r.shrunk_ratio + 1e-9, 0.9 * r.found_ratio);
  EXPECT_LE(r.shrunk_updates, r.original_updates);
  r.adversary.check_well_formed();
}

// --- Determinism ------------------------------------------------------

// A campaign's results are a pure function of (seed, allocator); the
// thread count must change only the wall clock.
TEST(PerfAdv, CampaignThreadCountInvariant) {
  AdvCampaignConfig cfg;
  cfg.base = small_config("folklore-compact");
  cfg.allocators = {"folklore-compact", "folklore-windowed", "simple"};

  cfg.threads = 1;
  const AdvCampaign serial = run_adv_campaign(cfg);
  cfg.threads = 3;
  const AdvCampaign parallel = run_adv_campaign(cfg);

  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const AdvResult& a = serial.results[i];
    const AdvResult& b = parallel.results[i];
    EXPECT_EQ(a.allocator, b.allocator);
    EXPECT_EQ(a.found_ratio, b.found_ratio) << a.allocator;
    EXPECT_EQ(a.baseline_ratio, b.baseline_ratio) << a.allocator;
    EXPECT_EQ(a.shrunk_ratio, b.shrunk_ratio) << a.allocator;
    EXPECT_EQ(a.evaluations, b.evaluations) << a.allocator;
    ASSERT_EQ(a.adversary.size(), b.adversary.size()) << a.allocator;
    for (std::size_t u = 0; u < a.adversary.size(); ++u) {
      ASSERT_EQ(a.adversary.updates[u].id, b.adversary.updates[u].id);
      ASSERT_EQ(a.adversary.updates[u].size, b.adversary.updates[u].size);
    }
  }
}

// Same config, run twice: bit-identical results.
TEST(PerfAdv, SearchIsReproducible) {
  const AdvSearchConfig cfg = small_config("folklore-windowed");
  const AdvResult a = run_adv_search(cfg);
  const AdvResult b = run_adv_search(cfg);
  EXPECT_EQ(a.found_ratio, b.found_ratio);
  EXPECT_EQ(a.shrunk_ratio, b.shrunk_ratio);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// --- Corpus round trip ------------------------------------------------

// Persisted adversaries reload with the exact recorded ratio: the trace
// header carries (allocator, engine, seed, ratio), the replay re-derives
// the allocator randomness from the metadata alone, and the re-realized
// ratio is bit-equal to the recorded one.
TEST(PerfAdv, CorpusReplayIsBitExact) {
  TempDir dir("corpus");
  AdvCampaignConfig cfg;
  cfg.base = small_config("folklore-compact");
  cfg.allocators = {"folklore-compact", "simple"};
  cfg.corpus_dir = dir.path();

  const AdvCampaign campaign = run_adv_campaign(cfg);
  ASSERT_EQ(campaign.corpus_paths.size(), 2u);
  for (const std::string& path : campaign.corpus_paths) {
    ASSERT_FALSE(path.empty());
    const CorpusEntry entry = load_corpus_entry(path);
    EXPECT_EQ(entry.kind, kAdvCorpusKind);
    EXPECT_EQ(entry.engine, "release");
    EXPECT_GT(entry.ratio, 0.0);
  }

  const std::vector<AdvReplay> replays =
      replay_adversaries(dir.path(), /*retain=*/0.999);
  ASSERT_EQ(replays.size(), 2u);
  for (std::size_t i = 0; i < replays.size(); ++i) {
    EXPECT_TRUE(replays[i].ok) << replays[i].path;
    // 17-significant-digit round trip: bit-equal, not merely close.
    EXPECT_EQ(replays[i].replayed_ratio, replays[i].recorded_ratio)
        << replays[i].path;
    EXPECT_EQ(replays[i].recorded_ratio,
              campaign.results[i].shrunk_ratio)
        << replays[i].path;
  }
}

// The committed regression corpus: every shrunk adversary under
// ci/adversaries/ must keep realizing its recorded ratio (an allocator
// change that quietly *improves* on a known adversary is fine; one that
// regresses the recorded ratio fails here before it reaches CI's
// campaign smoke).
TEST(PerfAdv, CommittedAdversariesHoldTheirRatios) {
  const std::string dir =
      std::string(MEMREAL_SOURCE_DIR) + "/ci/adversaries";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  const std::vector<AdvReplay> replays =
      replay_adversaries(dir, /*retain=*/0.99);
  ASSERT_GE(replays.size(), 3u);
  for (const AdvReplay& r : replays) {
    EXPECT_TRUE(r.ok) << r.path << ": replayed " << r.replayed_ratio
                      << " vs recorded " << r.recorded_ratio;
    EXPECT_LT(r.replayed_ratio, r.budget_ceiling) << r.path;
  }
}

// --- Scenario zoo -----------------------------------------------------

// Every registry allocator must have at least one compatible scenario at
// its search eps, and each compatible scenario must generate a
// well-formed sequence whose shape the allocator's own predicate
// accepts.
TEST(PerfAdv, ZooServesEveryRegistryAllocator) {
  constexpr Tick kCap = Tick{1} << 40;
  for (const AllocatorInfo& info : allocator_infos()) {
    const double eps = adv_search_eps(info, 0.0, kCap);
    EXPECT_LE(eps, info.max_eps) << info.name;
    const std::vector<std::string> compat =
        compatible_scenarios(info, eps, kCap);
    EXPECT_FALSE(compat.empty()) << info.name;
    for (const std::string& name : compat) {
      const ScenarioParams p =
          scenario_params_for(info, eps, kCap, /*updates=*/64, /*seed=*/7);
      const Sequence seq = make_scenario(name, p);
      seq.check_well_formed();
      EXPECT_GT(seq.size(), 0u) << info.name << "/" << name;
      const ScenarioInfo* s = find_scenario(name);
      ASSERT_NE(s, nullptr);
      std::string why;
      EXPECT_TRUE(info.serves(scenario_shape(*s, p), eps, kCap, &why))
          << info.name << "/" << name << ": " << why;
    }
  }
}

// An incompatible (scenario, allocator) pair is rejected up front with a
// reason, never mid-run: SIMPLE's band spans one doubling, so the
// Bender-style ladder cannot fit.
TEST(PerfAdv, IncompatibleScenarioIsRejectedWithReason) {
  const AllocatorInfo simple = allocator_info("simple");
  const std::string why = scenario_incompatibility(
      "db_page_churn", simple, simple.default_eps, Tick{1} << 40);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("simple"), std::string::npos);

  AdvSearchConfig cfg = small_config("simple");
  cfg.scenarios = {"db_page_churn"};
  EXPECT_THROW((void)run_adv_search(cfg), InvariantViolation);
}

// The fill ceiling is a search policy, not an admissibility rule: at eps
// 1/32 over 2^40, tinyslab's band needs millions of fill updates, so
// search and fuzz seeding refuse it while the drivers (no ceiling) run it.
TEST(PerfAdv, SeedCeilingAppliesToSearchNotDrivers) {
  const AllocatorInfo tinyslab = allocator_info("tinyslab");
  constexpr Tick kCap = Tick{1} << 40;
  EXPECT_EQ(scenario_rejection("churn", tinyslab, 1.0 / 32, kCap,
                               kNoFillCeiling),
            "");
  const std::string why = scenario_rejection("churn", tinyslab, 1.0 / 32,
                                             kCap, kMaxScenarioSeedUpdates);
  EXPECT_NE(why.find("fill phase would need"), std::string::npos) << why;
  EXPECT_NE(why.find("compatible scenarios for tinyslab"), std::string::npos)
      << why;
  EXPECT_FALSE(scenario_incompatibility("churn", tinyslab, 1.0 / 32, kCap)
                   .empty());
}

// A tick-native driver (memreal_serve) refuses byte-addressed scenarios
// and leaves them out of the compatible list; unknown names are refused
// with the registry.
TEST(PerfAdv, RejectionNamesTickNativeAlternatives) {
  const AllocatorInfo simple = allocator_info("simple");
  constexpr Tick kCap = Tick{1} << 40;
  EXPECT_EQ(scenario_rejection("vm_heap", simple, 1.0 / 64, kCap,
                               kNoFillCeiling),
            "");
  const std::string why = scenario_rejection(
      "vm_heap", simple, 1.0 / 64, kCap, kNoFillCeiling, /*tick_native=*/true);
  EXPECT_NE(why.find("byte-addressed"), std::string::npos) << why;
  EXPECT_NE(why.find("compatible scenarios for simple: churn"),
            std::string::npos)
      << why;
  EXPECT_EQ(why.find("vm_heap)"), std::string::npos) << why;
  const std::string unknown =
      scenario_rejection("nope", simple, 1.0 / 64, kCap, kNoFillCeiling);
  EXPECT_NE(unknown.find("unknown scenario 'nope'"), std::string::npos);
}

// The eps auto-bump: tinyslab-family bands need ~eps^-4 fill items, so
// the search eps doubles (never past the registry ceiling) until zoo
// fills are feasible; an explicit request always wins.
TEST(PerfAdv, SearchEpsRespectsCeilingAndRequests) {
  constexpr Tick kCap = Tick{1} << 40;
  for (const AllocatorInfo& info : allocator_infos()) {
    const double eps = adv_search_eps(info, 0.0, kCap);
    EXPECT_GE(eps, info.default_eps) << info.name;
    EXPECT_LE(eps, info.max_eps) << info.name;
    EXPECT_EQ(adv_search_eps(info, 1.0 / 64, kCap), 1.0 / 64) << info.name;
  }
  // flexhash's hashed placement caps eps at 1/16; the bump must stop
  // there even though its tiny band would prefer a higher eps.
  const AllocatorInfo flexhash = allocator_info("flexhash");
  EXPECT_EQ(adv_search_eps(flexhash, 0.0, kCap), flexhash.max_eps);
}

}  // namespace
}  // namespace memreal
