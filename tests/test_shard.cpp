// Tests for the sharded multi-cell engine: router policies, S = 1
// equivalence with the plain Engine, validated S > 1 runs, fallback
// routing, migration/rebalancing, and thread-count invariance.
#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness/cell.h"
#include "mem/memory.h"
#include "shard/router.h"
#include "shard/sharded_engine.h"
#include "testing.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/multi_tenant.h"

namespace memreal {
namespace {

constexpr Tick kShardCap = Tick{1} << 30;
constexpr double kEps = 1.0 / 64;

Sequence shard_churn(std::size_t shards, std::size_t updates,
                     std::uint64_t seed, double target_load = 0.7) {
  ChurnConfig c;
  c.capacity = kShardCap * shards;
  c.eps = kEps;
  c.min_size = static_cast<Tick>(kEps * static_cast<double>(kShardCap));
  c.max_size = static_cast<Tick>(2 * kEps * static_cast<double>(kShardCap)) - 1;
  c.target_load = target_load;
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

/// GEO's size-class boundaries need more resolution than 2^30 ticks at
/// this eps, so the cross-allocator equivalence test runs on wider cells.
constexpr Tick kWideShardCap = Tick{1} << 40;

/// Churn whose sizes come from the allocator's registered band over the
/// shard capacity, so any registry allocator can serve it.
Sequence admissible_churn(const std::string& allocator, std::size_t shards,
                          std::size_t updates, std::uint64_t seed) {
  const AllocatorInfo info = allocator_info(allocator);
  ChurnConfig c;
  c.capacity = kWideShardCap * shards;
  c.eps = kEps;
  c.min_size = info.sizes.min_size(kEps, kWideShardCap);
  c.max_size = info.sizes.max_size(kEps, kWideShardCap) - 1;
  c.target_load = 0.7;
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

ShardedConfig shard_config(const std::string& allocator, std::size_t shards,
                           const std::string& router = "hash") {
  ShardedConfig c;
  c.allocator = allocator;
  c.params.eps = kEps;
  c.params.seed = 1;
  c.shards = shards;
  c.shard_capacity = kShardCap;
  c.eps = kEps;
  c.router = router;
  return c;
}

using testing::expect_same_layout;

// -- Router policies --------------------------------------------------------

TEST(Router, HashIsDeterministicInRangeAndSpreads) {
  auto r1 = make_router("hash", 8);
  auto r2 = make_router("hash", 8);
  std::set<std::size_t> hit;
  for (ItemId id = 1; id <= 200; ++id) {
    const std::size_t s = r1->route(id, 64);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, r2->route(id, 64));  // pure function of the id
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 8u);  // 200 ids must touch all 8 shards
}

TEST(Router, RoundRobinCycles) {
  auto r = make_router("round-robin", 3);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(r->route(static_cast<ItemId>(1000 + i), 64), i % 3);
  }
}

TEST(Router, SizeClassGroupsBySizeNotId) {
  auto r = make_router("size-class", 4);
  const std::size_t a = r->route(1, 4096);
  EXPECT_EQ(r->route(999, 5000), a);  // same log2 class, any id
  EXPECT_NE(r->route(2, 8192), a);    // adjacent class, different shard
}

TEST(Router, UnknownPolicyErrorListsKnownNames) {
  try {
    (void)make_router("best-fit", 2);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("best-fit"), std::string::npos);
    for (const std::string& name : router_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
  EXPECT_THROW((void)make_router("hash", 0), InvariantViolation);
}

// -- S = 1 equivalence ------------------------------------------------------

class ShardedEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedEquivalence, SingleShardMatchesPlainEngineExactly) {
  const std::string allocator = GetParam();
  const Sequence seq = admissible_churn(allocator, 1, 600, 7);

  CellConfig cell;
  cell.allocator = allocator;
  cell.params.eps = kEps;
  cell.params.seed = 1;
  Cell plain(seq.capacity, seq.eps_ticks, cell);
  const RunStats plain_stats = plain.engine().run(seq.updates);
  plain.memory().audit();

  for (const char* router : {"hash", "size-class", "round-robin"}) {
    ShardedConfig config = shard_config(allocator, 1, router);
    config.shard_capacity = kWideShardCap;
    ShardedEngine sharded(config);
    const ShardedRunStats stats = sharded.run(seq);
    sharded.audit();

    // Exact equality: one shard serves the identical update stream with
    // the identical allocator seed, so every cost is bit-for-bit equal.
    EXPECT_EQ(stats.global.updates, plain_stats.updates);
    EXPECT_EQ(stats.global.moved_mass, plain_stats.moved_mass);
    EXPECT_EQ(stats.global.update_mass, plain_stats.update_mass);
    EXPECT_EQ(stats.global.mean_cost(), plain_stats.mean_cost());
    EXPECT_EQ(stats.global.max_cost(), plain_stats.max_cost());
    EXPECT_EQ(stats.fallback_routes, 0u);
    expect_same_layout(plain.memory(), sharded.memory(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Allocators, ShardedEquivalence,
                         ::testing::Values("folklore-compact", "simple",
                                           "geo"));

// -- Validated S > 1 runs ---------------------------------------------------

TEST(ShardedEngine, ChurnAcrossShardsPassesValidationAndAudit) {
  for (const char* router : {"hash", "size-class", "round-robin"}) {
    const Sequence seq = shard_churn(4, 1'200, 3);
    ShardedConfig config = shard_config("simple", 4, router);
    config.audit_every = 64;  // belt-and-suspenders on top of incremental
    config.batch_size = 256;
    ShardedEngine engine(config);
    const ShardedRunStats stats = engine.run(seq);
    engine.audit();

    EXPECT_EQ(stats.global.updates, seq.updates.size());
    std::size_t per_shard_total = 0;
    for (const RunStats& s : stats.per_shard) per_shard_total += s.updates;
    EXPECT_EQ(per_shard_total, seq.updates.size());
    EXPECT_EQ(stats.shards, 4u);
    EXPECT_GT(stats.batches, 1u);
    EXPECT_GE(stats.imbalance(), 1.0);
  }
}

TEST(ShardedEngine, AdversarialSawtoothAcrossShards) {
  SawtoothConfig c;
  c.capacity = kShardCap * 4;
  c.eps = kEps;
  c.min_size = static_cast<Tick>(kEps * static_cast<double>(kShardCap));
  c.max_size = 2 * c.min_size - 1;
  c.teeth = 2;
  const Sequence seq = make_sawtooth(c);
  ShardedEngine engine(shard_config("folklore-compact", 4));
  engine.run(seq);
  engine.audit();
}

TEST(ShardedEngine, MultiTenantSkewAcrossShards) {
  MultiTenantConfig c;
  c.capacity = kShardCap * 4;
  c.eps = kEps;
  c.tenants = 6;
  c.zipf_s = 1.5;
  c.min_size = static_cast<Tick>(kEps * static_cast<double>(kShardCap));
  c.max_size = 2 * c.min_size - 1;
  c.churn_updates = 1'000;
  const Sequence seq = make_multi_tenant(c);
  ShardedEngine engine(shard_config("simple", 4, "size-class"));
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();
  EXPECT_EQ(stats.global.updates, seq.updates.size());
}

// -- Fallback routing -------------------------------------------------------

TEST(ShardedEngine, OverloadedShardFallsBackToLeastLoaded) {
  // Every item lands in one log2 size class, so the size-class router
  // proposes the same shard for all of them; at 0.8 global load that is
  // ~1.6 shard budgets of mass, which must spill to the other shard.
  const Sequence seq = shard_churn(2, 400, 5, /*target_load=*/0.8);
  ShardedEngine engine(shard_config("simple", 2, "size-class"));
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();
  EXPECT_GT(stats.fallback_routes, 0u);
  // Both shards ended up carrying live mass.
  EXPECT_GT(engine.memory(0).live_mass(), 0u);
  EXPECT_GT(engine.memory(1).live_mass(), 0u);
}

TEST(ShardedEngine, ItemFittingNoShardThrows) {
  // A single item larger than one shard's budget honours the *global*
  // promise but can never be placed.
  SequenceBuilder b("too-big", 2 * kShardCap, kEps);
  b.insert(kShardCap);  // > shard budget = kShardCap * (1 - eps)
  const Sequence seq = b.take();
  ShardedEngine engine(shard_config("folklore-compact", 2));
  EXPECT_THROW(engine.run(seq), InvariantViolation);
}

// The cells' eps budget comes from eps and the allocator's from
// params.eps, so a config where they disagree is rejected; shard_index is
// per-cell state the engine assigns.
TEST(ShardedEngine, RejectsMismatchedEpsAndCallerShardIndex) {
  ShardedConfig mismatched = shard_config("simple", 2);
  mismatched.params.eps = kEps / 2;
  try {
    ShardedEngine engine(mismatched);
    FAIL() << "a config with eps != params.eps was accepted";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees with params.eps"),
              std::string::npos)
        << e.what();
  }
  ShardedConfig indexed = shard_config("simple", 2);
  indexed.shard_index = 0;
  EXPECT_THROW(ShardedEngine{indexed}, InvariantViolation);
}

TEST(ShardedEngine, FindShardNamesTheShardHoldingEachLiveItem) {
  const Sequence seq = shard_churn(2, 300, 13);
  ShardedEngine engine(shard_config("simple", 2));
  engine.run(seq);
  std::set<ItemId> live;
  for (const Update& u : seq.updates) {
    if (u.is_insert()) {
      live.insert(u.id);
    } else {
      live.erase(u.id);
    }
  }
  std::size_t deleted = 0;
  for (const Update& u : seq.updates) {
    const std::optional<std::size_t> s = engine.find_shard(u.id);
    if (live.contains(u.id)) {
      ASSERT_TRUE(s.has_value()) << "live item " << u.id;
      EXPECT_TRUE(engine.memory(*s).contains(u.id)) << "item " << u.id;
    } else {
      EXPECT_FALSE(s.has_value()) << "deleted item " << u.id;
      ++deleted;
    }
  }
  EXPECT_GT(deleted, 0u);
  EXPECT_FALSE(live.empty());
  ItemId unseen = 1;
  while (std::any_of(seq.updates.begin(), seq.updates.end(),
                     [&](const Update& u) { return u.id == unseen; })) {
    ++unseen;
  }
  EXPECT_FALSE(engine.find_shard(unseen).has_value());
}

// -- Migration and rebalancing ----------------------------------------------

TEST(ShardedEngine, MigrateMovesItemAndChargesCost) {
  const Sequence seq = shard_churn(2, 200, 11);
  ShardedEngine engine(shard_config("simple", 2));
  const ShardedRunStats before = engine.run(seq);

  // Find any live item and push it to the other shard.
  const auto snapshot = engine.memory(0).item_count() > 0
                            ? engine.memory(0).snapshot()
                            : engine.memory(1).snapshot();
  ASSERT_FALSE(snapshot.empty());
  const ItemId id = snapshot.front().id;
  const Tick size = snapshot.front().size;
  const std::size_t from = engine.find_shard(id).value();
  const std::size_t to = 1 - from;

  engine.migrate(id, to);
  engine.audit();
  EXPECT_EQ(engine.find_shard(id).value(), to);
  EXPECT_TRUE(engine.memory(to).contains(id));
  EXPECT_FALSE(engine.memory(from).contains(id));

  const ShardedRunStats after = engine.stats();
  EXPECT_EQ(after.migrations, before.migrations + 1);
  EXPECT_EQ(after.migrated_mass, before.migrated_mass + size);
  // The migration is charged like updates: one delete + one insert.
  EXPECT_EQ(after.global.updates, before.global.updates + 2);
  EXPECT_GE(after.global.moved_mass, before.global.moved_mass + size);

  // Migrating to the current shard is a no-op.
  engine.migrate(id, to);
  EXPECT_EQ(engine.stats().migrations, after.migrations);
}

TEST(ShardedEngine, RebalanceReducesLiveMassImbalance) {
  // size-class routing piles every item onto one shard of four.
  const Sequence seq = shard_churn(4, 400, 13, /*target_load=*/0.3);
  ShardedEngine engine(shard_config("simple", 4, "size-class"));
  engine.run(seq);

  auto max_over_mean = [&] {
    Tick total = 0;
    Tick max_mass = 0;
    for (std::size_t s = 0; s < engine.shard_count(); ++s) {
      total += engine.memory(s).live_mass();
      max_mass = std::max(max_mass, engine.memory(s).live_mass());
    }
    return static_cast<double>(max_mass) * 4.0 / static_cast<double>(total);
  };
  const double before = max_over_mean();
  ASSERT_GT(before, 2.0);  // heavily skewed by construction

  const std::size_t moves = engine.rebalance(1.25);
  engine.audit();
  EXPECT_GT(moves, 0u);
  EXPECT_LE(max_over_mean(), 1.25);
  EXPECT_EQ(engine.stats().migrations, moves);
}

TEST(ShardedEngine, RebalanceThresholdRunsBetweenBatches) {
  ShardedConfig config = shard_config("simple", 4, "size-class");
  config.batch_size = 128;
  config.rebalance_threshold = 1.5;
  const Sequence seq = shard_churn(4, 600, 17, /*target_load=*/0.3);
  ShardedEngine engine(config);
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();
  EXPECT_GT(stats.migrations, 0u);
}

// -- Determinism ------------------------------------------------------------

TEST(ShardedEngine, ResultIndependentOfThreadCount) {
  const Sequence seq = shard_churn(4, 800, 19);
  ShardedConfig one = shard_config("simple", 4);
  one.threads = 1;
  ShardedConfig many = shard_config("simple", 4);
  many.threads = 4;

  ShardedEngine e1(one);
  ShardedEngine e4(many);
  const ShardedRunStats s1 = e1.run(seq);
  const ShardedRunStats s4 = e4.run(seq);

  EXPECT_EQ(s1.global.updates, s4.global.updates);
  EXPECT_EQ(s1.global.moved_mass, s4.global.moved_mass);
  EXPECT_EQ(s1.fallback_routes, s4.fallback_routes);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(s1.per_shard[s].moved_mass, s4.per_shard[s].moved_mass);
    expect_same_layout(e1.memory(s), e4.memory(s));
  }
}

// -- Multi-tenant generator --------------------------------------------------

TEST(MultiTenant, GeneratesWellFormedSequenceWithinBand) {
  MultiTenantConfig c;
  c.capacity = Tick{1} << 32;
  c.eps = kEps;
  c.tenants = 4;
  c.zipf_s = 1.0;
  c.churn_updates = 500;
  const Sequence seq = make_multi_tenant(c);
  seq.check_well_formed();
  EXPECT_EQ(seq.name, "multi-tenant");
  const auto cap_d = static_cast<double>(c.capacity);
  const auto lo = static_cast<Tick>(kEps * cap_d);
  const auto hi = static_cast<Tick>(2 * kEps * cap_d) - 1;
  for (const Update& u : seq.updates) {
    EXPECT_GE(u.size, lo);
    EXPECT_LE(u.size, hi);
  }
}

TEST(MultiTenant, ZipfSkewsTowardLowTenants) {
  // With strong skew, sizes from the head tenant's (smallest-size) band
  // must dominate the insert stream.
  MultiTenantConfig c;
  c.capacity = Tick{1} << 32;
  c.eps = kEps;
  c.tenants = 4;
  c.zipf_s = 2.0;
  c.churn_updates = 2'000;
  const Sequence seq = make_multi_tenant(c);
  const auto cap_d = static_cast<double>(c.capacity);
  const auto lo = static_cast<Tick>(kEps * cap_d);
  const auto hi = static_cast<Tick>(2 * kEps * cap_d) - 1;
  // First band edge, mirroring the generator's log partition.
  const double ratio = (static_cast<double>(hi) + 1) / static_cast<double>(lo);
  const auto band0_hi = static_cast<Tick>(static_cast<double>(lo) *
                                          std::pow(ratio, 1.0 / 4.0));
  std::size_t head = 0;
  std::size_t inserts = 0;
  for (const Update& u : seq.updates) {
    if (!u.is_insert()) continue;
    ++inserts;
    if (u.size < band0_hi) ++head;
  }
  ASSERT_GT(inserts, 0u);
  // Uniform tenants would put ~25% in band 0; zipf_s = 2 puts ~70% there.
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(inserts), 0.5);
}

TEST(MultiTenant, RejectsMoreTenantsThanDistinctSizes) {
  MultiTenantConfig c;
  c.capacity = Tick{1} << 32;
  c.eps = kEps;
  c.min_size = 10;
  c.max_size = 12;  // 3 distinct sizes
  c.tenants = 4;
  EXPECT_THROW((void)make_multi_tenant(c), InvariantViolation);
}

}  // namespace
}  // namespace memreal
