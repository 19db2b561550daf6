// Tests for the engine and cost accounting (both amortization conventions
// from Section 3).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "testing.h"
#include "util/check.h"

namespace memreal {
namespace {

/// A trivial allocator that appends inserts and compacts on every delete —
/// predictable costs for accounting tests.
class AppendCompact final : public Allocator {
 public:
  explicit AppendCompact(LayoutStore& mem) : mem_(&mem) {}

  void insert(ItemId id, Tick size) override {
    const Tick off = order_.empty() ? 0 : mem_->end_of(order_.back());
    mem_->place(id, off, size);
    order_.push_back(id);
  }

  void erase(ItemId id) override {
    auto it = std::find(order_.begin(), order_.end(), id);
    MEMREAL_CHECK(it != order_.end());
    order_.erase(it);
    mem_->remove(id);
    Tick off = 0;
    for (ItemId x : order_) {
      mem_->move_to(x, off);
      off += mem_->extent_of(x);
    }
  }

  [[nodiscard]] std::string_view name() const override {
    return "append-compact";
  }

 private:
  LayoutStore* mem_;
  std::vector<ItemId> order_;
};

TEST(Engine, InsertCostsOne) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  EXPECT_DOUBLE_EQ(engine.step(Update::insert(1, 1000)), 1.0);
  EXPECT_DOUBLE_EQ(engine.step(Update::insert(2, 500)), 1.0);
}

TEST(Engine, DeleteCostCountsCompaction) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  engine.step(Update::insert(1, 1000));
  engine.step(Update::insert(2, 500));
  engine.step(Update::insert(3, 2000));
  // Deleting item 1 moves items 2 and 3: cost (500 + 2000) / 1000 = 2.5.
  EXPECT_DOUBLE_EQ(engine.step(Update::erase(1, 1000)), 2.5);
}

TEST(Engine, StatsTrackBothConventions) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  engine.step(Update::insert(1, 1000));
  engine.step(Update::insert(2, 500));
  engine.step(Update::erase(1, 1000));  // moves 500: cost 0.5
  const RunStats& s = engine.stats();
  EXPECT_EQ(s.updates, 3u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.deletes, 1u);
  // Convention (i): mean of per-update costs = (1 + 1 + 0.5) / 3.
  EXPECT_NEAR(s.mean_cost(), 2.5 / 3.0, 1e-12);
  // Convention (ii): total moved / total update mass = 2000 / 2500.
  EXPECT_NEAR(s.ratio_cost(), 2000.0 / 2500.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.max_cost(), 1.0);
}

TEST(Engine, DeleteOfAbsentItemRejected) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  EXPECT_THROW(engine.step(Update::erase(99, 10)), InvariantViolation);
}

TEST(Engine, SizeMismatchRejected) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  engine.step(Update::insert(1, 1000));
  EXPECT_THROW(engine.step(Update::erase(1, 999)), InvariantViolation);
}

TEST(Engine, OnUpdateCallbackFires) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  EngineOptions opts;
  std::vector<double> costs;
  opts.on_update = [&](std::size_t, const Update&, double c) {
    costs.push_back(c);
  };
  Engine engine(mem, alloc, opts);
  engine.step(Update::insert(1, 100));
  engine.step(Update::erase(1, 100));
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_DOUBLE_EQ(costs[0], 1.0);
  EXPECT_DOUBLE_EQ(costs[1], 0.0);
}

TEST(Engine, RunAggregates) {
  Memory mem = testing::strict_memory(1'000'000, 0.25);
  AppendCompact alloc(mem);
  Engine engine(mem, alloc);
  std::vector<Update> seq{Update::insert(1, 100), Update::insert(2, 100),
                          Update::erase(1, 100), Update::erase(2, 100)};
  const RunStats s = engine.run(seq);
  EXPECT_EQ(s.updates, 4u);
  EXPECT_GE(s.wall_seconds, 0.0);
}

TEST(RunStats, MergeAddsUp) {
  RunStats a, b;
  a.record(true, 100, 100);
  b.record(false, 50, 200);
  a.merge(b);
  EXPECT_EQ(a.updates, 2u);
  EXPECT_EQ(a.moved_mass, 300u);
  EXPECT_EQ(a.update_mass, 150u);
  EXPECT_EQ(a.inserts, 1u);
  EXPECT_EQ(a.deletes, 1u);
}

TEST(RunStats, MergeRejectsAWrappingTotal) {
  RunStats a, b;
  a.record(true, Tick{1} << 63, 0);
  b.record(true, Tick{1} << 63, 0);
  EXPECT_THROW(a.merge(b), InvariantViolation);
  EXPECT_EQ(a.updates, 1u);  // the failed merge changed nothing
  EXPECT_EQ(a.update_mass, Tick{1} << 63);
}

TEST(RunStats, MassTotalsThrowAtTheUpdateThatWouldWrap) {
  // FOLKLORE-COMPACT at capacity 2^62, eps 1/4, one 2^61-tick item at a
  // time inserted and deleted five times: 10 x 2^61 ticks of update mass
  // pass 2^64.  Unchecked, update_mass wraps to 2^62 and ratio_cost()
  // reads 2.5 against a mean_cost() of 0.5.  The eighth update, the first
  // to reach 2^64, must throw instead, on either engine.
  constexpr Tick kCapacity = Tick{1} << 62;
  constexpr Tick kSize = Tick{1} << 61;
  for (const std::string engine : {"validated", "release"}) {
    CellConfig config;
    config.engine = engine;
    config.allocator = "folklore-compact";
    config.params.eps = 0.25;
    Cell cell(kCapacity, Eps::of(0.25, kCapacity).ticks, config);
    for (ItemId id = 0; id < 4; ++id) {
      cell.step(Update::insert(id, kSize));
      if (id < 3) cell.step(Update::erase(id, kSize));
    }
    EXPECT_THROW(cell.step(Update::erase(3, kSize)), InvariantViolation)
        << engine;
    EXPECT_EQ(cell.stats().updates, 7u) << engine;
    EXPECT_EQ(cell.stats().update_mass, 7 * kSize) << engine;
  }
}

TEST(Update, FactoryAndEquality) {
  const Update a = Update::insert(1, 10);
  const Update b = Update::erase(1, 10);
  EXPECT_TRUE(a.is_insert());
  EXPECT_FALSE(b.is_insert());
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Update::insert(1, 10));
}

}  // namespace
}  // namespace memreal
