// The traced cell must be a pure observer: run through TimingStore
// decorators it yields bit-identical per-update costs, final layout and
// RunStats to the undecorated release cell make_cell builds.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/cell.h"
#include "perfadv/zoo.h"
#include "traced_cell.h"

namespace {

struct Case {
  std::string allocator;
  std::string scenario;
  double eps;
  int capacity_log2;
  bool arena;
  memreal::Tick bytes_per_tick;
  /// Overrides keeping a byte arena small (0 = the scenario's default).
  memreal::Tick max_size = 0;
  double target_load = 0.0;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return info.param.allocator + "_" + info.param.scenario +
         (info.param.arena ? "_arena" : "_plain");
}

class TimingStoreEquivalence : public testing::TestWithParam<Case> {};

TEST_P(TimingStoreEquivalence, CostsLayoutAndStatsMatchUndecoratedCell) {
  const Case& c = GetParam();
  const memreal::Tick capacity = memreal::Tick{1} << c.capacity_log2;
  const memreal::Tick eps_ticks = memreal::Eps::of(c.eps, capacity).ticks;
  memreal::ScenarioParams p = memreal::scenario_params_for(
      memreal::allocator_info(c.allocator), c.eps, capacity, 600, 7);
  p.bytes_per_tick = c.bytes_per_tick;
  if (c.max_size != 0) p.max_size = c.max_size;
  if (c.target_load != 0.0) p.target_load = c.target_load;
  const memreal::Sequence seq = memreal::make_scenario(c.scenario, p);

  memreal::CellConfig config;
  config.engine = "release";
  config.allocator = c.allocator;
  config.params.eps = c.eps;
  config.params.seed = 7;
  config.arena = c.arena;
  config.bytes_per_tick = c.bytes_per_tick;
  const std::unique_ptr<memreal::Cell> plain =
      memreal::make_cell(capacity, eps_ticks, config);
  perfbench::TracedCell traced(capacity, eps_ticks, c.allocator,
                               config.params, c.arena, c.bytes_per_tick);

  for (std::size_t i = 0; i < seq.size(); ++i) {
    const double want = plain->step(seq.updates[i]);
    ASSERT_EQ(traced.step(seq.updates[i]), want) << "update " << i;
  }
  traced.audit();
  plain->audit();

  const auto a = plain->memory().snapshot();
  const auto b = traced.memory().snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].extent, b[i].extent);
  }
  const memreal::RunStats& s = plain->stats();
  const memreal::RunStats& t = traced.stats();
  EXPECT_EQ(s.updates, t.updates);
  EXPECT_EQ(s.moved_mass, t.moved_mass);
  EXPECT_EQ(s.update_mass, t.update_mass);
  EXPECT_EQ(s.moved_bytes, t.moved_bytes);
  if (c.arena) {
    EXPECT_GT(t.moved_bytes, 0u);
  }

  // The decorators saw the work: every update bracketed, moves counted.
  const perfbench::StoreTotals& top = traced.top_layer().totals();
  EXPECT_EQ(top.calls[static_cast<std::size_t>(perfbench::Op::kTxn)],
            2 * seq.size());
  EXPECT_GT(traced.release_layer().totals().moves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Allocators, TimingStoreEquivalence,
    testing::Values(Case{"combined", "churn", 1.0 / 8, 30, false, 1},
                    // COMBINED needs ~2^30 ticks (FlexHash's anchor
                    // region), so its arena case uses byte ticks, small
                    // items and a low load to keep the payload ~50 MB.
                    Case{"combined", "churn", 1.0 / 8, 30, true, 1,
                         memreal::Tick{1} << 16, 0.05},
                    Case{"simple", "churn", 1.0 / 64, 20, false, 8},
                    Case{"simple", "vm_heap", 1.0 / 64, 20, true, 8}),
    case_name);

}  // namespace
