// The sharded multi-cell engine.
//
// The paper's allocators each manage ONE contiguous cell [0, capacity).
// ShardedEngine scales that out the way production reallocators do: it
// owns S independent Cells (harness/cell.h), routes every item to a cell
// via a pluggable Router policy, and applies update batches in parallel on
// a ThreadPool — one task per shard, each task replaying that shard's
// sub-sequence in global order.
//
// Correctness model:
//   * Routing is a *sequential* pass over the batch.  It assigns every
//     insert a shard (router proposal, least-loaded fallback when the
//     proposal would break the shard's load-factor promise) and sends
//     every delete to the shard its item lives on.  Because the pass
//     tracks per-shard live mass exactly as the apply phase will evolve
//     it, admission decisions made at route time are exact, not
//     heuristic.
//   * Apply is parallel across shards but in-order within a shard, so
//     each cell sees a well-formed single-cell sequence.  Cells share
//     nothing; the final state is a pure function of (sequence, config)
//     and in particular independent of the thread count.
//   * Every cell runs the same Engine; `engine` picks its store.  With
//     the default "validated" store every cell keeps the full validation
//     stack (incremental per-update checks, optional audit cadence,
//     allocator self-checks) — a sharded run is as verified as S
//     single-cell runs.  With engine = "release" the cells run over the
//     unchecked SlabStore: the engine's per-update usage checks and the
//     allocator self-check cadence still apply, and audit() remains an
//     explicit full check.
//
// With S = 1 and the same allocator seed, ShardedEngine is update-for-
// update identical to a plain Engine run: one shard, every update routed
// to it in order, no fallback possible (test_shard locks this in).
//
// Rebalancing: migrate() moves one item between shards as a delete +
// insert through the cells' engines, so migration mass is charged to the
// per-shard costs like any other update.  rebalance() is the built-in
// policy: greedily move items from the most- to the least-loaded shard
// until live-mass imbalance drops under a threshold; it runs between
// batches when ShardedConfig::rebalance_threshold is set.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "core/run_stats.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "util/flat_map.h"
#include "shard/router.h"
#include "util/parallel.h"
#include "workload/sequence.h"

namespace memreal {

struct ShardedConfig {
  /// Cell store for every shard: "validated" or "release" (see
  /// harness/cell.h).
  std::string engine = "validated";
  std::string allocator;   ///< registry name, used for every cell
  AllocatorParams params;  ///< shard 0 runs params.seed verbatim; shard
                           ///< s > 0 derives an independent stream from it
  std::size_t shards = 1;
  /// Per-cell geometry.  The global footprint is shards * shard_capacity;
  /// workloads for an S-shard run should be generated with that total
  /// capacity and item sizes in the allocator's band of *shard_capacity*.
  Tick shard_capacity = kDefaultCapacity;
  double eps = 1.0 / 64;
  std::string router = "hash";  ///< see router.h for the policy names
  std::size_t threads = 0;      ///< 0 = all cores (capped at shards)
  /// Updates routed + applied per parallel round; 0 = whole run in one
  /// batch.  Smaller batches mean more frequent rebalancing points.
  std::size_t batch_size = 0;
  /// Live-mass imbalance ratio (max shard / mean) above which rebalance()
  /// runs after a batch; 0 disables, otherwise must be >= 1.
  double rebalance_threshold = 0.0;
  // Per-cell validation knobs (CellConfig semantics).
  bool incremental_validation = true;
  std::size_t audit_every = 0;
  std::size_t check_invariants_every = 0;
  // Byte-space knobs (CellConfig semantics): arena = true backs every
  // shard's cell with a real byte arena, so a sharded run reports the
  // moved-bytes channel and verifies payload stamps.
  bool arena = false;
  Tick bytes_per_tick = 8;
  bool verify_payloads = true;
  /// Observability (CellConfig semantics): when set, every cell registers
  /// per-shard instruments under {allocator, engine, shard, workload} and
  /// the router registers fallback/migration/batch counters.
  obs::MetricRegistry* metrics = nullptr;
  std::string workload_label;
};

/// Aggregated statistics of a sharded run: the merged global RunStats plus
/// the per-shard breakdown the ROADMAP's scaling experiments read.
struct ShardedRunStats {
  RunStats global;                  ///< merge() of all shards; wall_seconds
                                    ///< is the *parallel* wall, not the sum
  std::vector<RunStats> per_shard;  ///< cumulative per cell (incl. migrations)

  std::size_t shards = 0;
  std::size_t batches = 0;
  std::size_t fallback_routes = 0;  ///< inserts diverted off their proposal
  std::size_t migrations = 0;
  Tick migrated_mass = 0;

  /// Max / median over shards of the per-shard ratio cost.
  [[nodiscard]] double max_shard_cost() const;
  [[nodiscard]] double median_shard_cost() const;
  /// Work imbalance: max shard update mass over mean shard update mass
  /// (1.0 = perfectly balanced; 0 when no mass was updated).
  [[nodiscard]] double imbalance() const;
  [[nodiscard]] double updates_per_second() const;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedConfig& config);

  /// Routes and applies the whole sequence (in batch_size rounds) and
  /// returns the cumulative statistics.  May be called repeatedly; state
  /// carries over like Engine::run.  Throws InvariantViolation if any
  /// cell's validation trips, or if an insert fits no shard at all.
  ShardedRunStats run(const Sequence& seq);

  /// Cumulative statistics so far (also what run() returned last).
  [[nodiscard]] ShardedRunStats stats() const;

  /// Moves one live item to `to_shard` as a delete + insert through the
  /// cell engines (its mass is charged to both shards' costs).  No-op if
  /// the item already lives there; throws if the target cannot accept it.
  void migrate(ItemId id, std::size_t to_shard);

  /// Greedy live-mass rebalancing: repeatedly move the largest item that
  /// halves the max-min gap from the fullest to the emptiest shard, until
  /// max live mass <= threshold * mean live mass (threshold >= 1) or no
  /// move helps.  Returns the number of migrations performed.
  std::size_t rebalance(double threshold);

  /// Full audit of every cell: memory audit + allocator self-check.
  void audit() const;

  /// Routes one update exactly as the batch path would — placement map,
  /// live-mass tracking, least-loaded fallback — and returns its shard
  /// WITHOUT enqueuing or applying it.  The online serving layer
  /// (src/serve) shares the batch path's admission logic through this
  /// hook, which is what makes its deterministic mode bit-identical to
  /// run().  Not thread-safe; the caller serializes.
  std::size_t route_update(const Update& update);

  /// Direct cell access for the serving layer's per-shard workers.
  [[nodiscard]] Cell& cell(std::size_t shard) { return *cells_.at(shard); }

  [[nodiscard]] std::size_t shard_count() const { return cells_.size(); }
  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }
  /// Which shard a live item is placed on; throws for absent ids.
  [[nodiscard]] std::size_t shard_of(ItemId id) const;
  /// Non-throwing variant: nullopt when the item is not live.
  [[nodiscard]] std::optional<std::size_t> find_shard(ItemId id) const;
  [[nodiscard]] LayoutStore& memory(std::size_t shard) {
    return cells_.at(shard)->memory();
  }
  [[nodiscard]] Allocator& allocator(std::size_t shard) {
    return cells_.at(shard)->allocator();
  }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }

 private:
  void route_batch(std::span<const Update> batch);
  void apply_batch();
  /// Least-loaded shard by tracked live mass (lowest index wins ties).
  [[nodiscard]] std::size_t least_loaded() const;

  ShardedConfig config_;
  Tick shard_budget_ = 0;  ///< per-shard capacity - eps_ticks
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<Cell>> cells_;
  ThreadPool pool_;

  /// id -> shard for every live item (routing map; deletes and migrations
  /// follow it).
  FlatIdMap<std::size_t> placement_;
  /// Tracked live mass per shard; exact mirror of the cells' live_mass()
  /// at batch boundaries, maintained through routing so admission checks
  /// never lag behind the apply phase.
  std::vector<Tick> live_mass_;
  /// Per-shard sub-sequences of the batch being routed/applied.
  std::vector<std::vector<Update>> pending_;

  std::size_t batches_ = 0;
  std::size_t fallback_routes_ = 0;
  std::size_t migrations_ = 0;
  Tick migrated_mass_ = 0;
  double wall_seconds_ = 0.0;
  obs::RouterMetrics router_metrics_;
};

}  // namespace memreal
