// The engine-selection seam: one cell = one (layout store, allocator,
// Engine) triple driving a single contiguous address space.  CellConfig
// names the allocator and the store the allocator talks to:
//
//   engine = "validated"  ->  Memory     (per-update incremental checks,
//                                         audit cadence)
//   engine = "release"    ->  SlabStore  (no per-update validation; the
//                                         full audit is explicit)
//   arena = true          ->  either store wrapped in the byte-backed
//                             ArenaStore (src/arena), with the engine's
//                             before_update hook staging each insert's
//                             byte size
//
// Every flavour runs the same Engine: validation lives in the store
// (Memory::end_update), so an Engine over a SlabStore is the release fast
// path.  The engine's per-update usage checks (delete of an absent item,
// sequence size mismatch) and the check_invariants_every cadence apply to
// every flavour.
//
// ShardedEngine, the fuzz oracle and the drivers all hold Cells, so the
// release fast path slots in behind every existing consumer without
// touching their update-routing logic.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "arena/arena_store.h"
#include "core/engine.h"
#include "core/layout_store.h"
#include "core/run_stats.h"
#include "core/update.h"
#include "obs/metrics.h"
#include "util/types.h"
#include "workload/sequence.h"

namespace memreal {

struct CellConfig {
  std::string engine = "validated";  ///< "validated" or "release"
  std::string allocator;             ///< registry name
  AllocatorParams params;
  /// Incremental O(log n) model validation at every update (validated
  /// store only; the release store never validates per update).
  bool incremental_validation = true;
  /// Full O(n) audit cadence; 0 = explicit-only (validated store only).
  std::size_t audit_every = 0;
  /// Allocator self-check cadence; 0 = never.
  std::size_t check_invariants_every = 0;

  /// Back the cell with a real byte arena (src/arena): items get physical
  /// payloads, moves execute memmoves, and RunStats gains the moved-bytes
  /// channel.  Composes with either store — the inner store stays the one
  /// `engine` names.
  bool arena = false;
  /// Byte-space granule: bytes per tick, also the arena's alignment and
  /// minimum allocation size (arena cells only).
  Tick bytes_per_tick = 8;
  /// Verify payload fill patterns after every move and on audit (arena
  /// cells only); disable to measure raw memmove bandwidth.
  bool verify_payloads = true;

  /// Observability: when set, the cell registers per-cell instruments
  /// (update/moved-tick counters, cost histograms — see src/obs/) under
  /// labels {allocator, engine, shard_index, workload_label}.  Null
  /// keeps the cell instrument-free (zero overhead).
  obs::MetricRegistry* metrics = nullptr;
  int shard_index = -1;
  std::string workload_label;
};

/// The instrument bundle for a cell built from `config`; an all-null
/// bundle when config.metrics is unset.
[[nodiscard]] obs::CellMetrics cell_metrics(const CellConfig& config);

/// A constructed cell for one update stream.  Non-movable: the allocator
/// and engine hold references into the stores, so the cell must stay put
/// (heap-allocate to store in containers).
class Cell {
 public:
  /// Builds the store named by config.engine (wrapped in an ArenaStore
  /// when config.arena is set), the allocator and the engine; throws
  /// InvariantViolation for unknown engine names.
  Cell(Tick capacity, Tick eps_ticks, const CellConfig& config);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// The store the allocator talks to: the ArenaStore for arena cells,
  /// otherwise the Memory or SlabStore itself.
  [[nodiscard]] LayoutStore& memory() {
    return arena_ ? static_cast<LayoutStore&>(*arena_) : *store_;
  }
  /// The byte arena; null for plain cells.
  [[nodiscard]] ArenaStore* arena() { return arena_.get(); }
  [[nodiscard]] Allocator& allocator() { return *allocator_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Applies a single update and returns its cost L/k.
  double step(const Update& update) { return engine_.step(update); }
  /// Applies all updates and returns the accumulated statistics.
  RunStats run(std::span<const Update> updates) {
    return engine_.run(updates);
  }
  [[nodiscard]] const RunStats& stats() const { return engine_.stats(); }

  /// Full audit of the top store (plus every payload under an arena) and
  /// allocator self-check: the release store's only full validation.
  void audit();

 private:
  std::string name_;
  std::unique_ptr<LayoutStore> store_;  ///< Memory or SlabStore
  std::unique_ptr<ArenaStore> arena_;   ///< null for plain cells
  std::unique_ptr<Allocator> allocator_;
  Engine engine_;
};

/// Constructs the cell `config` names.
[[nodiscard]] std::unique_ptr<Cell> make_cell(Tick capacity, Tick eps_ticks,
                                              const CellConfig& config);

/// The engine flavors make_cell accepts, for CLI validation and help text.
[[nodiscard]] std::vector<std::string> engine_names();

/// Runs the whole sequence through a fresh cell: engine run, final full
/// audit, final allocator self-check.  Throws InvariantViolation on any
/// model or allocator invariant failure.
[[nodiscard]] RunStats run_validated(const Sequence& seq,
                                     const CellConfig& config);

}  // namespace memreal
