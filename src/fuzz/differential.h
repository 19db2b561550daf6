// Differential oracle: drive a group of allocators in lockstep through one
// well-formed sequence, each against its own validated Memory, and flag
//
//   * InvariantViolation — any model/allocator invariant failure
//     (incremental per-update validation, periodic full audits, allocator
//     self-checks),
//   * kCostBudget — amortized ratio cost exceeding the target's registry
//     CostBudget (times a configurable slack),
//   * kDivergence — cross-allocator divergence in the accounted cost
//     invariants: all targets must agree with the replayed sequence on
//     live item count and live mass after every update, every insert must
//     move at least the inserted mass (the item's bytes get written), and
//     span may never undercut live mass.
//   * kEngineDivergence — with lockstep_release set, each target also
//     runs on an unchecked release cell (the Engine over a SlabStore);
//     any difference from the validated cell in per-update cost, O(1)
//     model counters, or (at audit cadence and run end) the full layout
//     is a release fast-path bug.
//   * kArenaDivergence — with lockstep_arena set, each target also runs
//     on a byte-backed arena cell; tick costs and layouts must match the
//     validated cell exactly, payload stamps must verify, and the byte
//     traffic must sit inside the granule's rounding bound.
//
// The first failure (in update order, then fixed target order) wins, so a
// report is deterministic for a given (sequence, target list).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "workload/sequence.h"

namespace memreal {

class SlabStore;

enum class FailureKind : unsigned char {
  kInvariantViolation,
  kCostBudget,
  kDivergence,
  kEngineDivergence,
  kArenaDivergence,
};

[[nodiscard]] const char* to_string(FailureKind kind);

/// One allocator in the lockstep group.
struct FuzzTarget {
  std::string allocator;  ///< registry name
  AllocatorParams params;
  CostBudget budget;
};

struct DifferentialConfig {
  std::vector<FuzzTarget> targets;
  /// Multiplier on every target's budget bound (raise to silence cost
  /// findings, drop below 1 to hunt for regressions).
  double budget_slack = 1.0;
  /// Periodic full-audit cadence inside each target's Memory.
  std::size_t audit_every = 64;
  /// Allocator self-check cadence.
  std::size_t check_invariants_every = 16;
  /// Also run every target on the release engine in lockstep with its
  /// validated cell; any cost/counter/layout difference is reported as
  /// kEngineDivergence (layouts are compared at audit_every cadence and
  /// at run end, counters and costs at every update).
  bool lockstep_release = false;
  /// Test hook, lockstep_release only: invoked on each target's release
  /// SlabStore after every update (post-comparison, so damage surfaces at
  /// the next checkpoint).  Lets tests plant slab corruption and prove
  /// the oracle catches and shrinks it; must be deterministic for a given
  /// sequence or shrinking will not reproduce.
  std::function<void(SlabStore&, std::size_t update_index)> release_tamper;
  /// Also run every target on a byte-backed arena cell (src/arena) in
  /// lockstep with its validated cell; any per-update tick-cost
  /// difference, layout difference (at audit cadence and run end), failed
  /// payload-stamp verification, or byte traffic outside the granule's
  /// rounding bound is reported as kArenaDivergence.
  bool lockstep_arena = false;
  /// Granule of the lockstep arena cells.
  Tick arena_bytes_per_tick = 8;
};

struct FailureReport {
  FailureKind kind = FailureKind::kInvariantViolation;
  std::string allocator;       ///< failing target
  std::size_t update_index = 0;  ///< failing update (sequence length for
                                 ///< end-of-run cost findings)
  std::string message;
  double observed_cost = 0.0;  ///< ratio cost (cost findings only)
  double cost_bound = 0.0;

  /// Stable identity of a failure for shrinking: same target, same kind.
  [[nodiscard]] bool same_bug(const FailureReport& other) const {
    return kind == other.kind && allocator == other.allocator;
  }
};

/// Runs the lockstep differential; returns the first failure, if any.
/// The sequence must be well-formed (callers generate through
/// SequenceBuilder / repair_sequence, which guarantee it).
[[nodiscard]] std::optional<FailureReport> run_differential(
    const Sequence& seq, const DifferentialConfig& config);

/// Builds, then discards, every cell run_differential runs for `target`
/// at (capacity, eps_ticks): its reference cell and the shadows `config`
/// asks for.  Throws InvariantViolation when one of them cannot be built.
void build_target_cells(Tick capacity, Tick eps_ticks,
                        const FuzzTarget& target,
                        const DifferentialConfig& config);

}  // namespace memreal
