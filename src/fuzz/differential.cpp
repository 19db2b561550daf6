#include "fuzz/differential.h"

#include <memory>
#include <sstream>

#include "harness/cell.h"
#include "release/slab_store.h"
#include "util/check.h"

namespace memreal {

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kInvariantViolation:
      return "invariant-violation";
    case FailureKind::kCostBudget:
      return "cost-budget";
    case FailureKind::kDivergence:
      return "divergence";
    case FailureKind::kEngineDivergence:
      return "engine-divergence";
    case FailureKind::kArenaDivergence:
      return "arena-divergence";
  }
  return "unknown";
}

namespace {

/// Compares the validated layout against another store's; returns a
/// human-readable description of the first difference, or empty if
/// bit-identical.  `label` names the other store in messages.
std::string compare_layouts(LayoutStore& validated, LayoutStore& other,
                            const char* label) {
  const std::vector<PlacedItem> a = validated.snapshot();
  const std::vector<PlacedItem> b = other.snapshot();
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "layout item counts differ: validated " << a.size() << ", "
       << label << " " << b.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    std::ostringstream os;
    os << "layouts differ at rank " << i << ": validated {id " << a[i].id
       << " off " << a[i].offset << " size " << a[i].size << " ext "
       << a[i].extent << "}, " << label << " {id " << b[i].id << " off "
       << b[i].offset << " size " << b[i].size << " ext " << b[i].extent
       << "}";
    return os.str();
  }
  return {};
}

/// Compares the O(1) model counters after one lockstep step; empty if
/// identical.  `label` names the other store in messages.
std::string compare_counters(double validated_cost, double other_cost,
                             LayoutStore& validated, LayoutStore& other,
                             const char* label) {
  std::ostringstream os;
  if (validated_cost != other_cost) {
    os << "update cost differs: validated " << validated_cost << ", "
       << label << " " << other_cost;
  } else if (validated.item_count() != other.item_count()) {
    os << "item count differs: validated " << validated.item_count() << ", "
       << label << " " << other.item_count();
  } else if (validated.live_mass() != other.live_mass()) {
    os << "live mass differs: validated " << validated.live_mass() << ", "
       << label << " " << other.live_mass();
  } else if (validated.span_end() != other.span_end()) {
    os << "span end differs: validated " << validated.span_end() << ", "
       << label << " " << other.span_end();
  } else if (validated.total_moved() != other.total_moved()) {
    os << "total moved mass differs: validated " << validated.total_moved()
       << ", " << label << " " << other.total_moved();
  }
  return os.str();
}

/// The granule's rounding bound on an arena cell's byte traffic:
///   L * bpt - M * (bpt - 1) <= moved_bytes <= L * bpt
/// where L is the tick moved mass and M the number of payload moves.
std::string check_byte_bound(const ArenaStore& store) {
  const Tick bpt = store.bytes_per_tick();
  const Tick upper = store.total_moved() * bpt;
  const Tick slack = static_cast<Tick>(store.payload_moves()) * (bpt - 1);
  const Tick lower = upper > slack ? upper - slack : 0;
  const Tick bytes = store.total_bytes_moved();
  if (bytes >= lower && bytes <= upper) return {};
  std::ostringstream os;
  os << "arena byte traffic " << bytes << " outside the rounding bound ["
     << lower << ", " << upper << "] (moved mass " << store.total_moved()
     << ", " << store.payload_moves() << " moves, granule " << bpt << ")";
  return os.str();
}

/// A cell run in lockstep with a target's reference (validated) cell:
/// any difference from it is reported as `kind`; `label` names the cell
/// in messages.
struct Shadow {
  std::unique_ptr<Cell> cell;
  FailureKind kind;
  const char* label;
};

/// Steps `shadow` through the update the reference cell just applied at
/// `cost`; returns the first difference, or empty if none.  Layouts are
/// compared only when `check_layout` is set.
std::string step_shadow(Shadow& shadow, Cell& reference, const Update& u,
                        double cost, bool check_layout) {
  Cell& cell = *shadow.cell;
  double shadow_cost = 0.0;
  try {
    shadow_cost = cell.step(u);
  } catch (const InvariantViolation& e) {
    return std::string(shadow.label) + " cell threw: " + e.what();
  }
  std::string diff = compare_counters(cost, shadow_cost, reference.memory(),
                                      cell.memory(), shadow.label);
  if (diff.empty() && cell.arena() != nullptr) {
    diff = check_byte_bound(*cell.arena());
  }
  if (diff.empty() && check_layout) {
    diff = compare_layouts(reference.memory(), cell.memory(), shadow.label);
  }
  return diff;
}

/// The end-of-run check of a shadow: full layout equality with the
/// reference, then the shadow's own full audit (for arena cells this
/// includes the payload-stamp sweep).
std::string finish_shadow(Shadow& shadow, Cell& reference) {
  std::string diff = compare_layouts(reference.memory(),
                                     shadow.cell->memory(), shadow.label);
  if (!diff.empty()) return diff;
  try {
    shadow.cell->audit();
  } catch (const InvariantViolation& e) {
    return std::string(shadow.label) + " cell failed its final audit: " +
           e.what();
  }
  return {};
}

/// One target's reference cell plus the shadows the config asks for.
struct Lockstep {
  std::unique_ptr<Cell> reference;
  std::vector<Shadow> shadows;
};

Lockstep make_lockstep(Tick capacity, Tick eps_ticks,
                       const FuzzTarget& target,
                       const DifferentialConfig& config) {
  CellConfig cell;
  cell.allocator = target.allocator;
  cell.params = target.params;
  cell.audit_every = config.audit_every;
  cell.check_invariants_every = config.check_invariants_every;
  Lockstep out;
  out.reference = make_cell(capacity, eps_ticks, cell);
  if (config.lockstep_release) {
    // The release shadow adds no allocator self-checks of its own: the
    // reference cell already runs them on the same decisions.
    CellConfig release = cell;
    release.engine = "release";
    release.check_invariants_every = 0;
    out.shadows.push_back({make_cell(capacity, eps_ticks, release),
                           FailureKind::kEngineDivergence, "release"});
  }
  if (config.lockstep_arena) {
    CellConfig arena = cell;
    arena.arena = true;
    arena.bytes_per_tick = config.arena_bytes_per_tick;
    out.shadows.push_back({make_cell(capacity, eps_ticks, arena),
                           FailureKind::kArenaDivergence, "arena"});
  }
  return out;
}

}  // namespace

std::optional<FailureReport> run_differential(
    const Sequence& seq, const DifferentialConfig& config) {
  MEMREAL_CHECK(!config.targets.empty());
  MEMREAL_CHECK(!seq.updates.empty());

  std::vector<Lockstep> targets;
  targets.reserve(config.targets.size());
  for (const FuzzTarget& t : config.targets) {
    targets.push_back(make_lockstep(seq.capacity, seq.eps_ticks, t, config));
  }
  const std::size_t layout_every =
      config.audit_every == 0 ? 64 : config.audit_every;

  auto report = [](FailureKind kind, const Cell& cell, std::size_t index,
                   std::string message) {
    FailureReport r;
    r.kind = kind;
    r.allocator = cell.name();
    r.update_index = index;
    r.message = std::move(message);
    return r;
  };

  // The reference live set replayed from the sequence itself; every target
  // must agree with it after every update.
  std::size_t live_count = 0;
  Tick live_mass = 0;

  for (std::size_t i = 0; i < seq.updates.size(); ++i) {
    const Update& u = seq.updates[i];
    if (u.is_insert()) {
      ++live_count;
      live_mass += u.size;
    } else {
      --live_count;
      live_mass -= u.size;
    }
    for (Lockstep& target : targets) {
      Cell& cell = *target.reference;
      double cost = 0.0;
      try {
        cost = cell.step(u);
      } catch (const InvariantViolation& e) {
        return report(FailureKind::kInvariantViolation, cell, i, e.what());
      }
      auto diverged = [&](const std::string& what) {
        return report(FailureKind::kDivergence, cell, i, what);
      };
      if (u.is_insert() && cost < 1.0) {
        std::ostringstream os;
        os << "insert of id " << u.id << " moved less than the item's own "
           << "mass (cost " << cost << " < 1)";
        return diverged(os.str());
      }
      if (cell.memory().item_count() != live_count) {
        std::ostringstream os;
        os << "live item count diverged: allocator holds "
           << cell.memory().item_count() << ", sequence implies "
           << live_count;
        return diverged(os.str());
      }
      if (cell.memory().live_mass() != live_mass) {
        std::ostringstream os;
        os << "live mass diverged: allocator holds "
           << cell.memory().live_mass() << ", sequence implies " << live_mass;
        return diverged(os.str());
      }
      if (cell.memory().span_end() < live_mass) {
        std::ostringstream os;
        os << "span end " << cell.memory().span_end()
           << " undercuts live mass " << live_mass;
        return diverged(os.str());
      }
      const bool check_layout = (i + 1) % layout_every == 0;
      for (Shadow& shadow : target.shadows) {
        std::string diff = step_shadow(shadow, cell, u, cost, check_layout);
        if (!diff.empty()) return report(shadow.kind, cell, i, diff);
        if (shadow.kind == FailureKind::kEngineDivergence &&
            config.release_tamper) {
          // The release shadow's top store is its SlabStore.
          auto& slab = static_cast<SlabStore&>(shadow.cell->memory());
          config.release_tamper(slab, i);
        }
      }
    }
  }

  const std::size_t end = seq.updates.size();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    Cell& cell = *targets[t].reference;
    for (Shadow& shadow : targets[t].shadows) {
      std::string diff = finish_shadow(shadow, cell);
      if (!diff.empty()) return report(shadow.kind, cell, end, diff);
    }
    try {
      cell.audit();
    } catch (const InvariantViolation& e) {
      return report(FailureKind::kInvariantViolation, cell, end, e.what());
    }
    const double observed = cell.stats().ratio_cost();
    const double bound =
        config.targets[t].budget.bound(seq.eps) * config.budget_slack;
    if (observed > bound) {
      std::ostringstream os;
      os << "amortized ratio cost " << observed << " exceeds the budget "
         << bound << " for eps " << seq.eps;
      FailureReport r = report(FailureKind::kCostBudget, cell, end, os.str());
      r.observed_cost = observed;
      r.cost_bound = bound;
      return r;
    }
  }
  return std::nullopt;
}

void build_target_cells(Tick capacity, Tick eps_ticks,
                        const FuzzTarget& target,
                        const DifferentialConfig& config) {
  (void)make_lockstep(capacity, eps_ticks, target, config);
}

}  // namespace memreal
