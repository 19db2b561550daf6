#include "core/run_stats.h"

#include "util/check.h"

namespace memreal {

double RunStats::ratio_cost() const {
  if (update_mass == 0) return 0.0;
  return static_cast<double>(moved_mass) / static_cast<double>(update_mass);
}

void RunStats::record(bool is_insert, Tick update_size, Tick moved,
                      Tick bytes) {
  MEMREAL_CHECK(update_size > 0);
  // Every total is checked before any field changes, so the update that
  // would wrap one throws and leaves the stats as they were.
  const Tick new_moved = checked_add(moved_mass, moved, "moved mass");
  const Tick new_update = checked_add(update_mass, update_size, "update mass");
  const Tick new_bytes = checked_add(moved_bytes, bytes, "moved bytes");
  ++updates;
  if (is_insert) {
    ++inserts;
  } else {
    ++deletes;
  }
  moved_mass = new_moved;
  update_mass = new_update;
  moved_bytes = new_bytes;
  const double c =
      static_cast<double>(moved) / static_cast<double>(update_size);
  cost.add(c);
  cost_quantiles.add(c);
  (is_insert ? insert_cost : delete_cost).add(c);
}

Json RunStats::to_json() const {
  Json out = Json::object();
  out.set("updates", static_cast<std::uint64_t>(updates));
  out.set("inserts", static_cast<std::uint64_t>(inserts));
  out.set("deletes", static_cast<std::uint64_t>(deletes));
  out.set("moved_mass", moved_mass);
  out.set("update_mass", update_mass);
  out.set("moved_bytes", moved_bytes);
  out.set("mean_cost", mean_cost());
  out.set("ratio_cost", ratio_cost());
  out.set("max_cost", max_cost());
  out.set("cost_stddev", cost.stddev());
  out.set("insert_mean_cost", insert_cost.mean());
  out.set("delete_mean_cost", delete_cost.mean());
  if (cost_quantiles.count() > 0) {
    // quantile() sorts lazily (non-const); query a copy so a const stats
    // block held by a driver thread stays untouched.
    Quantiles q = cost_quantiles;
    Json quantiles = Json::object();
    quantiles.set("p50", q.quantile(0.50));
    quantiles.set("p90", q.quantile(0.90));
    quantiles.set("p99", q.quantile(0.99));
    quantiles.set("max", q.quantile(1.0));
    out.set("cost_quantiles", std::move(quantiles));
  }
  out.set("decision_seconds", decision_seconds);
  out.set("wall_seconds", wall_seconds);
  return out;
}

void RunStats::merge(const RunStats& other) {
  const Tick new_moved =
      checked_add(moved_mass, other.moved_mass, "moved mass");
  const Tick new_update =
      checked_add(update_mass, other.update_mass, "update mass");
  const Tick new_bytes =
      checked_add(moved_bytes, other.moved_bytes, "moved bytes");
  updates += other.updates;
  inserts += other.inserts;
  deletes += other.deletes;
  moved_mass = new_moved;
  update_mass = new_update;
  moved_bytes = new_bytes;
  cost.merge(other.cost);
  insert_cost.merge(other.insert_cost);
  delete_cost.merge(other.delete_cost);
  decision_seconds += other.decision_seconds;
  wall_seconds += other.wall_seconds;
  // Quantile samples are not merged (kept per-run); merged stats expose
  // moments only.
}

}  // namespace memreal
