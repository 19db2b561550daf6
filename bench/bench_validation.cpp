// Validation-path experiment: the per-update cost of a *verified* run.
//
// The seed validated the memory model by rebuilding and sorting a full
// snapshot after every update — O(n log n) per update, which caps the n a
// validated run can reach.  Validation is now incremental: each update
// re-checks only the items it touched against their offset-order
// neighbors, O(log n) per mutation, with the full audit demoted to a
// periodic/explicit pass.  This bench measures both paths on an identical
// steady-state churn workload (delete one item + place an equal-sized
// replacement per update), timing each with the steady clock, and prints
// the speedup; the acceptance bar for the refactor is >= 10x at n ~ 1e5.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "mem/memory.h"
#include "util/rng.h"
#include "util/table.h"

namespace memreal::bench {
namespace {

constexpr Tick kItemSize = 64;

ValidationPolicy policy_for(const std::string& mode) {
  ValidationPolicy p;
  if (mode == "incremental") {
    p.incremental = true;
    p.audit_every_n_updates = 0;
  } else if (mode == "full-audit") {
    // The seed's behavior: a full O(n log n) pass at every bracket close.
    p.incremental = false;
    p.audit_every_n_updates = 1;
  } else {  // "none"
    p.incremental = false;
    p.audit_every_n_updates = 0;
  }
  return p;
}

/// A Memory pre-filled with n contiguous items of kItemSize ticks.
Memory populated(std::size_t n, const ValidationPolicy& policy) {
  const Tick cap = 4 * static_cast<Tick>(n) * kItemSize;
  Memory mem(cap, static_cast<Tick>(n) * kItemSize, policy);
  mem.begin_update(kItemSize, true);
  for (std::size_t i = 0; i < n; ++i) {
    mem.place(static_cast<ItemId>(i), static_cast<Tick>(i) * kItemSize,
              kItemSize);
  }
  mem.end_update();
  return mem;
}

/// One steady-state churn update: delete a random item and place an
/// equal-sized replacement in its slot.  O(1) mutations per update, so
/// the measured time is dominated by the validation policy.
void churn_once(Memory& mem, std::vector<ItemId>& slots, Rng& rng,
                ItemId& next_id) {
  const auto s = static_cast<std::size_t>(rng.next_below(slots.size()));
  const ItemId victim = slots[s];
  const Tick off = mem.offset_of(victim);
  mem.begin_update(kItemSize, true);
  mem.remove(victim);
  mem.place(next_id, off, kItemSize);
  mem.end_update();
  slots[s] = next_id++;
}

double us_per_update(std::size_t n, const std::string& mode,
                     std::size_t updates) {
  Memory mem = populated(n, policy_for(mode));
  std::vector<ItemId> slots(n);
  for (std::size_t i = 0; i < n; ++i) slots[i] = static_cast<ItemId>(i);
  Rng rng(42);
  ItemId next_id = static_cast<ItemId>(n);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t u = 0; u < updates; ++u) {
    churn_once(mem, slots, rng, next_id);
  }
  const auto t1 = std::chrono::steady_clock::now();
  mem.audit();  // the run stays fully verified
  return std::chrono::duration<double>(t1 - t0).count() * 1e6 /
         static_cast<double>(updates);
}

void print_experiment() {
  print_header("T-VAL — incremental validation",
               "Per-update cost of a verified run is O(log n), not "
               "O(n log n): incremental neighbor checks vs the seed's "
               "full per-update audit.");
  const bool fast = fast_mode();
  const std::vector<std::size_t> sizes =
      fast ? std::vector<std::size_t>{1'000, 10'000}
           : std::vector<std::size_t>{1'000, 10'000, 100'000};
  Table t({"items", "none_us", "incremental_us", "full_audit_us",
           "audit/incremental"});
  BenchJson artifact("validation");
  artifact.set_seeds({42});
  Json rec = series_record("validation_speedup", "T-VAL",
                           "incremental-vs-audit");
  rec.set("workload", "steady-state churn (delete + equal-size replace)");
  Json rows = Json::array();
  for (const std::size_t n : sizes) {
    const std::size_t light = fast ? 20'000 : 50'000;
    // The full audit is ~n per update; cap its total work instead of its
    // update count so the largest size stays a few seconds.
    const std::size_t heavy =
        std::max<std::size_t>(200, (fast ? 10'000'000 : 100'000'000) / n);
    const double none = us_per_update(n, "none", light);
    const double inc = us_per_update(n, "incremental", light);
    const double full = us_per_update(n, "full-audit", heavy);
    t.add_row({std::to_string(n), Table::num(none, 3), Table::num(inc, 3),
               Table::num(full, 3), Table::num(full / inc, 3)});
    Json row = Json::object();
    row.set("items", static_cast<std::uint64_t>(n))
        .set("none_us", none)
        .set("incremental_us", inc)
        .set("full_audit_us", full)
        .set("audit_over_incremental", full / inc);
    rows.push(std::move(row));
  }
  rec.set("rows", std::move(rows));
  artifact.add(std::move(rec));
  t.print(std::cout);
  std::cout << "(speedup must be >= 10x at n ~ 1e5; incremental_us should "
               "be flat in n up to the O(log n) index walk)\n";
  artifact.write();
}

}  // namespace
}  // namespace memreal::bench

int main() {
  memreal::bench::print_experiment();
  return 0;
}
