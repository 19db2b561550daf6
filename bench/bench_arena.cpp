// Byte-addressed arena experiment: the tick model's costs against
// physically measured byte movement.
//
// Two series, both under claim T-ARENA:
//   arena-differential — for each (allocator, inner engine) pair, one
//     churn run on a plain validated cell and on a byte-backed arena
//     cell over the same sequence.  Records whether the tick-cost
//     channels agree exactly (they must: ArenaStore forwards the whole
//     LayoutStore contract), the measured moved_bytes, and whether the
//     bytes land inside the granule's rounding bound
//       L * bpt - M * (bpt - 1) <= moved_bytes <= L * bpt
//     for tick mass L and M payload moves.  Payloads are verified
//     throughout and by a final audit.
//   arena-throughput — updates/sec and bytes moved/sec of an arena cell
//     on the vm_heap GC-heap stream, with payload verification on and
//     off (the gap is the integrity-checking tax on raw memmove
//     bandwidth).
//
// Emitted to BENCH_arena.json; memreal_report renders the T-ARENA claim
// from the records.
#include <iostream>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "bench_common.h"
#include "harness/cell.h"
#include "workload/churn.h"
#include "workload/vm_heap.h"

namespace memreal::bench {
namespace {

// A real byte payload per tick: capacities far below the tick-only
// benches so the arena, which spans the whole capacity, stays a few MB.
constexpr Tick kCap = Tick{1} << 20;
constexpr double kEps = 1.0 / 32;
constexpr Tick kBpt = 8;

Sequence band_churn(const std::string& allocator, std::size_t updates,
                    std::uint64_t seed) {
  const AllocatorInfo info = allocator_info(allocator);
  ChurnConfig c;
  c.capacity = kCap;
  c.eps = kEps;
  c.min_size = info.sizes.min_size(kEps, kCap);
  c.max_size = info.sizes.max_size(kEps, kCap) - 1;
  c.target_load = 0.8;
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

Sequence heap_stream(std::size_t updates, std::uint64_t seed) {
  VmHeapConfig c;
  c.capacity = kCap;
  c.eps = kEps;
  c.bytes_per_tick = kBpt;
  c.min_bytes = 16;
  c.max_bytes = 4096;
  c.churn_updates = updates;
  c.seed = seed;
  return make_vm_heap(c);
}

CellConfig arena_config(const std::string& allocator,
                        const std::string& engine, bool verify) {
  CellConfig cfg;
  cfg.allocator = allocator;
  cfg.engine = engine;
  cfg.arena = true;
  cfg.bytes_per_tick = kBpt;
  cfg.verify_payloads = verify;
  cfg.params.eps = kEps;
  cfg.params.seed = 1;
  return cfg;
}

struct DiffPoint {
  std::string allocator;
  std::string engine;
  RunStats plain;
  RunStats arena;
  Tick payload_moves = 0;
  bool costs_equal = false;
  bool bytes_in_bound = false;
};

/// One differential run: the plain validated cell is the tick oracle,
/// the arena cell must reproduce its cost channel exactly while moving
/// real bytes inside the rounding bound.
DiffPoint measure_differential(const std::string& allocator,
                               const std::string& engine,
                               const Sequence& seq) {
  CellConfig plain_cfg;
  plain_cfg.allocator = allocator;
  plain_cfg.params.eps = kEps;
  plain_cfg.params.seed = 1;
  Cell plain(seq.capacity, seq.eps_ticks, plain_cfg);
  Cell arena(seq.capacity, seq.eps_ticks,
             arena_config(allocator, engine, /*verify=*/true));

  DiffPoint p;
  p.allocator = allocator;
  p.engine = engine;
  p.plain = plain.run(seq.updates);
  p.arena = arena.run(seq.updates);
  plain.audit();
  arena.audit();  // includes the full payload-pattern sweep
  p.payload_moves = static_cast<Tick>(arena.arena()->payload_moves());
  p.costs_equal = p.plain.moved_mass == p.arena.moved_mass &&
                  p.plain.update_mass == p.arena.update_mass &&
                  p.plain.updates == p.arena.updates &&
                  p.plain.mean_cost() == p.arena.mean_cost();
  const Tick hi = p.arena.moved_mass * kBpt;
  const Tick slack = p.payload_moves * (kBpt - 1);
  const Tick lo = hi > slack ? hi - slack : 0;
  p.bytes_in_bound = p.arena.moved_bytes >= lo && p.arena.moved_bytes <= hi;
  return p;
}

void print_experiment() {
  const bool fast = fast_mode();
  const std::size_t updates = fast ? 2'000 : 20'000;
  BenchJson artifact("arena");
  artifact.set_seeds({1});

  print_header("T-ARENA — tick-vs-byte differential",
               "Arena-backed cells must reproduce the tick cost channel "
               "bit-for-bit while really moving payload bytes inside the "
               "granule rounding bound.");
  const std::vector<std::string> allocators{"folklore-compact",
                                            "folklore-windowed", "simple"};
  Json diff_rec = series_record("bound_check", "T-ARENA",
                                "arena-differential");
  diff_rec.set("workload", "band churn, load 0.8");
  diff_rec.set("bytes_per_tick", kBpt);
  Json diff_rows = Json::array();
  Table diff_table({"allocator", "engine", "updates", "moved_mass",
                    "moved_bytes", "payload_moves", "costs_equal",
                    "bytes_in_bound"});
  bool all_equal = true;
  bool all_bound = true;
  for (const std::string& allocator : allocators) {
    const Sequence seq = band_churn(allocator, updates, 1);
    for (const std::string engine : {"validated", "release"}) {
      const DiffPoint p = measure_differential(allocator, engine, seq);
      all_equal = all_equal && p.costs_equal;
      all_bound = all_bound && p.bytes_in_bound;
      diff_table.add_row(
          {p.allocator, p.engine, std::to_string(p.arena.updates),
           std::to_string(p.arena.moved_mass),
           std::to_string(p.arena.moved_bytes),
           std::to_string(p.payload_moves), p.costs_equal ? "yes" : "NO",
           p.bytes_in_bound ? "yes" : "NO"});
      Json row = Json::object();
      row.set("allocator", json_key(p.allocator))
          .set("engine", p.engine)
          .set("updates", static_cast<std::uint64_t>(p.arena.updates))
          .set("moved_mass", p.arena.moved_mass)
          .set("moved_bytes", p.arena.moved_bytes)
          .set("payload_moves", p.payload_moves)
          .set("costs_equal", p.costs_equal ? std::uint64_t{1}
                                            : std::uint64_t{0})
          .set("bytes_in_bound", p.bytes_in_bound ? std::uint64_t{1}
                                                  : std::uint64_t{0})
          .set("payload_verified", std::uint64_t{1});
      diff_rows.push(std::move(row));
    }
  }
  diff_rec.set("rows", std::move(diff_rows));
  artifact.add(std::move(diff_rec));
  diff_table.print(std::cout);
  std::cout << "tick costs equal on every pair: "
            << (all_equal ? "yes" : "NO")
            << "; measured bytes inside the rounding bound: "
            << (all_bound ? "yes" : "NO") << "\n";

  print_header("T-ARENA — byte throughput (vm_heap)",
               "Arena cell on the GC-heap stream: updates/sec and bytes "
               "moved/sec, with and without payload verification.");
  const Sequence heap = heap_stream(updates, 1);
  Json thr_rec = series_record("info", "T-ARENA", "arena-throughput");
  thr_rec.set("workload", "vm_heap, load 0.85");
  thr_rec.set("bytes_per_tick", kBpt);
  Json thr_rows = Json::array();
  Table thr_table({"allocator", "engine", "verify", "updates", "wall_s",
                   "updates/s", "moved_bytes", "bytes/s"});
  for (const bool verify : {true, false}) {
    Cell cell(heap.capacity, heap.eps_ticks,
              arena_config("folklore-compact", "release", verify));
    const RunStats stats = cell.run(heap.updates);
    cell.audit();
    const double ups = stats.wall_seconds > 0.0
                           ? static_cast<double>(stats.updates) /
                                 stats.wall_seconds
                           : 0.0;
    const double bps = stats.wall_seconds > 0.0
                           ? static_cast<double>(stats.moved_bytes) /
                                 stats.wall_seconds
                           : 0.0;
    thr_table.add_row({"folklore-compact", "release", verify ? "on" : "off",
                       std::to_string(stats.updates),
                       Table::num(stats.wall_seconds, 4), Table::num(ups, 6),
                       std::to_string(stats.moved_bytes),
                       Table::num(bps, 6)});
    Json row = Json::object();
    row.set("allocator", "folklore_compact")
        .set("engine", "release")
        .set("verify", verify ? std::uint64_t{1} : std::uint64_t{0})
        .set("updates", static_cast<std::uint64_t>(stats.updates))
        .set("wall_seconds", stats.wall_seconds)
        .set("updates_per_second", ups)
        .set("moved_bytes", stats.moved_bytes)
        .set("bytes_per_second", bps);
    thr_rows.push(std::move(row));
  }
  thr_rec.set("rows", std::move(thr_rows));
  artifact.add(std::move(thr_rec));
  thr_table.print(std::cout);

  artifact.write();
}

}  // namespace
}  // namespace memreal::bench

int main() {
  memreal::bench::print_experiment();
  return 0;
}
