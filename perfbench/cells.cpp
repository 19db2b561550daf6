// Single-cell workloads: one release cell driven update by update through
// Cell::step (a closed loop with one update outstanding, one thread), with
// a timed batch of ordered reads after every update.
//
//   cell_combined  COMBINED (Corollary 4.10) on zoo churn, eps 1/32, 2^40
//                  ticks, ~1,650 live items: the release store moves ~400
//                  items per update, half of them out of offset order.
//                  Sizes span the top 16x of the zoo's band.  With the
//                  whole band (a 10^6x span) the fill tops up its last gap
//                  with anywhere from none to thousands of tiny items, and
//                  throughput ranges 10x across seeds; a floor just under
//                  COMBINED's tiny threshold still left 25% between seeds.
//   arena_vm_heap  FOLKLORE-COMPACT on zoo vm_heap over a byte arena
//                  (8 B/tick, 2^15 ticks = 256 KiB of payload, ~60 items):
//                  the arena's copies and pattern checks do most of the
//                  work.  FOLKLORE-COMPACT rather than SIMPLE because
//                  SIMPLE's cheap inserts and costly deletes split 50/50,
//                  which puts the median update on the cliff between the
//                  two.  256 KiB because larger arenas track the host's
//                  cache contention: in runs interleaved over the same
//                  minutes on a 4-vCPU KVM guest (2 MiB L2 per core),
//                  throughput ranged +-4% at 256 KiB, +-7% at 512 KiB and
//                  +-19% at 1 MiB (8 MiB had moved 12-16% per run of one
//                  seed).  Eight sequences of 4,000 timed updates keep a
//                  round short, so each update is timed in many rounds
//                  spread over the run and its fastest time misses the
//                  host's slow spells.
//
// A run covers several sequences and repeats rounds (generate, build, fill,
// timed phase) until its time budget is spent.  Every round of a sequence
// replays the same updates; timings take each update's fastest round,
// costs come from one round and must repeat exactly in every other.
#include <array>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arena/arena_store.h"
#include "common.h"
#include "harness/cell.h"
#include "perfadv/zoo.h"
#include "traced_cell.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using memreal::Cell;
using memreal::RunStats;
using memreal::Sequence;
using memreal::Update;

struct CellWorkload {
  const char* name;
  const char* allocator;
  const char* scenario;
  double eps;
  Tick capacity;
  std::size_t timed_updates;
  bool arena;
  /// Item sizes span [max / band_ratio, max] of the scenario's band; 0
  /// keeps the whole band.
  Tick band_ratio;
  /// Sequences per run, each from its own seed derived from --seed.
  std::size_t sequences;
};

constexpr Tick kBytesPerTick = 8;
const CellWorkload kWorkloads[] = {
    {"cell_combined", "combined", "churn", 1.0 / 32, Tick{1} << 40, 5'000,
     false, 16, 4},
    {"arena_vm_heap", "folklore-compact", "vm_heap", 1.0 / 64, Tick{1} << 15,
     4'000, true, 0, 8},
};

/// Probes per read batch; each makes item_at + first_at_or_after +
/// neighbors_of, so a batch is ~96 reads (two clock reads are well under
/// 5% of it).
constexpr std::size_t kProbes = 32;

struct Generated {
  Sequence seq;
  std::size_t fill = 0;  ///< leading updates that are set-up, not timed
};

Generated generate(const CellWorkload& w, std::uint64_t seed) {
  memreal::ScenarioParams p = memreal::scenario_params_for(
      memreal::allocator_info(w.allocator), w.eps, w.capacity,
      w.timed_updates, seed);
  p.bytes_per_tick = kBytesPerTick;
  if (w.band_ratio != 0) p.min_size = p.max_size / w.band_ratio;
  Generated g{memreal::make_scenario(w.scenario, p), 0};
  MEMREAL_CHECK(g.seq.size() > w.timed_updates);
  g.fill = g.seq.size() - w.timed_updates;
  return g;
}

memreal::AllocatorParams allocator_params(const CellWorkload& w,
                                          std::uint64_t seed) {
  memreal::AllocatorParams params;
  params.eps = w.eps;
  params.seed = seed;
  return params;
}

std::unique_ptr<Cell> make_plain_cell(const CellWorkload& w,
                                      std::uint64_t seed,
                                      const std::string& engine) {
  memreal::CellConfig config;
  config.engine = engine;
  config.allocator = w.allocator;
  config.params = allocator_params(w, seed);
  config.arena = w.arena;
  config.bytes_per_tick = kBytesPerTick;
  return memreal::make_cell(w.capacity,
                            memreal::Eps::of(w.eps, w.capacity).ticks, config);
}

// -- Reads ----------------------------------------------------------------

struct Probe {
  Tick offset = 0;
  std::optional<PlacedItem> at;
  std::optional<PlacedItem> after;
  LayoutStore::Neighbors around;  ///< neighbours of `after`
};

/// Empty when every probe result is consistent with the layout model.
std::string check_probe(const Probe& p) {
  if (p.at && !(p.at->offset <= p.offset &&
                p.offset < p.at->offset + p.at->extent)) {
    return "item_at returned an item not covering the offset";
  }
  if (p.after && p.after->offset < p.offset) {
    return "first_at_or_after returned an item before the offset";
  }
  if (p.after) {
    const auto& prev = p.around.prev;
    const auto& next = p.around.next;
    if ((prev && (!precedes(*prev, *p.after) ||
                  prev->offset + prev->size > p.after->offset)) ||
        (next && (!precedes(*p.after, *next) ||
                  p.after->offset + p.after->size > next->offset))) {
      return "neighbors_of out of (offset, id) order or overlapping";
    }
  }
  return {};
}

/// Times one batch of ordered reads against `store`; returns ns per read.
double read_batch(const LayoutStore& store, memreal::Rng& rng,
                  std::array<Probe, kProbes>& probes, Result& result) {
  const Tick span = std::max<Tick>(1, store.span_end());
  for (Probe& p : probes) p.offset = rng.next_below(span);
  std::size_t reads = 0;
  const Clock::time_point t0 = Clock::now();
  for (Probe& p : probes) {
    p.at = store.item_at(p.offset);
    p.after = store.first_at_or_after(p.offset);
    reads += 2;
    if (p.after) {
      p.around = store.neighbors_of(p.after->id);
      ++reads;
    }
  }
  const Clock::time_point t1 = Clock::now();
  result.attempted += reads;
  for (const Probe& p : probes) {
    if (std::string bad = check_probe(p); !bad.empty()) result.fail(bad);
  }
  return static_cast<double>(ns_between(t0, t1)) /
         static_cast<double>(reads);
}

// -- Rounds ---------------------------------------------------------------

/// Traced work of one update: time in the top decorator and in the
/// release-store decorator, plus counts.
struct Span {
  std::size_t index = 0;
  bool insert = false;
  Tick size = 0;
  std::int64_t step_ns = 0;
  StoreTotals top;      ///< calls the engine and allocator made
  StoreTotals release;  ///< calls that reached the SlabStore
  Tick bytes = 0;
};

struct Round {
  double gen_s = 0.0;
  double fill_s = 0.0;
  double setup_s = 0.0;
  std::vector<double> step_us;  ///< timed updates, in sequence order
  std::vector<double> costs;    ///< every update, fill included
  Tick moved_mass = 0;          ///< timed phase: sum of L
  Tick update_mass = 0;         ///< timed phase: sum of k
  std::vector<double> read_ns;  ///< per batch
  // Traced rounds only: totals over the timed phase, and one span per
  // update when the round keeps them.
  Span traced;
  std::vector<Span> spans;
  bool ok = true;
};

/// The payload rounding bound L*bpt - M*(bpt-1) <= bytes <= L*bpt.
std::string check_byte_bound(const memreal::ArenaStore& store) {
  const Tick bpt = store.bytes_per_tick();
  const Tick upper = store.total_moved() * bpt;
  const Tick slack = static_cast<Tick>(store.payload_moves()) * (bpt - 1);
  const Tick lower = upper > slack ? upper - slack : 0;
  const Tick bytes = store.total_bytes_moved();
  if (bytes >= lower && bytes <= upper) return {};
  return "arena moved " + std::to_string(bytes) + " bytes, outside [" +
         std::to_string(lower) + ", " + std::to_string(upper) + "]";
}

const memreal::ArenaStore* arena_of(Cell& cell) {
  return dynamic_cast<const memreal::ArenaStore*>(&cell.memory());
}
const memreal::ArenaStore* arena_of(TracedCell& cell) { return cell.arena(); }

template <typename CellT>
void audit_cell(CellT& cell, Result& result) {
  try {
    cell.audit();
    if (const memreal::ArenaStore* arena = arena_of(cell)) {
      if (std::string bad = check_byte_bound(*arena); !bad.empty()) {
        result.fail(bad);
      }
    }
  } catch (const std::exception& e) {
    result.fail(std::string("audit: ") + e.what());
  }
}

/// One round.  `make` builds the cell; traced rounds record spans.
template <typename Make>
Round run_round(const CellWorkload& w, std::uint64_t seed, Make&& make,
                bool keep_spans, Result& result) {
  Round r;
  // Every round probes the same offsets, so batch i reads the same layout
  // in every round.
  memreal::Rng read_rng(seed ^ 0x5eedULL);
  const Clock::time_point t0 = Clock::now();
  Generated g = generate(w, seed);
  const Clock::time_point t1 = Clock::now();
  auto cell = make();
  const auto& updates = g.seq.updates;
  r.costs.reserve(updates.size());
  std::size_t i = 0;
  try {
    for (; i < g.fill; ++i) r.costs.push_back(cell->step(updates[i]));
  } catch (const std::exception& e) {
    result.fail(std::string("fill: ") + e.what(), updates.size() - i);
    r.ok = false;
    return r;
  }
  const Clock::time_point t2 = Clock::now();
  r.gen_s = seconds_between(t0, t1);
  r.fill_s = seconds_between(t1, t2);
  r.setup_s = seconds_between(t0, t2);

  constexpr bool kTraced = std::is_same_v<decltype(cell),
                                          std::unique_ptr<TracedCell>>;
  const RunStats before = cell->stats();
  std::array<Probe, kProbes> probes;
  r.step_us.reserve(w.timed_updates);
  r.read_ns.reserve(w.timed_updates);
  try {
    for (; i < updates.size(); ++i) {
      const Update& u = updates[i];
      Span span;
      if constexpr (kTraced) {
        span.top = cell->top_layer().totals();
        span.release = cell->release_layer().totals();
      }
      const Clock::time_point a = Clock::now();
      const double cost = cell->step(u);
      const Clock::time_point b = Clock::now();
      const std::int64_t ns = ns_between(a, b);
      r.step_us.push_back(static_cast<double>(ns) * 1e-3);
      r.costs.push_back(cost);
      if constexpr (kTraced) {
        span.index = i;
        span.insert = u.is_insert();
        span.size = u.size;
        span.step_ns = ns;
        span.top = cell->top_layer().totals() - span.top;
        span.release = cell->release_layer().totals() - span.release;
        span.bytes = cell->memory().last_update_bytes();
        r.traced.step_ns += span.step_ns;
        r.traced.top = r.traced.top + span.top;
        r.traced.release = r.traced.release + span.release;
        r.traced.bytes += span.bytes;
        if (keep_spans) r.spans.push_back(span);
      }
      r.read_ns.push_back(read_batch(cell->memory(), read_rng, probes,
                                     result));
    }
  } catch (const std::exception& e) {
    result.fail(std::string("update: ") + e.what(), updates.size() - i);
    r.ok = false;
    return r;
  }
  result.attempted += updates.size();
  r.moved_mass = cell->stats().moved_mass - before.moved_mass;
  r.update_mass = cell->stats().update_mass - before.update_mass;
  audit_cell(*cell, result);
  return r;
}

/// Validated-engine replay of the workload's sequence: per-update costs
/// and the mean step time of the timed phase.
struct Replay {
  std::vector<double> costs;
  double timed_us_per_update = 0.0;
};

Replay validated_replay(const CellWorkload& w, std::uint64_t seed,
                        Result& result) {
  Replay out;
  const Generated g = generate(w, seed);
  auto cell = make_plain_cell(w, seed, "validated");
  out.costs.reserve(g.seq.size());
  std::int64_t timed_ns = 0;
  try {
    for (std::size_t i = 0; i < g.seq.size(); ++i) {
      const Clock::time_point a = Clock::now();
      out.costs.push_back(cell->step(g.seq.updates[i]));
      if (i >= g.fill) timed_ns += ns_between(a, Clock::now());
    }
    cell->audit();
  } catch (const std::exception& e) {
    result.fail(std::string("validated replay: ") + e.what());
  }
  out.timed_us_per_update =
      static_cast<double>(timed_ns) * 1e-3 / static_cast<double>(w.timed_updates);
  return out;
}

/// One JSON line per update of each sequence's first traced round: the
/// step's span and the store time it contains, per operation kind.
void write_spans(const std::string& path, const CellWorkload& w,
                 const std::vector<const Round*>& rounds) {
  std::ofstream os(path);
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    for (const Span& s : rounds[round]->spans) {
      os << "{\"workload\":\"" << w.name << "\",\"round\":" << round
         << ",\"update\":" << s.index << ",\"kind\":\""
         << (s.insert ? "insert" : "delete") << "\",\"size\":" << s.size
         << ",\"step_ns\":" << s.step_ns
         << ",\"release_ns\":" << s.release.total_ns()
         << ",\"moves\":" << s.release.moves
         << ",\"order_breaking_moves\":" << s.release.order_breaking_moves
         << ",\"bytes\":" << s.bytes << ",\"store_ns\":{";
      for (std::size_t k = 0; k < kOps; ++k) {
        os << (k ? "," : "") << '"' << kOpNames[k] << "\":" << s.top.ns[k];
      }
      os << "}}\n";
    }
  }
}

}  // namespace

Result run_cell_workload(const Options& o) {
  const CellWorkload* found = nullptr;
  for (const CellWorkload& w : kWorkloads) {
    if (o.workload == w.name) found = &w;
  }
  MEMREAL_CHECK_MSG(found != nullptr, "unknown workload " << o.workload);
  const CellWorkload& w = *found;
  Result result;

  // A run covers w.sequences sequences, each generated from its own seed
  // derived from --seed: one sequence's structure (how COMBINED's classes
  // happen to fill, where vm_heap's compactions land) moves throughput by
  // ~6% between seeds, and averaging four or more at least halves that.
  struct PerSequence {
    std::uint64_t seed = 0;
    std::vector<Round> plain;
    std::vector<Round> traced;
    std::optional<Replay> validated;
  };
  std::vector<PerSequence> seqs(w.sequences);
  memreal::SplitMix64 derive(o.seed);
  for (PerSequence& q : seqs) q.seed = derive.next();

  // The validated-engine reference, outside the measured window
  // (cell_combined checks every run; the arena workload in traced runs,
  // where the replay also times the validated engine).
  if (!w.arena || o.trace) {
    for (PerSequence& q : seqs) q.validated = validated_replay(w, q.seed, result);
  }

  // Rounds cycle through the sequences until the budget is spent, with at
  // least kMinRounds per sequence (of each kind: traced runs alternate
  // untraced and traced rounds so both see the same machine state).
  const auto enough = [&] {
    for (const PerSequence& q : seqs) {
      if (q.plain.size() < kMinRounds) return false;
      if (o.trace && q.traced.size() < kMinRounds) return false;
    }
    return true;
  };
  double peak_mb = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t slot = 0;
       !enough() || seconds_between(start, Clock::now()) < o.seconds;
       ++slot) {
    const bool trace_this = o.trace && slot % 2 == 1;
    PerSequence& q = seqs[(o.trace ? slot / 2 : slot) % w.sequences];
    Round r = trace_this
                  ? run_round(w, q.seed, [&] {
                      return std::make_unique<TracedCell>(
                          w.capacity, memreal::Eps::of(w.eps, w.capacity).ticks,
                          w.allocator, allocator_params(w, q.seed), w.arena,
                          kBytesPerTick);
                    }, q.traced.empty(), result)
                  : run_round(w, q.seed, [&] {
                      return make_plain_cell(w, q.seed, "release");
                    }, false, result);
    if (!r.ok) return result;
    (trace_this ? q.traced : q.plain).push_back(std::move(r));
    // Later rounds only add samples; the footprint is one round's.
    if (slot == 0) peak_mb = peak_rss_mb();
  }

  // Costs repeat exactly across rounds and equal the validated engine's.
  for (const PerSequence& q : seqs) {
    for (const auto* set : {&q.plain, &q.traced}) {
      for (const Round& r : *set) {
        if (r.costs != q.plain.front().costs) {
          result.fail("cost stream differs by round");
        }
      }
    }
    if (q.validated && q.validated->costs != q.plain.front().costs) {
      result.fail("release costs differ from the validated engine's");
    }
  }

  // Every round of a sequence replays the same updates on a fresh cell, so
  // each update's time (and each read batch's) is taken as its fastest
  // over rounds: its cost with the least interference from other work on
  // the host.  On this single-threaded path that interference is noise,
  // not part of the cost.
  const auto fastest = [&](bool traced, auto field) {
    std::vector<double> out;
    for (const PerSequence& q : seqs) {
      std::vector<std::vector<double>> runs;
      for (const Round& r : traced ? q.traced : q.plain) {
        runs.push_back(r.*field);
      }
      const std::vector<double> best = min_by_index(runs);
      out.insert(out.end(), best.begin(), best.end());
    }
    return out;
  };
  std::vector<double> typical = fastest(false, &Round::step_us);
  const double step_us = mean(typical);
  // Set-up times follow the same rule: a sequence's set-up is its fastest
  // round, and the run reports the median over sequences.  The median over
  // all rounds tracked the host's slow spells: it moved 26-34% between two
  // ten-seed sets in which update times moved 9%.
  const auto setup_time = [&](double Round::*field) {
    std::vector<double> best;
    for (const PerSequence& q : seqs) {
      double b = q.plain.front().*field;
      for (const Round& r : q.plain) b = std::min(b, r.*field);
      best.push_back(b);
    }
    return median(best);
  };
  std::vector<double> timed_costs;
  std::size_t n = 0;
  Tick moved = 0;
  Tick updated = 0;
  for (const PerSequence& q : seqs) {
    n += q.plain.size();
    const Round& ref = q.plain.front();
    timed_costs.insert(timed_costs.end(),
                       ref.costs.end() - static_cast<std::ptrdiff_t>(
                                             w.timed_updates),
                       ref.costs.end());
    moved += ref.moved_mass;
    updated += ref.update_mass;
  }
  const std::size_t steps = n * w.timed_updates;
  if (!o.trace) {
    const std::vector<double> read_ns = fastest(false, &Round::read_ns);
    result.add("updates_per_s", "1/s", 1e6 / step_us, steps);
    result.add("update_p50_us", "us", percentile(typical, 0.50), steps);
    result.add("update_p90_us", "us", percentile(typical, 0.90), steps);
    result.add("update_p99_us", "us", percentile(typical, 0.99), steps);
    result.add("read_p50_ns", "ns", median(read_ns), read_ns.size());
    result.add("mean_cost", "L/k", mean(timed_costs), timed_costs.size());
    result.add("ratio_cost", "L/k",
               static_cast<double>(moved) / static_cast<double>(updated),
               timed_costs.size());
    result.add("setup_s", "s", setup_time(&Round::setup_s), n);
    result.add("peak_rss_mb", "MiB", peak_mb, 1);
    return result;
  }

  // Per-layer attribution from the traced rounds: a layer's self time is
  // its span minus the spans of the layer below, and the decorators' own
  // order-shadow bookkeeping is billed to no layer.
  StoreTotals top, release;
  std::int64_t step_ns = 0;
  Tick bytes = 0;
  std::size_t m = 0;
  std::vector<const Round*> traced_rounds;
  double validated_us = 0.0;
  for (const PerSequence& q : seqs) {
    validated_us += q.validated->timed_us_per_update /
                    static_cast<double>(w.sequences);
    for (const Round& r : q.traced) {
      if (!r.spans.empty()) traced_rounds.push_back(&r);
      step_ns += r.traced.step_ns;
      bytes += r.traced.bytes;
      top = top + r.traced.top;
      release = release + r.traced.release;
      m += r.step_us.size();
    }
  }
  const auto per_update = [&](double x) { return x / static_cast<double>(m); };
  const double release_ns = static_cast<double>(release.total_ns());
  const double arena_ns =
      w.arena ? static_cast<double>(top.total_ns() - release.bookkeeping_ns) -
                    release_ns
              : 0.0;
  const double alloc_ns = static_cast<double>(
      step_ns - top.total_ns() - top.bookkeeping_ns);
  const double ordered = static_cast<double>(
      release.calls[static_cast<std::size_t>(Op::kOrderedQuery)]);

  result.add("workload.gen_s", "s", setup_time(&Round::gen_s), n);
  result.add("cell.fill_s", "s", setup_time(&Round::fill_s), n);
  result.add("alloc.self_us_per_update", "us", per_update(alloc_ns) * 1e-3, m);
  result.add("alloc.store_calls_per_update", "count",
             per_update(static_cast<double>(top.total_calls())), m);
  result.add("release.store_us_per_update", "us",
             per_update(release_ns) * 1e-3, m);
  result.add("release.moves_per_update", "count",
             per_update(static_cast<double>(release.moves)), m);
  result.add("release.order_breaking_moves_per_update", "count",
             per_update(static_cast<double>(release.order_breaking_moves)), m);
  result.add("release.ordered_queries_per_update", "count",
             per_update(ordered), m);
  result.add("mem.validated_us_per_update", "us", validated_us,
             w.sequences * w.timed_updates);
  result.add("release.speedup_vs_validated", "x", validated_us / step_us,
             steps);
  result.add("arena.self_us_per_update", "us", per_update(arena_ns) * 1e-3, m);
  result.add("arena.bytes_moved_per_update", "B",
             per_update(static_cast<double>(bytes)), m);
  result.add("arena.copy_gbps", "GB/s",
             arena_ns > 0 ? static_cast<double>(bytes) / arena_ns : 0.0, m);
  result.add("trace.overhead_frac", "ratio",
             1.0 - step_us / mean(fastest(true, &Round::step_us)), m);
  if (!o.spans_out.empty()) write_spans(o.spans_out, w, traced_rounds);
  return result;
}

}  // namespace perfbench
