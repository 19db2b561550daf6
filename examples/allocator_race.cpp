// allocator_race — run every allocator on an identical workload and print
// a comparison table.  A CLI for quick exploration:
//
//   allocator_race [workload] [inv_eps] [updates] [seed]
//
//   workload: band | geo | mixed | random | sawtooth   (default: band;
//             any other name exits 2)
//   inv_eps : 1/eps (default 64)
//   updates : churn length (default 5000)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "core/engine.h"
#include "mem/memory.h"
#include "util/table.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/random_item.h"

namespace {

using namespace memreal;

Sequence build_workload(const std::string& kind, Tick cap, double eps,
                        std::size_t updates, std::uint64_t seed) {
  if (kind == "geo") {
    GeoRegimeConfig c;
    c.capacity = cap;
    c.eps = eps;
    c.churn_updates = updates;
    c.seed = seed;
    return make_geo_regime(c);
  }
  if (kind == "mixed") {
    MixedTinyLargeConfig c;
    c.capacity = cap;
    c.eps = eps;
    c.churn_updates = updates;
    c.seed = seed;
    return make_mixed_tiny_large(c);
  }
  if (kind == "random") {
    RandomItemConfig c;
    c.capacity = cap;
    c.eps = eps;
    c.churn_pairs = updates / 2;
    c.seed = seed;
    return make_random_item_sequence(c);
  }
  if (kind == "sawtooth") {
    SawtoothConfig c;
    c.capacity = cap;
    c.eps = eps;
    c.teeth = 3;
    c.seed = seed;
    return make_sawtooth(c);
  }
  if (kind == "band") return make_simple_regime(cap, eps, updates, seed);
  std::fprintf(stderr, "allocator_race: unknown workload '%s' (%s)\n",
               kind.c_str(), "band|geo|mixed|random|sawtooth");
  std::exit(2);
}

/// Which allocators can serve a given workload's size regime?
bool admissible(const std::string& allocator, const std::string& workload,
                double eps) {
  if (allocator == "simple") {
    return workload == "band" || workload == "sawtooth";
  }
  if (allocator == "rsum") return workload == "random";
  if (allocator == "discrete") return false;  // needs a fixed size palette
  if (allocator == "tinyslab" || allocator == "flexhash") return false;
  if (allocator == "geo" || allocator == "combined") {
    // eps^5 tick resolution at 2^50 capacity.
    return eps >= 1.0 / 512 || workload == "random";
  }
  (void)eps;
  return true;  // folklore variants take anything
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "band";
  const double inv_eps = argc > 2 ? std::atof(argv[2]) : 64.0;
  const std::size_t updates =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 5'000;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10)
                                      : 1;
  const double eps = 1.0 / inv_eps;
  const Tick cap = Tick{1} << 50;

  const Sequence seq = build_workload(kind, cap, eps, updates, seed);
  std::printf(
      "allocator_race: workload=%s 1/eps=%.0f updates=%zu seed=%llu\n\n",
      kind.c_str(), inv_eps, updates,
      static_cast<unsigned long long>(seed));

  Table t({"allocator", "updates", "mean cost", "ratio cost", "p99", "max",
           "wall us/upd"});
  for (const std::string& name : allocator_names()) {
    if (!admissible(name, kind, eps)) continue;
    ValidationPolicy policy;
    policy.audit_every_n_updates = 512;
    Memory mem(seq.capacity, seq.eps_ticks, policy);
    AllocatorParams params;
    params.eps = eps;
    params.seed = seed;
    auto alloc = make_allocator(name, mem, params);
    Engine engine(mem, *alloc);
    RunStats s = engine.run(seq.updates);
    t.add_row({name, std::to_string(s.updates),
               Table::num(s.mean_cost(), 4), Table::num(s.ratio_cost(), 4),
               Table::num(s.cost_quantiles.quantile(0.99), 4),
               Table::num(s.max_cost(), 4),
               Table::num(s.wall_seconds * 1e6 /
                              double(std::max<std::size_t>(1, s.updates)),
                          3)});
  }
  t.print(std::cout);
  return 0;
}
