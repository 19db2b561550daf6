// Shared helpers for the memreal test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "alloc/registry.h"
#include "core/engine.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/random_item.h"
#include "workload/sequence.h"

namespace memreal::testing {

/// Registers a test allocator for the lifetime of one test.
class ScopedRegistration {
 public:
  ScopedRegistration(AllocatorInfo info, AllocatorFactory factory)
      : name_(info.name) {
    register_allocator(std::move(info), std::move(factory));
  }
  ~ScopedRegistration() { unregister_allocator(name_); }

  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

 private:
  std::string name_;
};

/// A Memory wired for exhaustive validation: incremental checks plus a
/// full audit at every update.
inline Memory strict_memory(Tick capacity, double eps) {
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  // Eps::of, not a raw cast: it clamps tiny eps to >= 1 tick.
  return Memory(capacity, Eps::of(eps, capacity).ticks, policy);
}

/// Runs `allocator_name` over `seq` with full validation and per-update
/// allocator invariant checks; returns the stats.
inline RunStats run_with_invariants(const std::string& allocator_name,
                                    const Sequence& seq,
                                    std::uint64_t seed = 1,
                                    double delta = 0.0,
                                    std::size_t check_every = 1) {
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  AllocatorParams params;
  params.eps = seq.eps;
  params.delta = delta;
  params.seed = seed;
  auto alloc = make_allocator(allocator_name, mem, params);
  EngineOptions opts;
  opts.check_invariants_every = check_every;
  Engine engine(mem, *alloc, opts);
  RunStats stats = engine.run(seq.updates);
  mem.audit();
  alloc->check_invariants();
  return stats;
}

/// Runs `seq` through a cell of the given engine flavor ("validated" or
/// "release"), with a final full audit + allocator self-check; returns the
/// stats.  The engine-generic counterpart of run_with_invariants.
inline RunStats run_cell(const std::string& engine,
                         const std::string& allocator_name,
                         const Sequence& seq, std::uint64_t seed = 1,
                         double delta = 0.0) {
  CellConfig config;
  config.engine = engine;
  config.allocator = allocator_name;
  config.params.eps = seq.eps;
  config.params.delta = delta;
  config.params.seed = seed;
  auto cell = make_cell(seq.capacity, seq.eps_ticks, config);
  const RunStats stats = cell->run(seq.updates);
  cell->audit();
  return stats;
}

/// An allocator name with the eps/delta it should be smoke-run at.
struct RegimeCase {
  std::string allocator;
  double eps = 1.0 / 32;
  double delta = 0.0;
};

inline RegimeCase regime_case(const std::string& name) {
  RegimeCase c;
  c.allocator = name;
  if (name == "rsum") {
    c.eps = 1.0 / 256;
    c.delta = 1.0 / 128;
  }
  return c;
}

/// A ~`updates`-long churn workload inside the allocator's admissible size
/// regime.  Every registered allocator must have a mapping here — tests
/// that iterate allocator_names() fail on unmapped registrations, so new
/// names can never land without minimal coverage.
inline Sequence regime_sequence(const RegimeCase& c, Tick capacity,
                                std::size_t updates, std::uint64_t seed) {
  const std::string& name = c.allocator;
  if (name == "folklore-compact" || name == "folklore-windowed" ||
      name == "simple") {
    return make_simple_regime(capacity, c.eps, updates, seed);
  }
  if (name == "geo") {
    GeoRegimeConfig g;
    g.capacity = capacity;
    g.eps = c.eps;
    g.churn_updates = updates;
    g.huge_fraction = 0.05;
    g.seed = seed;
    return make_geo_regime(g);
  }
  if (name == "tinyslab" || name == "flexhash") {
    // Tiny-item churn: sizes in (0, eps^4] of capacity.
    const auto cap_d = static_cast<double>(capacity);
    const auto tiny_hi = static_cast<Tick>(std::pow(c.eps, 4.0) * cap_d);
    ChurnConfig cc;
    cc.capacity = capacity;
    cc.eps = c.eps;
    cc.min_size = std::max<Tick>(1, tiny_hi / 1024);
    cc.max_size = tiny_hi;
    cc.target_load =
        std::min(0.5, 2000.0 * static_cast<double>(cc.max_size) / cap_d);
    cc.churn_updates = updates;
    cc.seed = seed;
    return make_churn(cc);
  }
  if (name == "combined") {
    MixedTinyLargeConfig m;
    m.capacity = capacity;
    m.eps = c.eps;
    m.churn_updates = updates;
    m.seed = seed;
    return make_mixed_tiny_large(m);
  }
  if (name == "rsum") {
    RandomItemConfig r;
    r.capacity = capacity;
    r.eps = c.eps;
    r.delta = c.delta;
    r.churn_pairs = updates / 2;
    r.seed = seed;
    return make_random_item_sequence(r);
  }
  if (name == "discrete") {
    DiscreteChurnConfig d;
    d.capacity = capacity;
    d.eps = c.eps;
    d.churn_updates = updates;
    d.seed = seed;
    return make_discrete_churn(d);
  }
  ADD_FAILURE() << "allocator '" << name
                << "' is registered but has no regime workload; add one to "
                   "tests/testing.h (regime_sequence)";
  return Sequence{};
}

}  // namespace memreal::testing
