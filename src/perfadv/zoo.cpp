#include "perfadv/zoo.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/multi_tenant.h"
#include "workload/storage.h"
#include "workload/vm_heap.h"

namespace memreal {

namespace {

/// Default band when the caller left it at 0, matching the generators'
/// own defaults: [eps, 2eps) of capacity.
void resolve_band(const ScenarioParams& p, Tick* lo, Tick* hi) {
  const auto cap_d = static_cast<double>(p.capacity);
  *lo = p.min_size != 0
            ? p.min_size
            : std::max<Tick>(1, static_cast<Tick>(p.eps * cap_d));
  *hi = p.max_size != 0 ? p.max_size
                        : static_cast<Tick>(2.0 * p.eps * cap_d) - 1;
  MEMREAL_CHECK_MSG(*lo >= 1 && *lo <= *hi,
                    "degenerate scenario band [" << *lo << ", " << *hi
                                                 << "]");
}

std::string known_scenarios() {
  std::string names;
  for (const std::string& n : scenario_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  return names;
}

}  // namespace

const std::vector<ScenarioInfo>& scenario_infos() {
  static const std::vector<ScenarioInfo> kInfos = {
      {"churn", "steady-state banded churn near the target load", 1.0, true,
       false},
      {"sawtooth", "load repeatedly grows to the high mark then drains",
       1.0, /*palette_ok=*/false, false},
      {"fragmenter",
       "scatter-freed layout + gap-defeating inserts (folklore's worst "
       "case)",
       1.6, true, false, /*fill_on_min=*/true},
      {"multi_tenant_zipf",
       "tenant-partitioned size band with Zipf-weighted tenant activity",
       1.0, true, false},
      {"db_page_churn",
       "cost-oblivious page resizing on a doubling size ladder (Bender et "
       "al.)",
       4.0, true, false, /*fill_on_min=*/true},
      {"defrag_burst",
       "scatter-free fragmentation waves answered by compaction refills "
       "(Fekete et al.)",
       1.0, true, false},
      {"vm_heap",
       "byte-addressed GC heap: grow-realloc chains, generational death, "
       "compaction bursts",
       1.0, true, /*byte_mode=*/true},
  };
  return kInfos;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(scenario_infos().size());
  for (const ScenarioInfo& s : scenario_infos()) names.push_back(s.name);
  return names;
}

const ScenarioInfo* find_scenario(const std::string& name) {
  for (const ScenarioInfo& s : scenario_infos()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Sequence make_scenario(const std::string& name, const ScenarioParams& p) {
  const ScenarioInfo* info = find_scenario(name);
  MEMREAL_CHECK_MSG(info != nullptr, "unknown scenario '"
                                         << name << "' (registered: "
                                         << known_scenarios() << ")");
  MEMREAL_CHECK_MSG(!(p.fixed_palette && !info->palette_ok),
                    "scenario '" << name
                                 << "' cannot emit a fixed size palette");
  Tick lo = 0;
  Tick hi = 0;
  resolve_band(p, &lo, &hi);

  if (name == "churn") {
    if (p.fixed_palette) {
      DiscreteChurnConfig c;
      c.capacity = p.capacity;
      c.eps = p.eps;
      c.distinct_sizes = p.palette;
      c.min_size = lo;
      c.max_size = hi;
      c.target_load = p.target_load;
      c.churn_updates = p.updates;
      c.seed = p.seed;
      return make_discrete_churn(c);
    }
    ChurnConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.min_size = lo;
    c.max_size = hi;
    c.target_load = p.target_load;
    c.churn_updates = p.updates;
    c.seed = p.seed;
    return make_churn(c);
  }
  if (name == "sawtooth") {
    SawtoothConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.min_size = lo;
    c.max_size = hi;
    // One tooth is roughly two fill/drain sweeps of the live set; pick
    // the tooth count that lands near the requested update budget.
    const double avg =
        static_cast<double>(lo) / 2.0 + static_cast<double>(hi) / 2.0;
    const double per_tooth =
        2.0 * 0.8 *
        static_cast<double>(p.capacity) / std::max(1.0, avg);
    c.teeth = std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(p.updates) /
                                 std::max(1.0, per_tooth)),
        1, 16);
    c.seed = p.seed;
    return make_sawtooth(c);
  }
  if (name == "fragmenter") {
    FragmenterConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.small_size = lo;
    // A round is a fill + scatter-free + refill + drain cycle over the
    // live set; scale rounds to the update budget.
    const double per_round = 2.5 * 0.85 *
                             static_cast<double>(p.capacity) /
                             static_cast<double>(std::max<Tick>(1, lo));
    c.rounds = std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(p.updates) /
                                 std::max(1.0, per_round)),
        1, 16);
    c.seed = p.seed;
    return make_fragmenter(c);
  }
  if (name == "multi_tenant_zipf") {
    if (p.fixed_palette) {
      // Fixed-palette allocators must see a small reused size set; model
      // the tenant skew as Zipf weights over the palette.
      DiscreteChurnConfig c;
      c.capacity = p.capacity;
      c.eps = p.eps;
      c.distinct_sizes = p.palette;
      c.min_size = lo;
      c.max_size = hi;
      c.zipf_s = p.zipf_s;
      c.target_load = p.target_load;
      c.churn_updates = p.updates;
      c.seed = p.seed;
      return make_discrete_churn(c);
    }
    MultiTenantConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.tenants = p.tenants;
    c.zipf_s = p.zipf_s;
    c.min_size = lo;
    c.max_size = hi;
    c.target_load = p.target_load;
    c.churn_updates = p.updates;
    c.seed = p.seed;
    return make_multi_tenant(c);
  }
  if (name == "db_page_churn") {
    DbPageChurnConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.min_page = lo;
    c.max_page = hi;
    c.target_load = p.target_load;
    c.churn_updates = p.updates;
    c.seed = p.seed;
    return make_db_page_churn(c);
  }
  if (name == "defrag_burst") {
    DefragBurstConfig c;
    c.capacity = p.capacity;
    c.eps = p.eps;
    c.min_size = lo;
    c.max_size = hi;
    c.palette = p.fixed_palette ? p.palette : 0;
    c.high_load = std::max(p.target_load, 0.7);
    c.churn_updates = p.updates;
    c.seed = p.seed;
    return make_defrag_burst(c);
  }
  MEMREAL_CHECK(name == "vm_heap");
  const Tick bpt = p.bytes_per_tick;
  VmHeapConfig c;
  c.capacity = p.capacity;
  c.eps = p.eps;
  c.bytes_per_tick = bpt;
  // Byte band derived from the tick band: the smallest byte size that
  // still rounds up to lo ticks, up to the largest fitting hi ticks.
  c.min_bytes = (lo - 1) * bpt + 1;
  c.max_bytes = hi * bpt;
  c.distinct_sizes = p.fixed_palette ? p.palette : 0;
  c.target_load = p.target_load;
  c.churn_updates = p.updates;
  c.seed = p.seed;
  return make_vm_heap(c);
}

ScenarioParams scenario_params_for(const AllocatorInfo& info, double eps,
                                   Tick capacity, std::size_t updates,
                                   std::uint64_t seed) {
  ScenarioParams p;
  p.capacity = capacity;
  p.eps = eps;
  Tick lo = info.sizes.min_size(eps, capacity);
  const Tick hi = info.sizes.max_size(eps, capacity) - 1;
  // Universal allocators serve any well-formed sequence; widen the band
  // downward so ladder scenarios (db_page_churn) get their doublings.
  if (info.universal) lo = std::max<Tick>(1, lo / 4);
  p.min_size = std::min(lo, hi);
  p.max_size = hi;
  p.fixed_palette = info.sizes.fixed_palette;
  p.updates = updates;
  p.seed = seed;
  return p;
}

WorkloadShape scenario_shape(const ScenarioInfo& info,
                             const ScenarioParams& p) {
  Tick lo = 0;
  Tick hi = 0;
  resolve_band(p, &lo, &hi);
  WorkloadShape shape;
  shape.min_size = lo;
  // The fragmenter emits exactly {small, small + small/2 + 1}.
  shape.max_size = info.name == "fragmenter" ? lo + lo / 2 + 1 : hi;
  shape.fixed_palette = p.fixed_palette && info.palette_ok;
  return shape;
}

std::string scenario_incompatibility(const std::string& name,
                                     const AllocatorInfo& info, double eps,
                                     Tick capacity,
                                     std::size_t max_fill_updates) {
  const ScenarioInfo* s = find_scenario(name);
  MEMREAL_CHECK_MSG(s != nullptr, "unknown scenario '"
                                      << name << "' (registered: "
                                      << known_scenarios() << ")");
  if (info.sizes.fixed_palette && !s->palette_ok) {
    return name + ": free-sampling scenario cannot serve fixed-palette "
                  "allocator " +
           info.name;
  }
  const ScenarioParams p =
      scenario_params_for(info, eps, capacity, /*updates=*/1, /*seed=*/1);
  const double ratio = static_cast<double>(p.max_size) /
                       static_cast<double>(std::max<Tick>(1, p.min_size));
  if (ratio + 1e-9 < s->min_band_ratio) {
    return name + ": needs a size-band ratio >= " +
           std::to_string(s->min_band_ratio) + "; " + info.name +
           "'s band [" + std::to_string(p.min_size) + ", " +
           std::to_string(p.max_size) + "] has ratio " +
           std::to_string(ratio);
  }
  // Fill feasibility: a seed fills toward the target load one item at a
  // time, so its length scales as load * capacity / item size.  Bands that
  // are tiny relative to capacity (TINYSLAB-family, sizes <= eps^4) would
  // need millions of fill updates — past the search ceiling, though a
  // driver (no ceiling) still runs them.
  const WorkloadShape shape = scenario_shape(*s, p);
  const double fill_size =
      s->fill_on_min ? static_cast<double>(shape.min_size)
                     : (static_cast<double>(shape.min_size) +
                        static_cast<double>(shape.max_size)) /
                           2.0;
  const double est_fill =
      0.8 * static_cast<double>(capacity) / std::max(1.0, fill_size);
  if (est_fill > static_cast<double>(max_fill_updates)) {
    return name + ": fill phase would need ~" +
           std::to_string(static_cast<unsigned long long>(est_fill)) +
           " updates at " + info.name + "'s size band (cap " +
           std::to_string(max_fill_updates) +
           "); raise eps or shrink capacity";
  }
  std::string why;
  if (!info.serves(shape, eps, capacity, &why)) return why;
  return "";
}

std::vector<std::string> compatible_scenarios(const AllocatorInfo& info,
                                              double eps, Tick capacity,
                                              std::size_t max_fill_updates) {
  std::vector<std::string> names;
  for (const ScenarioInfo& s : scenario_infos()) {
    if (scenario_incompatibility(s.name, info, eps, capacity,
                                 max_fill_updates)
            .empty()) {
      names.push_back(s.name);
    }
  }
  return names;
}

}  // namespace memreal
