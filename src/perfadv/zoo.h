// The scenario zoo: one registry of named, structured workload generators
// so every driver (memreal_shard, memreal_serve, memreal_fuzz, memreal_adv,
// the benches) requests workloads by the same names and the adversarial
// search seeds its population from the same generators the drivers run.
//
// Each scenario declares what it needs from an allocator's size band
// (minimum band ratio, palette capability), and scenario_incompatibility /
// compatible_scenarios evaluate those needs against a registry
// AllocatorInfo via AllocatorInfo::serves.  scenario_rejection turns a
// misfit into the one message every caller reports, naming the allowed
// list, so inadmissible (workload, allocator) pairs are refused up front
// instead of failing mid-run.
//
// Members:
//   churn             steady-state banded churn (Theorem 3.1's regime)
//   sawtooth          grow-to-high / shrink-to-low load flanks
//   fragmenter        scatter-free + gap-defeating inserts (folklore's
//                     worst case)
//   multi_tenant_zipf tenant-partitioned band, Zipf-weighted activity
//   db_page_churn     Bender-style cost-oblivious page resizing (needs a
//                     band spanning >= 2 doublings)
//   defrag_burst      Fekete-style compaction waves
//   vm_heap           byte-addressed GC-heap stream (grow-realloc chains,
//                     generational death, compaction bursts)
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "workload/sequence.h"

namespace memreal {

/// Generation parameters shared by every scenario.  Band and palette
/// fields are normally derived from a registry AllocatorInfo via
/// scenario_params_for so the stream is admissible for that allocator.
struct ScenarioParams {
  Tick capacity = kDefaultCapacity;
  double eps = 1.0 / 64;
  Tick min_size = 0;  ///< inclusive tick band; 0 = eps of capacity
  Tick max_size = 0;  ///< inclusive; 0 = 2*eps of capacity - 1
  /// Emit a palette stream: sizes drawn once as a small fixed set
  /// (required by fixed-palette allocators such as DISCRETE).
  bool fixed_palette = false;
  std::size_t palette = 8;   ///< distinct sizes when fixed_palette
  std::size_t tenants = 4;   ///< multi_tenant_zipf only
  double zipf_s = 1.0;       ///< multi_tenant_zipf only
  Tick bytes_per_tick = 8;   ///< vm_heap only
  double target_load = 0.8;
  std::size_t updates = 2'000;  ///< churn updates after the fill phase
  std::uint64_t seed = 1;
};

struct ScenarioInfo {
  std::string name;
  std::string summary;
  /// The scenario needs max_size/min_size at least this large.
  double min_band_ratio = 1.0;
  /// Can emit fixed-palette streams (false = free-sampling only, so
  /// fixed-palette allocators cannot be served).
  bool palette_ok = true;
  /// Emits byte-mode updates (sequence carries bytes_per_tick).
  bool byte_mode = false;
  /// Fill mass is drawn at the band *minimum* (fragmenter's small items,
  /// db_page_churn's min-skewed ladder) rather than around the band mean —
  /// makes the fill-count feasibility estimate use min_size.
  bool fill_on_min = false;
};

/// Search and fuzz seeding policy: a scenario whose estimated fill phase
/// exceeds this many updates for an allocator's band is reported
/// incompatible (the sequences would be far too long to search).
inline constexpr std::size_t kMaxScenarioSeedUpdates = 150'000;

/// The drivers' fill ceiling: they run whatever length the user asked for,
/// so a long fill is never a reason to refuse a workload.
inline constexpr std::size_t kNoFillCeiling =
    std::numeric_limits<std::size_t>::max();

/// Every registered scenario, in registry order.
[[nodiscard]] const std::vector<ScenarioInfo>& scenario_infos();

/// Registry-order scenario names (the spelling every driver accepts).
[[nodiscard]] std::vector<std::string> scenario_names();

/// Metadata for `name`; nullptr when unknown.
[[nodiscard]] const ScenarioInfo* find_scenario(const std::string& name);

/// Generates the named scenario.  Throws InvariantViolation for unknown
/// names (listing the registry) or parameters the scenario cannot honor.
[[nodiscard]] Sequence make_scenario(const std::string& name,
                                     const ScenarioParams& p);

/// Scenario parameters admissible for `info`: the band comes from the
/// allocator's SizeProfile over `capacity` (widened downward for universal
/// allocators, which serve any well-formed sequence), palette mode from
/// its fixed_palette flag.
[[nodiscard]] ScenarioParams scenario_params_for(const AllocatorInfo& info,
                                                 double eps, Tick capacity,
                                                 std::size_t updates,
                                                 std::uint64_t seed);

/// The WorkloadShape a scenario generated with `p` presents to
/// AllocatorInfo::serves.
[[nodiscard]] WorkloadShape scenario_shape(const ScenarioInfo& info,
                                           const ScenarioParams& p);

/// Empty when `info` can serve the named scenario at (eps, capacity) with
/// scenario_params_for-derived parameters and an estimated fill phase of
/// at most `max_fill_updates`; otherwise a one-line reason.  Throws for
/// unknown scenario names.
[[nodiscard]] std::string scenario_incompatibility(
    const std::string& name, const AllocatorInfo& info, double eps,
    Tick capacity, std::size_t max_fill_updates = kMaxScenarioSeedUpdates);

/// The scenarios `info` can serve, in registry order.
[[nodiscard]] std::vector<std::string> compatible_scenarios(
    const AllocatorInfo& info, double eps, Tick capacity,
    std::size_t max_fill_updates = kMaxScenarioSeedUpdates);

/// Empty when `info` can serve `name`; otherwise the message every caller
/// reports: the reason followed by "(compatible scenarios for <allocator>:
/// <list>)", or "unknown scenario ..." listing the registry.  With
/// `tick_native`, byte-mode scenarios are refused and left out of the list
/// (for callers that drive tick-native streams only).
[[nodiscard]] std::string scenario_rejection(const std::string& name,
                                             const AllocatorInfo& info,
                                             double eps, Tick capacity,
                                             std::size_t max_fill_updates,
                                             bool tick_native = false);

}  // namespace memreal
