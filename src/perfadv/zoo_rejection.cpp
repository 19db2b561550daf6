// scenario_rejection (declared in zoo.h), in its own translation unit so
// that a binary which only generates scenarios does not link it.  In
// zoo.cpp its exception-path code sat ahead of every hot function in the
// perfbench link and shifted their alignment, which alone moved the
// arena_vm_heap update p50 by ~20%.
#include <string>
#include <vector>

#include "perfadv/zoo.h"

namespace memreal {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

}  // namespace

std::string scenario_rejection(const std::string& name,
                               const AllocatorInfo& info, double eps,
                               Tick capacity, std::size_t max_fill_updates,
                               bool tick_native) {
  const ScenarioInfo* s = find_scenario(name);
  if (s == nullptr) {
    return "unknown scenario '" + name + "' (registered: " +
           join(scenario_names()) + ")";
  }
  const std::string why =
      tick_native && s->byte_mode
          ? name + ": byte-addressed scenario; this driver runs tick-native "
                   "streams only"
          : scenario_incompatibility(name, info, eps, capacity,
                                     max_fill_updates);
  if (why.empty()) return why;
  std::vector<std::string> compat =
      compatible_scenarios(info, eps, capacity, max_fill_updates);
  if (tick_native) {
    std::erase_if(compat, [](const std::string& c) {
      return find_scenario(c)->byte_mode;
    });
  }
  return why + " (compatible scenarios for " + info.name + ": " +
         (compat.empty() ? "none at this eps" : join(compat)) + ")";
}

}  // namespace memreal
