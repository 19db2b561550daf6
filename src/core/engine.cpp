#include "core/engine.h"

#include <chrono>

#include "obs/trace.h"
#include "util/check.h"

namespace memreal {

Engine::Engine(LayoutStore& memory, Allocator& allocator,
               EngineOptions options)
    : memory_(&memory), allocator_(&allocator), options_(std::move(options)) {
  memory_->policy().check_resizable_bound = allocator_->resizable();
}

double Engine::step(const Update& update) {
  obs::ScopedSpan apply_span(obs::SpanPhase::kApply, options_.metrics.shard);
  MEMREAL_CHECK(update.size > 0);
  if (options_.before_update) options_.before_update(update);
  const bool is_insert = update.is_insert();
  if (!is_insert) {
    MEMREAL_CHECK_MSG(memory_->contains(update.id),
                      "delete of absent item " << update.id);
    MEMREAL_CHECK_MSG(memory_->size_of(update.id) == update.size,
                      "sequence size mismatch for item " << update.id);
  }
  memory_->begin_update(update.size, is_insert);
  if (is_insert) {
    allocator_->insert(update.id, update.size);
  } else {
    allocator_->erase(update.id);
  }
  Tick moved = 0;
  {
    obs::ScopedSpan validate_span(obs::SpanPhase::kValidate,
                                  options_.metrics.shard);
    moved = memory_->end_update();
  }
  const Tick bytes = memory_->last_update_bytes();
  stats_.record(is_insert, update.size, moved, bytes);
  options_.metrics.on_update(is_insert, update.size, moved, bytes);

  ++step_index_;
  if (options_.check_invariants_every != 0 &&
      step_index_ % options_.check_invariants_every == 0) {
    allocator_->check_invariants();
  }
  const double cost =
      static_cast<double>(moved) / static_cast<double>(update.size);
  if (options_.on_update) {
    options_.on_update(step_index_ - 1, update, cost);
  }
  return cost;
}

RunStats Engine::run(std::span<const Update> updates) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const Update& u : updates) {
    step(u);
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats_.wall_seconds += std::chrono::duration<double>(t1 - t0).count();
  stats_.decision_seconds = allocator_->decision_seconds();
  return stats_;
}

}  // namespace memreal
