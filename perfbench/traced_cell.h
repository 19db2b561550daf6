// A release cell assembled from public parts with TimingStore decorators
// spliced in, for the benchmark's traced runs:
//
//   plain:  allocator -> TimingStore(release) -> SlabStore
//   arena:  allocator -> TimingStore(arena) -> ArenaStore
//                     -> TimingStore(release) -> SlabStore
//
// It mirrors make_cell's release and release+arena wiring (same stores,
// same allocator factory, the generic Engine with the arena's byte-staging
// hook), so its per-update costs and layouts equal the undecorated cell's.
#pragma once

#include <memory>
#include <string>

#include "alloc/registry.h"
#include "arena/arena_store.h"
#include "core/engine.h"
#include "release/slab_store.h"
#include "timing_store.h"

namespace perfbench {

class TracedCell {
 public:
  TracedCell(Tick capacity, Tick eps_ticks, const std::string& allocator,
             const memreal::AllocatorParams& params, bool arena,
             Tick bytes_per_tick)
      : slab_(capacity, eps_ticks), release_(slab_, /*track_order=*/true) {
    memreal::LayoutStore* top = &release_;
    memreal::EngineOptions options;
    if (arena) {
      arena_store_ = std::make_unique<memreal::ArenaStore>(
          release_, memreal::ByteSpace(bytes_per_tick));
      arena_ = std::make_unique<TimingStore>(*arena_store_, false);
      top = arena_.get();
      options.before_update = [store = arena_store_.get()](
                                  const memreal::Update& u) {
        if (u.is_insert()) store->stage_insert(u.id, u.size_bytes);
      };
    }
    allocator_ = memreal::make_allocator(allocator, *top, params);
    engine_ = std::make_unique<memreal::Engine>(*top, *allocator_,
                                                std::move(options));
  }
  TracedCell(const TracedCell&) = delete;
  TracedCell& operator=(const TracedCell&) = delete;

  double step(const memreal::Update& u) { return engine_->step(u); }
  [[nodiscard]] const memreal::RunStats& stats() const {
    return engine_->stats();
  }
  /// The store the allocator talks to.
  [[nodiscard]] memreal::LayoutStore& memory() {
    return arena_ ? static_cast<memreal::LayoutStore&>(*arena_) : release_;
  }
  /// The decorator the allocator talks to.
  [[nodiscard]] const TimingStore& top_layer() const {
    return arena_ ? *arena_ : release_;
  }
  /// The decorator around the SlabStore.
  [[nodiscard]] const TimingStore& release_layer() const { return release_; }
  /// The byte arena; null for plain cells.
  [[nodiscard]] const memreal::ArenaStore* arena() const {
    return arena_store_.get();
  }

  /// Full store audit (plus every payload under an arena) and allocator
  /// self-check, as ReleaseCell/ArenaCell::audit do.
  void audit() {
    if (arena_store_) {
      arena_store_->audit();
    } else {
      slab_.audit();
    }
    allocator_->check_invariants();
  }

 private:
  memreal::SlabStore slab_;
  TimingStore release_;
  std::unique_ptr<memreal::ArenaStore> arena_store_;
  std::unique_ptr<TimingStore> arena_;
  std::unique_ptr<memreal::Allocator> allocator_;
  std::unique_ptr<memreal::Engine> engine_;
};

}  // namespace perfbench
