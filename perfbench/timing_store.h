// A counting and timing LayoutStore decorator.
//
// The benchmark's traced run puts one of these between an allocator and
// the store it talks to (and, for arena cells, a second one between the
// ArenaStore and its inner SlabStore).  Every call is forwarded unchanged,
// so a decorated cell produces exactly the costs and layouts of the
// undecorated one (test_timing_store.cpp pins that down); the decorator
// only adds a steady_clock interval and a counter per call, bucketed by
// operation kind.
//
// With track_order set, the decorator also keeps its own (offset, id)
// ordered shadow of the layout so it can classify each move before it
// happens: a move is order-breaking when its destination leaves the
// item's rank between its offset-order neighbours.  The shadow lives in
// the decorator, so classifying never sends an ordered query to the
// decorated store (a store that restores order lazily on ordered queries
// would otherwise be timed doing work the allocator did not ask for).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/layout_store.h"

namespace perfbench {

using memreal::ItemId;
using memreal::LayoutStore;
using memreal::PlacedItem;
using memreal::Tick;

enum class Op : std::size_t {
  kTxn,           ///< begin_update / end_update (end flushes arena copies)
  kPlace,
  kMove,          ///< move_to and apply_run
  kExtent,        ///< set_extent / reset_extent(s)
  kRemove,
  kPointQuery,    ///< by-id lookups and O(1) aggregates
  kOrderedQuery,  ///< by-offset queries, snapshots, gaps
  kCount
};
inline constexpr std::size_t kOps = static_cast<std::size_t>(Op::kCount);
inline constexpr std::array<const char*, kOps> kOpNames = {
    "txn", "place", "move", "extent", "remove", "point_query",
    "ordered_query"};

/// Cumulative counters of one decorator; subtract two snapshots for the
/// work of one update.
struct StoreTotals {
  std::array<std::int64_t, kOps> ns{};
  std::array<std::uint64_t, kOps> calls{};
  std::uint64_t moves = 0;  ///< moves that changed an item's offset
  std::uint64_t order_breaking_moves = 0;
  /// Time spent maintaining the order shadow (caller-visible overhead
  /// that belongs to neither the caller nor the decorated store).
  std::int64_t bookkeeping_ns = 0;

  [[nodiscard]] std::int64_t total_ns() const {
    std::int64_t t = 0;
    for (const std::int64_t v : ns) t += v;
    return t;
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t c = 0;
    for (const std::uint64_t v : calls) c += v;
    return c;
  }
  friend StoreTotals operator+(StoreTotals a, const StoreTotals& b) {
    for (std::size_t i = 0; i < kOps; ++i) {
      a.ns[i] += b.ns[i];
      a.calls[i] += b.calls[i];
    }
    a.moves += b.moves;
    a.order_breaking_moves += b.order_breaking_moves;
    a.bookkeeping_ns += b.bookkeeping_ns;
    return a;
  }
  friend StoreTotals operator-(StoreTotals a, const StoreTotals& b) {
    for (std::size_t i = 0; i < kOps; ++i) {
      a.ns[i] -= b.ns[i];
      a.calls[i] -= b.calls[i];
    }
    a.moves -= b.moves;
    a.order_breaking_moves -= b.order_breaking_moves;
    a.bookkeeping_ns -= b.bookkeeping_ns;
    return a;
  }
};

class TimingStore final : public LayoutStore {
 public:
  TimingStore(LayoutStore& inner, bool track_order)
      : inner_(&inner), track_order_(track_order) {}
  TimingStore(const TimingStore&) = delete;
  TimingStore& operator=(const TimingStore&) = delete;

  [[nodiscard]] const StoreTotals& totals() const { return totals_; }

  void begin_update(Tick update_size, bool is_insert) override {
    timed(Op::kTxn, [&] { inner_->begin_update(update_size, is_insert); });
  }
  Tick end_update() override {
    return timed(Op::kTxn, [&] { return inner_->end_update(); });
  }
  [[nodiscard]] bool in_update() const override {
    return timed(Op::kPointQuery, [&] { return inner_->in_update(); });
  }
  [[nodiscard]] Tick moved_in_update() const override {
    return timed(Op::kPointQuery, [&] { return inner_->moved_in_update(); });
  }

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) override {
    timed(Op::kPlace, [&] { inner_->place(id, offset, size, extent); });
    if (track_order_) bookkeep([&] { order_.emplace(offset, id); });
  }
  void move_to(ItemId id, Tick offset) override {
    if (track_order_) {
      bookkeep([&] { classify_move(id, inner_->offset_of(id), offset); });
    }
    timed(Op::kMove, [&] { inner_->move_to(id, offset); });
  }
  void set_extent(ItemId id, Tick extent) override {
    timed(Op::kExtent, [&] { inner_->set_extent(id, extent); });
  }
  void reset_extent(ItemId id) override {
    timed(Op::kExtent, [&] { inner_->reset_extent(id); });
  }
  void reset_extents(std::span<const ItemId> ids) override {
    timed(Op::kExtent, [&] { inner_->reset_extents(ids); });
  }
  void remove(ItemId id) override {
    if (track_order_) {
      bookkeep([&] { order_.erase({inner_->offset_of(id), id}); });
    }
    timed(Op::kRemove, [&] { inner_->remove(id); });
  }
  Tick apply_run(std::span<const ItemId> ids, Tick offset) override {
    if (track_order_) {
      bookkeep([&] {
        // Classify in run order: each item lands at the previous one's end.
        Tick at = offset;
        for (const ItemId id : ids) {
          classify_move(id, inner_->offset_of(id), at);
          at += inner_->extent_of(id);
        }
      });
    }
    return timed(Op::kMove, [&] { return inner_->apply_run(ids, offset); });
  }

  [[nodiscard]] bool contains(ItemId id) const override {
    return timed(Op::kPointQuery, [&] { return inner_->contains(id); });
  }
  [[nodiscard]] Tick offset_of(ItemId id) const override {
    return timed(Op::kPointQuery, [&] { return inner_->offset_of(id); });
  }
  [[nodiscard]] Tick size_of(ItemId id) const override {
    return timed(Op::kPointQuery, [&] { return inner_->size_of(id); });
  }
  [[nodiscard]] Tick extent_of(ItemId id) const override {
    return timed(Op::kPointQuery, [&] { return inner_->extent_of(id); });
  }
  [[nodiscard]] Tick end_of(ItemId id) const override {
    return timed(Op::kPointQuery, [&] { return inner_->end_of(id); });
  }
  [[nodiscard]] std::size_t item_count() const override {
    return timed(Op::kPointQuery, [&] { return inner_->item_count(); });
  }
  [[nodiscard]] Tick live_mass() const override {
    return timed(Op::kPointQuery, [&] { return inner_->live_mass(); });
  }
  [[nodiscard]] Tick extent_mass() const override {
    return timed(Op::kPointQuery, [&] { return inner_->extent_mass(); });
  }
  [[nodiscard]] Tick span_end() const override {
    return timed(Op::kPointQuery, [&] { return inner_->span_end(); });
  }
  [[nodiscard]] Tick capacity() const override { return inner_->capacity(); }
  [[nodiscard]] Tick eps_ticks() const override {
    return inner_->eps_ticks();
  }
  [[nodiscard]] Tick total_moved() const override {
    return inner_->total_moved();
  }
  [[nodiscard]] std::size_t update_count() const override {
    return inner_->update_count();
  }
  [[nodiscard]] Tick last_update_bytes() const override {
    return inner_->last_update_bytes();
  }
  [[nodiscard]] Tick total_bytes_moved() const override {
    return inner_->total_bytes_moved();
  }

  [[nodiscard]] std::optional<PlacedItem> item_at(Tick offset)
      const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->item_at(offset); });
  }
  [[nodiscard]] std::optional<PlacedItem> first_at_or_after(
      Tick offset) const override {
    return timed(Op::kOrderedQuery,
                 [&] { return inner_->first_at_or_after(offset); });
  }
  [[nodiscard]] std::optional<PlacedItem> last_before(Tick offset)
      const override {
    return timed(Op::kOrderedQuery,
                 [&] { return inner_->last_before(offset); });
  }
  [[nodiscard]] std::optional<PlacedItem> first_item() const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->first_item(); });
  }
  [[nodiscard]] std::optional<PlacedItem> last_item() const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->last_item(); });
  }
  [[nodiscard]] Neighbors neighbors_of(ItemId id) const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->neighbors_of(id); });
  }
  [[nodiscard]] std::vector<PlacedItem> items_in(Tick from,
                                                 Tick to) const override {
    return timed(Op::kOrderedQuery,
                 [&] { return inner_->items_in(from, to); });
  }
  [[nodiscard]] std::vector<PlacedItem> snapshot() const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->snapshot(); });
  }
  [[nodiscard]] std::vector<std::pair<Tick, Tick>> gaps() const override {
    return timed(Op::kOrderedQuery, [&] { return inner_->gaps(); });
  }

  void audit() const override { inner_->audit(); }
  [[nodiscard]] memreal::ValidationPolicy& policy() override {
    return inner_->policy();
  }
  [[nodiscard]] const memreal::ValidationPolicy& policy() const override {
    return inner_->policy();
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::int64_t since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  }

  template <typename F>
  auto timed(Op op, F&& f) const -> decltype(f()) {
    const auto i = static_cast<std::size_t>(op);
    ++totals_.calls[i];
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      totals_.ns[i] += since(t0);
    } else {
      auto r = f();
      totals_.ns[i] += since(t0);
      return r;
    }
  }

  template <typename F>
  void bookkeep(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    totals_.bookkeeping_ns += since(t0);
  }

  void classify_move(ItemId id, Tick from, Tick to) {
    if (from == to) return;
    ++totals_.moves;
    const auto it = order_.find({from, id});
    if (it == order_.end()) return;  // unknown id: the store will throw
    const std::pair<Tick, ItemId> dest{to, id};
    const bool after_prev =
        it == order_.begin() || *std::prev(it) < dest;
    const auto next = std::next(it);
    const bool before_next = next == order_.end() || dest < *next;
    if (!after_prev || !before_next) ++totals_.order_breaking_moves;
    order_.erase(it);
    order_.insert(dest);
  }

  LayoutStore* inner_;
  bool track_order_;
  mutable StoreTotals totals_;
  std::set<std::pair<Tick, ItemId>> order_;
};

}  // namespace perfbench
