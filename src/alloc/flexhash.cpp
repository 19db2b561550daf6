#include "alloc/flexhash.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace memreal {

FlexHashAllocator::FlexHashAllocator(LayoutStore& mem,
                                     const FlexHashConfig& config)
    : mem_(&mem), rng_(config.seed), region_start_(config.region_start) {
  const double eps = config.eps;
  MEMREAL_CHECK(eps > 0 && eps < 0.5);
  const auto cap_d = static_cast<double>(mem_->capacity());
  max_tiny_ = config.max_tiny_size
                  ? config.max_tiny_size
                  : static_cast<Tick>(std::pow(eps, 4.0) * cap_d);

  TinySlabConfig tc;
  tc.eps = eps;
  tc.max_size = max_tiny_;
  tc.seed = rng_.next_u64();
  tiny_ = std::make_unique<TinySlabAllocator>(mem, tc, this);
  M_ = tiny_->unit_size();
  big_thr_ = std::max<Tick>(1, M_ / 100);

  // Update-types: geometric over external sizes (max_tiny, capacity].
  num_types_ = 1;
  Tick hi = max_tiny_ * 2;
  while (hi < mem_->capacity()) {
    hi *= 2;
    ++num_types_;
  }
  B_.assign(num_types_, 8 * static_cast<long long>(M_));
  P_right_.assign(num_types_, 0);
  P_left_.assign(num_types_, 0);
  R_right_.resize(num_types_);
  R_left_.resize(num_types_);
  for (std::size_t t = 0; t < num_types_; ++t) {
    R_right_[t] = rng_.next_tick_in(2 * M_, 4 * M_);
    R_left_[t] = rng_.next_tick_in(2 * M_, 4 * M_);
  }
  anchor_ = static_cast<long long>(region_start_) +
            static_cast<long long>(num_types_) * 8 *
                static_cast<long long>(M_);
}

std::size_t FlexHashAllocator::type_of(Tick size) const {
  MEMREAL_CHECK_MSG(size > max_tiny_, "external update of tiny size");
  std::size_t t = 0;
  Tick hi = max_tiny_ * 2;
  while (size > hi && t + 1 < num_types_) {
    hi *= 2;
    ++t;
  }
  return t;
}

long long FlexHashAllocator::first_unit_pos() const {
  return anchor_ + slot_lo_ * static_cast<long long>(M_);
}

Tick FlexHashAllocator::unit_offset(std::size_t unit) const {
  MEMREAL_CHECK(unit < perm_.size());
  const long long pos = anchor_ + perm_[unit] * static_cast<long long>(M_);
  MEMREAL_CHECK_MSG(pos >= 0, "unit placed below address 0");
  return static_cast<Tick>(pos);
}

void FlexHashAllocator::on_unit_created(std::size_t unit) {
  MEMREAL_CHECK(unit == perm_.size());
  perm_.push_back(slot_hi_);
  unit_at_.push_back(unit);
  ++slot_hi_;
}

void FlexHashAllocator::on_unit_destroyed(std::size_t unit) {
  MEMREAL_CHECK(unit + 1 == perm_.size());
  const long long s = perm_[unit];
  perm_.pop_back();
  if (s != slot_hi_ - 1) {
    // Swap the physically final unit into the vacated slot (the paper's
    // memory-unit swap for TINYHASH resize operations).
    const std::size_t v = unit_at_.back();
    perm_[v] = s;
    unit_at_[static_cast<std::size_t>(s - slot_lo_)] = v;
    tiny_->replace_unit_items(v);
  }
  unit_at_.pop_back();
  --slot_hi_;
}

void FlexHashAllocator::rotate_front_to_end(std::size_t type) {
  ++rotations_;
  if (slot_lo_ == slot_hi_) {
    // No units: the rotation is purely notional.
    ++slot_lo_;
    ++slot_hi_;
  } else {
    const std::size_t v = unit_at_.front();
    unit_at_.pop_front();
    unit_at_.push_back(v);
    perm_[v] = slot_hi_;
    ++slot_lo_;
    ++slot_hi_;
    tiny_->replace_unit_items(v);
  }
  B_[type] += static_cast<long long>(M_);
}

void FlexHashAllocator::rotate_end_to_front(std::size_t type) {
  ++rotations_;
  if (slot_lo_ == slot_hi_) {
    --slot_lo_;
    --slot_hi_;
  } else {
    const std::size_t v = unit_at_.back();
    unit_at_.pop_back();
    unit_at_.push_front(v);
    perm_[v] = slot_lo_ - 1;
    --slot_lo_;
    --slot_hi_;
    tiny_->replace_unit_items(v);
  }
  B_[type] -= static_cast<long long>(M_);
}

void FlexHashAllocator::bulk_shift(std::size_t type,
                                   long long delta_units) {
  if (delta_units == 0) return;
  // unit_at_ is relative to slot_lo_, so it shifts with the window.
  slot_lo_ += delta_units;
  slot_hi_ += delta_units;
  for (auto& p : perm_) p += delta_units;
  B_[type] += delta_units * static_cast<long long>(M_);
  for (std::size_t u = 0; u < perm_.size(); ++u) {
    tiny_->replace_unit_items(u);
  }
  rotations_ += perm_.size();
}

void FlexHashAllocator::restore_buffer(std::size_t type, long long target) {
  const auto m = static_cast<long long>(M_);
  // Rotations change B by exactly +-M; when the deficit exceeds one full
  // cycle of the unit array, rotating is cyclic busywork — shift the whole
  // array once instead.
  const long long cycle = static_cast<long long>(perm_.size()) + 1;
  const long long deficit_units = (target - B_[type]) / m;
  if (deficit_units > cycle || deficit_units < -cycle) {
    bulk_shift(type, deficit_units);
  }
  while (B_[type] < target - m) rotate_front_to_end(type);
  while (B_[type] > target + m) rotate_end_to_front(type);
}

void FlexHashAllocator::external_update(Tick size, bool push_right) {
  const std::size_t t = type_of(size);
  const auto m = static_cast<long long>(M_);
  if (push_right) {
    region_start_ += size;
    B_[t] -= static_cast<long long>(size);
  } else {
    MEMREAL_CHECK(region_start_ >= size);
    region_start_ -= size;
    B_[t] += static_cast<long long>(size);
  }
  if (size >= big_thr_) {
    // Large external updates restore the invariant immediately when it
    // breaks, bringing B back to within M of 8M.
    if (B_[t] < 0 || B_[t] > 16 * m) {
      restore_buffer(t, 8 * m);
    }
    return;
  }
  // Small external updates: buffer-i rebuilds on randomized thresholds.
  auto& P = push_right ? P_right_ : P_left_;
  auto& R = push_right ? R_right_ : R_left_;
  P[t] += size;
  if (P[t] > R[t]) {
    restore_buffer(t, 8 * m);
    P[t] -= R[t];  // overflow carries to the next rebuild
    R[t] = rng_.next_tick_in(2 * M_, 4 * M_);
  }
}

void FlexHashAllocator::insert(ItemId id, Tick size) {
  tiny_->insert(id, size);
}

void FlexHashAllocator::erase(ItemId id) { tiny_->erase(id); }

Tick FlexHashAllocator::region_end() const {
  if (slot_lo_ == slot_hi_) return region_start_;
  return static_cast<Tick>(anchor_ + slot_hi_ * static_cast<long long>(M_));
}

void FlexHashAllocator::check_invariants() const {
  // Buffer accounts within range and summing to the gap before the first
  // unit.
  long long sum = 0;
  for (std::size_t t = 0; t < num_types_; ++t) {
    MEMREAL_CHECK_MSG(B_[t] >= 0 && B_[t] <= 16 * static_cast<long long>(M_),
                      "buffer account B[" << t << "] = " << B_[t]
                                          << " out of [0, 16M]");
    sum += B_[t];
  }
  MEMREAL_CHECK_MSG(
      first_unit_pos() - static_cast<long long>(region_start_) == sum,
      "buffer accounts out of sync with unit placement");
  // Permutation consistency: slots within the live window, bijective.
  MEMREAL_CHECK(perm_.size() == tiny_->unit_count());
  MEMREAL_CHECK(slot_hi_ - slot_lo_ ==
                static_cast<long long>(perm_.size()));
  MEMREAL_CHECK(unit_at_.size() == perm_.size());
  for (std::size_t u = 0; u < perm_.size(); ++u) {
    MEMREAL_CHECK(perm_[u] >= slot_lo_ && perm_[u] < slot_hi_);
    MEMREAL_CHECK(unit_at_[static_cast<std::size_t>(perm_[u] - slot_lo_)] ==
                  u);
  }
  tiny_->check_invariants();
}

}  // namespace memreal
