// Tick <-> byte mapping for the arena layer.
//
// The paper's model lives in abstract ticks; a real allocator speaks
// bytes, alignment, and minimum-allocation granules.  ByteSpace is the
// bridge: one tick corresponds to `bytes_per_tick` bytes, which is also
// the arena's alignment and minimum allocation size (the tt-metal
// convention, where min_allocation_size == alignment == the granule the
// address space is quantized to).
//
// The rounding contract every byte-mode consumer relies on:
//
//   ticks_for_bytes(b) = max(1, ceil(b / bytes_per_tick))
//
// so a payload of b bytes occupies t ticks with
//
//   (t - 1) * bytes_per_tick < b <= t * bytes_per_tick      (b > 0)
//
// That inequality is the "rounding bound" the T-ARENA claim checks: over a
// run with M moves and tick moved-mass L, the measured byte traffic obeys
//
//   L * bpt - M * (bpt - 1)  <=  moved_bytes  <=  L * bpt.
#pragma once

#include <cstdint>

#include "util/check.h"
#include "util/types.h"

namespace memreal {

class ByteSpace {
 public:
  ByteSpace() = default;
  explicit ByteSpace(Tick bytes_per_tick) : bytes_per_tick_(bytes_per_tick) {
    MEMREAL_CHECK_MSG(bytes_per_tick_ > 0,
                      "ByteSpace requires bytes_per_tick > 0");
  }

  [[nodiscard]] Tick bytes_per_tick() const { return bytes_per_tick_; }

  /// Byte address of a tick offset.
  [[nodiscard]] std::uint64_t byte_of(Tick tick) const {
    return tick * bytes_per_tick_;
  }

  /// Ticks needed to hold `bytes` (min-allocation rounding: never zero).
  [[nodiscard]] Tick ticks_for_bytes(std::uint64_t bytes) const {
    if (bytes == 0) return 1;
    return (bytes + bytes_per_tick_ - 1) / bytes_per_tick_;
  }

 private:
  Tick bytes_per_tick_ = 8;
};

}  // namespace memreal
