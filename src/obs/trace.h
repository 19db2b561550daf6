// Lifecycle tracing: fixed-capacity per-thread rings of spans covering
// the update pipeline (route -> queue-wait -> apply -> validate ->
// arena-flush), exported as Chrome trace_event JSON (open the file in
// Perfetto / chrome://tracing).
//
// Determinism discipline: recording never touches engine state, and in
// deterministic/verify modes the session runs on a logical clock (a
// global atomic tick counter) instead of wall time, so serve_deterministic
// stays bit-identical to the batch engine with tracing on.  When the
// session is inactive, ScopedSpan is two relaxed loads and no allocation.
//
// Threading: each ring is written lock-free by its owning thread only.
// Export (chrome_json / event_count) must run after writers quiesce —
// for the serving layer that means after ServingEngine::drain() returns
// or the engine is destroyed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace memreal::obs {

enum class SpanPhase : std::uint8_t {
  kRoute,
  kQueueWait,
  kApply,
  kValidate,
  kArenaFlush,
};

const char* phase_name(SpanPhase phase) noexcept;

struct TraceEvent {
  std::uint64_t ts = 0;   // nanoseconds (wall) or logical ticks
  std::uint64_t dur = 0;  // same unit as ts
  SpanPhase phase = SpanPhase::kApply;
  std::int32_t shard = -1;
};

class TraceSession {
 public:
  enum class Clock { kWall, kLogical };

  static TraceSession& global();

  // Arms the session: clears previous rings, resets the clock epoch.
  // Must not run concurrently with recording threads.
  void start(Clock clock, std::size_t ring_capacity = kDefaultRingCapacity);
  // Disarms recording; captured events stay exportable until the next
  // start() or clear().
  void stop() noexcept { active_.store(false, std::memory_order_relaxed); }

  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }
  Clock clock() const noexcept { return clock_; }

  // Current timestamp: wall nanoseconds since start(), or the next
  // logical tick (each call advances the global tick counter).
  std::uint64_t now() noexcept;

  // Appends a completed span to the calling thread's ring (oldest event
  // is overwritten when the ring is full).
  void record(SpanPhase phase, std::uint64_t begin, std::uint64_t end,
              std::int32_t shard) noexcept;

  // Chrome trace_event JSON ("X" complete events): wall spans as
  // fractional microseconds, logical spans as integer ticks.  Call only
  // after writers quiesce.
  std::string chrome_json() const;
  std::size_t event_count() const;
  std::size_t dropped() const;
  void clear();

  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity, std::uint32_t tid)
        : buf(capacity), tid(tid) {}
    std::vector<TraceEvent> buf;
    std::size_t head = 0;        // next write slot
    std::uint64_t written = 0;   // lifetime writes (>= buf.size() => wrapped)
    std::uint32_t tid;
  };

  Ring* ring();

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> logical_{0};
  Clock clock_ = Clock::kWall;
  std::size_t capacity_ = kDefaultRingCapacity;
  std::chrono::steady_clock::time_point epoch_{};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

// RAII span: stamps begin on construction, records on destruction.  A
// no-op (two relaxed loads) when the session is inactive.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanPhase phase, std::int32_t shard = -1) noexcept
      : phase_(phase), shard_(shard) {
    TraceSession& session = TraceSession::global();
    if (session.active()) {
      armed_ = true;
      begin_ = session.now();
    }
  }
  ~ScopedSpan() {
    if (armed_) {
      TraceSession& session = TraceSession::global();
      session.record(phase_, begin_, session.now(), shard_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanPhase phase_;
  std::int32_t shard_;
  bool armed_ = false;
  std::uint64_t begin_ = 0;
};

}  // namespace memreal::obs
