#include "obs/trace.h"

#include <algorithm>

#include "util/json.h"

namespace memreal::obs {

const char* phase_name(SpanPhase phase) noexcept {
  switch (phase) {
    case SpanPhase::kRoute:
      return "route";
    case SpanPhase::kQueueWait:
      return "queue-wait";
    case SpanPhase::kApply:
      return "apply";
    case SpanPhase::kValidate:
      return "validate";
    case SpanPhase::kArenaFlush:
      return "arena-flush";
  }
  return "unknown";
}

TraceSession& TraceSession::global() {
  static TraceSession session;
  return session;
}

void TraceSession::start(Clock clock, std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  clock_ = clock;
  capacity_ = std::max<std::size_t>(1, ring_capacity);
  logical_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  generation_.fetch_add(1, std::memory_order_release);
  active_.store(true, std::memory_order_relaxed);
}

std::uint64_t TraceSession::now() noexcept {
  if (clock_ == Clock::kLogical) {
    return logical_.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceSession::Ring* TraceSession::ring() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local Ring* cached = nullptr;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cached_generation != generation || cached == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<std::uint32_t>(rings_.size())));
    cached = rings_.back().get();
    cached_generation = generation;
  }
  return cached;
}

void TraceSession::record(SpanPhase phase, std::uint64_t begin,
                          std::uint64_t end, std::int32_t shard) noexcept {
  Ring* r = ring();
  TraceEvent& ev = r->buf[r->head];
  ev.ts = begin;
  ev.dur = end >= begin ? end - begin : 0;
  ev.phase = phase;
  ev.shard = shard;
  r->head = (r->head + 1) % r->buf.size();
  ++r->written;
}

std::size_t TraceSession::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& r : rings_) {
    total += static_cast<std::size_t>(
        std::min<std::uint64_t>(r->written, r->buf.size()));
  }
  return total;
}

std::size_t TraceSession::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& r : rings_) {
    if (r->written > r->buf.size()) {
      total += static_cast<std::size_t>(r->written - r->buf.size());
    }
  }
  return total;
}

void TraceSession::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

std::string TraceSession::chrome_json() const {
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(r->written, r->buf.size()));
      // Oldest-first: when wrapped, the oldest live event sits at head.
      const std::size_t start = r->written > r->buf.size() ? r->head : 0;
      for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent& ev = r->buf[(start + i) % r->buf.size()];
        Json e = Json::object();
        e.set("name", phase_name(ev.phase));
        e.set("cat", "memreal");
        e.set("ph", "X");
        if (clock_ == Clock::kWall) {
          // trace_event timestamps are microseconds; keep the sub-us part.
          e.set("ts", static_cast<double>(ev.ts) / 1e3);
          e.set("dur", static_cast<double>(ev.dur) / 1e3);
        } else {
          e.set("ts", ev.ts);
          e.set("dur", ev.dur);
        }
        e.set("pid", 1);
        e.set("tid", static_cast<std::uint64_t>(r->tid));
        Json args = Json::object();
        args.set("shard", ev.shard);
        e.set("args", std::move(args));
        events.push(std::move(e));
      }
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("clock", clock_ == Clock::kLogical ? "logical" : "wall");
  return doc.dump(0);
}

}  // namespace memreal::obs
