// Tests for the online concurrent serving layer (src/serve): MPSC queue
// semantics and caller-runs claims, deterministic-mode bit-identity with
// the batch ShardedEngine for every registry allocator on both engine
// flavors, concurrent multi-client serving, requests queued behind an
// inline apply, stop() racing a submitting client, snapshot-consistent
// read-side queries (including arena payload reads), and rejection paths.
// `ctest -L serve` runs this suite alone; CI additionally runs it under
// ThreadSanitizer.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "alloc/registry.h"
#include "arena/arena_store.h"
#include "serve/mpsc_queue.h"
#include "serve/serving_engine.h"
#include "testing.h"
#include "util/check.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr double kEps = 1.0 / 64;
/// Wide cells so every registry allocator's size classes resolve (GEO
/// needs more resolution than 2^30 at this eps — see test_shard.cpp).
constexpr Tick kWideCap = Tick{1} << 40;

ShardedConfig serve_config(const std::string& allocator,
                           const std::string& engine, std::size_t shards,
                           Tick shard_capacity = kWideCap,
                           double eps = kEps, double delta = 0.0) {
  ShardedConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.params.eps = eps;
  c.params.delta = delta;
  c.params.seed = 1;
  c.shards = shards;
  c.shard_capacity = shard_capacity;
  c.eps = eps;
  return c;
}

using testing::expect_same_layout;

// -- MPSC queue -------------------------------------------------------------

TEST(MpscQueue, SingleProducerFifo) {
  MpscQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  std::vector<int> got;
  ASSERT_TRUE(q.pop_all(got));
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

TEST(MpscQueue, CloseHandsOutBacklogThenSignalsTermination) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // dropped, not enqueued
  std::vector<int> got;
  ASSERT_TRUE(q.pop_all(got));
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.pop_all(got));  // closed and empty
  EXPECT_TRUE(got.empty());
}

TEST(MpscQueue, MultiProducerDeliversEverythingInPerProducerOrder) {
  MpscQueue<std::pair<int, int>> q;  // (producer, sequence)
  constexpr int kProducers = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kEach; ++i) q.push({p, i});
    });
  }
  std::vector<std::pair<int, int>> all;
  std::vector<std::pair<int, int>> batch;
  while (all.size() < kProducers * kEach && q.pop_all(batch)) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  for (std::thread& t : producers) t.join();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers * kEach));
  std::vector<int> next(kProducers, 0);
  for (const auto& [p, i] : all) {
    EXPECT_EQ(i, next[p]) << "producer " << p << " out of order";
    ++next[p];
  }
}

// -- Caller-runs claims -----------------------------------------------------

TEST(MpscQueue, ClaimCountsAsOneAcceptedItemAtDepthOne) {
  MpscQueue<int> q;
  std::size_t depth = 0;
  ASSERT_TRUE(q.try_claim(&depth));
  EXPECT_EQ(depth, 1u);
  EXPECT_EQ(q.pushed(), 1u);
  EXPECT_EQ(q.high_water(), 1u);
  EXPECT_FALSE(q.try_claim());  // one claim at a time
  q.release_claim();
  EXPECT_TRUE(q.try_claim());
  q.release_claim();
  EXPECT_EQ(q.pushed(), 2u);
}

TEST(MpscQueue, ClaimFailsWithBacklogBatchOutOrAfterClose) {
  MpscQueue<int> q;
  // ASSERTs: a wrongly granted claim would make the next pop_all wait
  // forever.
  q.push(1);
  ASSERT_FALSE(q.try_claim());  // backlog
  std::vector<int> got;
  ASSERT_TRUE(q.pop_all(got));
  ASSERT_FALSE(q.try_claim());  // batch out until the next pop_all
  q.close();
  EXPECT_FALSE(q.pop_all(got));  // marks the batch done; closed and empty
  EXPECT_FALSE(q.try_claim());   // closed
  EXPECT_EQ(q.pushed(), 1u);
}

TEST(MpscQueue, ClaimSucceedsOnceTheConsumerAsksForMore) {
  MpscQueue<int> q;
  q.push(1);
  std::vector<int> first;
  ASSERT_TRUE(q.pop_all(first));
  std::atomic<bool> popped{false};
  std::vector<int> second;
  std::thread consumer([&] {
    EXPECT_TRUE(q.pop_all(second));
    popped.store(true);
  });
  // The consumer's next pop_all marks the first batch done.
  while (!q.try_claim()) std::this_thread::yield();
  q.push(2);  // queues behind the claim
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load()) << "pop_all returned while a claim was held";
  q.release_claim();
  consumer.join();
  EXPECT_EQ(second, (std::vector<int>{2}));
}

TEST(MpscQueue, PopAllWaitsWhileAClaimIsHeldEvenWhenClosed) {
  MpscQueue<int> q;
  ASSERT_TRUE(q.try_claim());
  q.close();
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<int> got;
    EXPECT_FALSE(q.pop_all(got));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "consumer exited under a held claim";
  q.release_claim();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

// -- Deterministic mode: bit-identity with the batch path -------------------

class ServeEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeEquivalence, DeterministicModeMatchesBatchShardedEngine) {
  const std::string allocator = GetParam();
  // Sizes admissible for one shard (regime_sequence scales to its
  // capacity argument); the shards share the resulting live mass.
  const testing::RegimeCase rc = testing::regime_case(allocator);
  const Sequence seq = testing::regime_sequence(rc, kWideCap, 400, 21);
  ASSERT_GE(seq.size(), 400u);

  for (const std::string& engine : engine_names()) {
    SCOPED_TRACE("engine " + engine);
    const ShardedConfig config =
        serve_config(allocator, engine, 4, kWideCap, rc.eps, rc.delta);

    ShardedEngine batch(config);
    const ShardedRunStats want = batch.run(seq);
    batch.audit();

    ServingEngine serve(config);
    const std::vector<double> costs =
        serve_deterministic(serve, seq, /*lanes=*/3, /*seed=*/99);
    const ShardedRunStats got = serve.stats();
    serve.audit();
    serve.stop();

    EXPECT_EQ(costs.size(), seq.updates.size());
    EXPECT_EQ(got.global.updates, want.global.updates);
    EXPECT_EQ(got.global.moved_mass, want.global.moved_mass);
    EXPECT_EQ(got.global.update_mass, want.global.update_mass);
    EXPECT_EQ(got.fallback_routes, want.fallback_routes);
    ASSERT_EQ(got.per_shard.size(), want.per_shard.size());
    for (std::size_t s = 0; s < got.per_shard.size(); ++s) {
      const RunStats& g = got.per_shard[s];
      const RunStats& w = want.per_shard[s];
      // Identical per-shard update order means the whole cost stream is
      // bit-identical, so every derived double compares with ==.
      EXPECT_EQ(g.updates, w.updates);
      EXPECT_EQ(g.moved_mass, w.moved_mass);
      EXPECT_EQ(g.update_mass, w.update_mass);
      EXPECT_EQ(g.cost.count(), w.cost.count());
      EXPECT_EQ(g.cost.mean(), w.cost.mean());
      EXPECT_EQ(g.cost.variance(), w.cost.variance());
      EXPECT_EQ(g.cost.min(), w.cost.min());
      EXPECT_EQ(g.cost.max(), w.cost.max());
      EXPECT_EQ(g.cost.sum(), w.cost.sum());
      expect_same_layout(batch.memory(s), serve.sharded().memory(s));
    }
    // The per-request futures recompose the same total cost (summation
    // order differs from the per-shard accumulators, so compare to
    // rounding, not bitwise).
    double total = 0.0;
    for (const double c : costs) total += c;
    EXPECT_NEAR(total, got.global.cost.sum(),
                1e-9 * (1.0 + std::abs(total)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryAllocators, ServeEquivalence,
                         ::testing::ValuesIn(allocator_names()));

// -- Concurrent serving -----------------------------------------------------

/// Per-client well-formed streams with globally disjoint ids: client c
/// owns ids with id % clients == c (after remapping).
std::vector<Sequence> client_streams(std::size_t clients, std::size_t shards,
                                     std::size_t updates,
                                     std::uint64_t seed) {
  std::vector<Sequence> out;
  out.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    ChurnConfig cc;
    cc.capacity = kWideCap * shards / clients;
    cc.eps = kEps;
    cc.min_size = static_cast<Tick>(kEps * static_cast<double>(kWideCap));
    cc.max_size =
        static_cast<Tick>(2 * kEps * static_cast<double>(kWideCap)) - 1;
    cc.target_load = 0.5;
    cc.churn_updates = updates;
    cc.seed = seed + c;
    Sequence s = make_churn(cc);
    for (Update& u : s.updates) {
      u.id = u.id * clients + c;  // disjoint id spaces across clients
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ServingEngine, ConcurrentClientsCompleteAndAudit) {
  constexpr std::size_t kClients = 4;
  ServingEngine serve(serve_config("simple", "validated", 4));
  const std::vector<Sequence> streams = client_streams(kClients, 4, 300, 5);

  std::size_t expected = 0;
  for (const Sequence& s : streams) expected += s.updates.size();

  std::atomic<std::size_t> served{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&serve, &served, &streams, c] {
      for (const Update& u : streams[c].updates) {
        const double cost = serve.submit(u).get();  // closed loop
        EXPECT_GE(cost, 0.0);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  serve.audit();
  const ShardedRunStats stats = serve.stats();
  EXPECT_EQ(served.load(), expected);
  EXPECT_EQ(stats.global.updates, expected);
  std::size_t per_shard = 0;
  for (const RunStats& s : stats.per_shard) per_shard += s.updates;
  EXPECT_EQ(per_shard, expected);
}

TEST(ServingEngine, ReadSideQueriesRaceFreeUnderLoad) {
  ServingEngine serve(serve_config("simple", "validated", 2));
  const std::vector<Sequence> streams = client_streams(1, 2, 400, 9);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Hammer every read-side query while the workers mutate layouts;
    // under TSan this pins down the shared-lock discipline.
    Tick offset = 0;
    ItemId id = 1;
    while (!done.load(std::memory_order_relaxed)) {
      (void)serve.item_at(offset % 2, offset);
      (void)serve.neighbors_of(id);
      (void)serve.contains(id);
      offset += 4097;
      id = (id % 512) + 1;
    }
  });
  for (const Update& u : streams[0].updates) {
    (void)serve.submit(u);  // open loop: keep the queues busy
  }
  serve.drain();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  serve.audit();
}

// -- Snapshot queries and arena payload reads -------------------------------

TEST(ServingEngine, QueriesObserveAppliedLayout) {
  ServingEngine serve(serve_config("simple", "validated", 2));
  const Tick size = static_cast<Tick>(kEps * static_cast<double>(kWideCap));
  EXPECT_FALSE(serve.contains(42));
  EXPECT_EQ(serve.neighbors_of(42), std::nullopt);
  serve.submit(Update::insert(42, size)).get();
  EXPECT_TRUE(serve.contains(42));
  const std::size_t shard = serve.sharded().find_shard(42).value();
  const auto at = serve.item_at(shard, 0);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->id, 42u);
  const auto nb = serve.neighbors_of(42);
  ASSERT_TRUE(nb.has_value());
  EXPECT_FALSE(nb->prev.has_value());  // only item on the shard
  EXPECT_FALSE(nb->next.has_value());
  serve.submit(Update::erase(42, size)).get();
  EXPECT_FALSE(serve.contains(42));
}

TEST(ServingEngine, ArenaPayloadReadsMatchFillPattern) {
  constexpr Tick kArenaCap = Tick{1} << 20;
  ShardedConfig config =
      serve_config("folklore-compact", "validated", 2, kArenaCap);
  config.arena = true;
  config.bytes_per_tick = 8;

  const AllocatorInfo info = allocator_info("folklore-compact");
  ChurnConfig cc;
  cc.capacity = kArenaCap * 2;
  cc.eps = kEps;
  cc.min_size = info.sizes.min_size(kEps, kArenaCap);
  cc.max_size = info.sizes.max_size(kEps, kArenaCap) - 1;
  cc.target_load = 0.6;
  cc.churn_updates = 120;
  cc.seed = 3;
  const Sequence seq = make_churn(cc);

  ServingEngine serve(config);
  (void)serve_deterministic(serve, seq, 2, 17);
  serve.audit();

  std::unordered_set<ItemId> live;
  for (const Update& u : seq.updates) {
    if (u.is_insert()) {
      live.insert(u.id);
    } else {
      live.erase(u.id);
    }
  }
  ASSERT_FALSE(live.empty());
  for (const ItemId id : live) {
    const std::vector<unsigned char> bytes = serve.payload_of(id);
    ASSERT_FALSE(bytes.empty()) << "item " << id;
    for (std::size_t j = 0; j < bytes.size(); ++j) {
      ASSERT_EQ(bytes[j], ArenaStore::pattern_byte(id, j))
          << "item " << id << " byte " << j;
    }
  }
  // A tick-space engine reports no payloads.
  ServingEngine plain(serve_config("simple", "validated", 2));
  const Tick size = static_cast<Tick>(kEps * static_cast<double>(kWideCap));
  plain.submit(Update::insert(1, size)).get();
  EXPECT_TRUE(plain.payload_of(1).empty());
}

// -- Caller-runs serving ----------------------------------------------------

/// A latch the gated allocator's inserts of kGatedId block on, and the
/// flag that tells the test an apply is parked there.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool is_open = false;
  bool entered = false;

  void pass() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return is_open; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu);
    is_open = true;
    cv.notify_all();
  }
};

constexpr ItemId kGatedId = 1;

/// First-fit, non-moving; an insert of kGatedId blocks on the gate.
class GatedAllocator : public Allocator {
 public:
  GatedAllocator(LayoutStore& mem, Gate& gate) : mem_(&mem), gate_(&gate) {}

  void insert(ItemId id, Tick size) override {
    if (id == kGatedId) gate_->pass();
    for (const auto& [offset, len] : mem_->gaps()) {
      if (len >= size) {
        mem_->place(id, offset, size);
        return;
      }
    }
    mem_->place(id, mem_->span_end(), size);
  }
  void erase(ItemId id) override { mem_->remove(id); }
  [[nodiscard]] std::string_view name() const override {
    return "test-gated";
  }
  [[nodiscard]] bool resizable() const override { return false; }

 private:
  LayoutStore* mem_;
  Gate* gate_;
};

/// A single-shard config over the gated allocator; the gate starts
/// closed, so the first insert of kGatedId parks inside its inline apply.
class GatedServe : public ::testing::Test {
 protected:
  static AllocatorInfo info() {
    AllocatorInfo i;
    i.name = "test-gated";
    i.sizes = SizeProfile{1.0, 1.0, 2.0, 1.0, false};  // [eps, 2eps)
    i.budget = CostBudget{4.0, 1.0};
    i.default_eps = kEps;
    return i;
  }

  Gate gate_;
  testing::ScopedRegistration reg_{
      info(), [this](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<GatedAllocator>(mem, gate_);
      }};
  const ShardedConfig config_ = serve_config("test-gated", "validated", 1);
  const Tick size_ = static_cast<Tick>(kEps * static_cast<double>(kWideCap));
};

TEST_F(GatedServe, RequestsQueueBehindAnInlineApplyAndRunInRouteOrder) {
  Sequence seq;
  seq.updates = {Update::insert(kGatedId, size_), Update::insert(2, size_),
                 Update::insert(3, size_)};
  ServingEngine serve(config_);
  std::future<double> a;
  std::thread client_a([&] { a = serve.submit(seq.updates[0]); });
  gate_.wait_entered();  // A holds the shard, applying inline
  std::future<double> b = serve.submit(seq.updates[1]);
  std::future<double> c = serve.submit(seq.updates[2]);
  // A claim counts at depth 1; two requests queued behind it reach 2.
  EXPECT_EQ(serve.queue_high_water(0), 2u);
  EXPECT_EQ(b.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  gate_.open();
  client_a.join();
  const std::vector<double> costs = {a.get(), b.get(), c.get()};
  const ShardedRunStats got = serve.stats();
  serve.audit();
  serve.stop();

  ShardedEngine batch(config_);
  const ShardedRunStats want = batch.run(seq);
  EXPECT_EQ(got.global.updates, want.global.updates);
  EXPECT_EQ(got.global.moved_mass, want.global.moved_mass);
  EXPECT_EQ(got.global.cost.sum(), want.global.cost.sum());
  EXPECT_EQ(got.global.cost.max(), want.global.cost.max());
  EXPECT_EQ(costs[0] + costs[1] + costs[2], want.global.cost.sum());
  // First-fit layouts record the apply order: A, then B, then C.
  expect_same_layout(batch.memory(0), serve.sharded().memory(0));
}

TEST_F(GatedServe, StopWaitsForAnInlineApply) {
  ServingEngine serve(config_);
  std::future<double> a;
  std::thread client(
      [&] { a = serve.submit(Update::insert(kGatedId, size_)); });
  gate_.wait_entered();
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    serve.stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load()) << "stop() returned during an inline apply";
  gate_.open();
  stopper.join();
  client.join();
  EXPECT_GE(a.get(), 0.0);
  EXPECT_EQ(serve.sharded().stats().global.updates, 1u);
  EXPECT_THROW((void)serve.submit(Update::insert(2, size_)),
               InvariantViolation);  // submit after stop
}

TEST(ServingEngine, StopDrainsInlineAppliesOnClientThreads) {
  ServingEngine serve(serve_config("simple", "release", 2));
  const Sequence stream = client_streams(1, 2, 20000, 11)[0];
  std::vector<std::future<double>> accepted;
  accepted.reserve(stream.updates.size());
  std::atomic<std::size_t> submitted{0};
  std::thread client([&] {
    for (const Update& u : stream.updates) {
      try {
        accepted.push_back(serve.submit(u));
      } catch (const InvariantViolation&) {
        return;  // submit after stop()
      }
      submitted.fetch_add(1);
    }
  });
  while (submitted.load() < 200) std::this_thread::yield();
  serve.stop();
  // Inspect the cells without drain(): stop() itself must have waited
  // for the client thread's in-progress inline apply.
  const std::size_t applied = serve.sharded().stats().global.updates;
  serve.sharded().audit();
  client.join();
  EXPECT_EQ(applied, accepted.size());
  for (std::future<double>& f : accepted) EXPECT_GE(f.get(), 0.0);
  serve.audit();
}

// -- Rejection paths --------------------------------------------------------

TEST(ServingEngine, RoutingViolationsThrowAtSubmit) {
  ServingEngine serve(serve_config("simple", "validated", 2));
  const Tick size = static_cast<Tick>(kEps * static_cast<double>(kWideCap));
  serve.submit(Update::insert(1, size)).get();
  EXPECT_THROW((void)serve.submit(Update::insert(1, size)),
               InvariantViolation);  // duplicate insert
  EXPECT_THROW((void)serve.submit(Update::erase(99, size)),
               InvariantViolation);  // delete of absent item
  const ShardedRunStats stats = serve.stats();
  EXPECT_EQ(stats.global.updates, 1u);  // rejected submits never enqueued
  serve.stop();
  EXPECT_THROW((void)serve.submit(Update::insert(2, size)),
               InvariantViolation);  // submit after stop
}

TEST(ServingEngine, CellFailuresArriveThroughTheFuture) {
  ServingEngine serve(serve_config("simple", "validated", 2));
  // SIMPLE only serves sizes in [eps, 2 eps) of capacity; a 1-tick item
  // routes fine but the cell's allocator rejects it at apply time, so
  // the violation must surface on the future, not at submit.
  std::future<double> fut = serve.submit(Update::insert(7, 1));
  EXPECT_THROW((void)fut.get(), InvariantViolation);
}

TEST(ServingEngine, StopIsIdempotentAndDrainOnIdleReturns) {
  ServingEngine serve(serve_config("simple", "validated", 2));
  serve.drain();  // nothing in flight
  serve.stop();
  serve.stop();
}

/// Threads of this process right now: one /proc/self/task entry each.
std::size_t live_threads() {
  using std::filesystem::directory_iterator;
  return static_cast<std::size_t>(std::distance(
      directory_iterator("/proc/self/task"), directory_iterator{}));
}

TEST(ServingEngine, EachShardAddsExactlyOneThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  // The first thread a process creates can also start a runtime helper
  // thread (ThreadSanitizer's); a warm-up engine keeps it out of the
  // measured delta.
  ServingEngine warm_up(serve_config("simple", "release", 1));
  constexpr std::size_t kShards = 4;
  ShardedConfig config = serve_config("simple", "release", kShards);
  config.threads = 2;
  const std::size_t before = live_threads();
  ServingEngine serve(config);
  // One worker per shard; the batch engine's pool is never started, yet
  // still reports its configured size.
  EXPECT_EQ(live_threads() - before, kShards);
  EXPECT_EQ(serve.sharded().thread_count(), 2u);
  serve.stop();
  warm_up.stop();
}

}  // namespace
}  // namespace memreal
