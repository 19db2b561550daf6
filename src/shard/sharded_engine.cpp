#include "shard/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace memreal {

namespace {

/// Shard 0 runs the configured seed verbatim (the S = 1 equivalence
/// guarantee); higher shards get independent streams derived from it.
std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) {
  if (shard == 0) return base;
  return SplitMix64(base + 0x9E3779B97F4A7C15ULL *
                               static_cast<std::uint64_t>(shard))
      .next();
}

std::size_t pool_threads(std::size_t requested, std::size_t shards) {
  std::size_t n = requested;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(n, shards);
}

}  // namespace

double ShardedRunStats::max_shard_cost() const {
  double m = 0.0;
  for (const RunStats& s : per_shard) m = std::max(m, s.ratio_cost());
  return m;
}

double ShardedRunStats::median_shard_cost() const {
  if (per_shard.empty()) return 0.0;
  std::vector<double> costs;
  costs.reserve(per_shard.size());
  for (const RunStats& s : per_shard) costs.push_back(s.ratio_cost());
  std::sort(costs.begin(), costs.end());
  const std::size_t n = costs.size();
  return n % 2 ? costs[n / 2] : 0.5 * (costs[n / 2 - 1] + costs[n / 2]);
}

double ShardedRunStats::imbalance() const {
  Tick total = 0;
  Tick max_mass = 0;
  for (const RunStats& s : per_shard) {
    total += s.update_mass;
    max_mass = std::max(max_mass, s.update_mass);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(per_shard.size());
  return static_cast<double>(max_mass) / mean;
}

double ShardedRunStats::updates_per_second() const {
  if (global.wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(global.updates) / global.wall_seconds;
}

ShardedEngine::ShardedEngine(const ShardedConfig& config)
    : config_(config),
      router_(make_router(config.router, config.shards)),
      threads_(pool_threads(config.threads, config.shards)) {
  MEMREAL_CHECK_MSG(config.shards >= 1, "need at least one shard");
  MEMREAL_CHECK_MSG(
      config.rebalance_threshold == 0.0 || config.rebalance_threshold >= 1.0,
      "rebalance_threshold must be 0 (off) or >= 1");
  MEMREAL_CHECK_MSG(config.shard_index == -1,
                    "shard_index is assigned per cell; leave it unset");
  MEMREAL_CHECK_MSG(config.eps == config.params.eps,
                    "eps " << config.eps << " disagrees with params.eps "
                           << config.params.eps);
  const Tick eps_ticks = Eps::of(config.eps, config.shard_capacity).ticks;
  MEMREAL_CHECK_MSG(eps_ticks < config.shard_capacity,
                    "eps leaves no room for items in a shard");
  shard_budget_ = config.shard_capacity - eps_ticks;

  CellConfig cell = config;
  cells_.reserve(config.shards);
  for (std::size_t s = 0; s < config.shards; ++s) {
    cell.params.seed = shard_seed(config.params.seed, s);
    cell.shard_index = static_cast<int>(s);
    cells_.push_back(make_cell(config.shard_capacity, eps_ticks, cell));
  }
  live_mass_.assign(config.shards, 0);
  pending_.resize(config.shards);
  if (config.metrics != nullptr) {
    obs::MetricLabels labels;
    labels.allocator = config.allocator;
    labels.engine = config.engine;
    labels.workload = config.workload_label;
    router_metrics_ = obs::RouterMetrics::create(*config.metrics, labels);
  }
}

std::size_t ShardedEngine::least_loaded() const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < live_mass_.size(); ++s) {
    if (live_mass_[s] < live_mass_[best]) best = s;
  }
  return best;
}

std::optional<std::size_t> ShardedEngine::find_shard(ItemId id) const {
  const std::size_t* s = placement_.find(id);
  if (s == nullptr) return std::nullopt;
  return *s;
}

std::size_t ShardedEngine::route_update(const Update& u) {
  obs::ScopedSpan route_span(obs::SpanPhase::kRoute);
  std::size_t s;
  if (u.is_insert()) {
    MEMREAL_CHECK_MSG(!placement_.contains(u.id),
                      "insert of already-live item " << u.id);
    s = router_->route(u.id, u.size);
    MEMREAL_CHECK_MSG(
        s < cells_.size(), "router '" << router_->name()
                                      << "' proposed shard " << s << " of "
                                      << cells_.size());
    if (live_mass_[s] + u.size > shard_budget_) {
      const std::size_t fallback = least_loaded();
      MEMREAL_CHECK_MSG(
          live_mass_[fallback] + u.size <= shard_budget_,
          "item " << u.id << " of size " << u.size
                  << " fits no shard (least-loaded live mass "
                  << live_mass_[fallback] << ", shard budget "
                  << shard_budget_ << ")");
      s = fallback;
      ++fallback_routes_;
      if (router_metrics_.fallback_routes != nullptr) {
        router_metrics_.fallback_routes->inc();
      }
    }
    placement_[u.id] = s;
    live_mass_[s] += u.size;
  } else {
    const std::size_t* at = placement_.find(u.id);
    MEMREAL_CHECK_MSG(at != nullptr, "delete of absent item " << u.id);
    s = *at;
    placement_.erase(u.id);
    live_mass_[s] -= u.size;
  }
  return s;
}

void ShardedEngine::route_batch(std::span<const Update> batch) {
  for (const Update& u : batch) {
    pending_[route_update(u)].push_back(u);
  }
}

void ShardedEngine::apply_batch() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  for (std::size_t s = 0; s < cells_.size(); ++s) {
    if (pending_[s].empty()) continue;
    pool_->submit([this, s] {
      cells_[s]->run(
          std::span<const Update>(pending_[s].data(), pending_[s].size()));
    });
  }
  pool_->wait();
  for (auto& p : pending_) p.clear();
}

ShardedRunStats ShardedEngine::run(const Sequence& seq) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = seq.updates.size();
  const std::size_t batch =
      config_.batch_size == 0 ? std::max<std::size_t>(1, n)
                              : config_.batch_size;
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t end = std::min(pos + batch, n);
    route_batch(std::span<const Update>(seq.updates.data() + pos, end - pos));
    apply_batch();
    if (config_.rebalance_threshold > 0.0) {
      rebalance(config_.rebalance_threshold);
    }
    ++batches_;
    if (router_metrics_.batches != nullptr) router_metrics_.batches->inc();
    pos = end;
  }
  const auto t1 = std::chrono::steady_clock::now();
  wall_seconds_ += std::chrono::duration<double>(t1 - t0).count();
  return stats();
}

void ShardedEngine::migrate(ItemId id, std::size_t to_shard) {
  MEMREAL_CHECK_MSG(to_shard < cells_.size(),
                    "migrate: shard " << to_shard << " of " << cells_.size());
  std::size_t* at = placement_.find(id);
  MEMREAL_CHECK_MSG(at != nullptr, "migrate: item " << id << " is not live");
  const std::size_t from = *at;
  if (from == to_shard) return;
  const Tick size = cells_[from]->memory().size_of(id);
  MEMREAL_CHECK_MSG(live_mass_[to_shard] + size <= shard_budget_,
                    "migrate: item " << id << " of size " << size
                                     << " does not fit shard " << to_shard);
  cells_[from]->step(Update::erase(id, size));
  cells_[to_shard]->step(Update::insert(id, size));
  *at = to_shard;
  live_mass_[from] -= size;
  live_mass_[to_shard] += size;
  ++migrations_;
  migrated_mass_ = checked_add(migrated_mass_, size, "migrated mass");
  if (router_metrics_.migrations != nullptr) {
    router_metrics_.migrations->inc();
    router_metrics_.migrated_ticks->add(size);
  }
}

std::size_t ShardedEngine::rebalance(double threshold) {
  MEMREAL_CHECK_MSG(threshold >= 1.0, "rebalance threshold must be >= 1");
  if (cells_.size() < 2) return 0;
  std::size_t moved = 0;
  for (;;) {
    Tick total = 0;
    std::size_t fullest = 0;
    for (std::size_t s = 0; s < live_mass_.size(); ++s) {
      total += live_mass_[s];
      if (live_mass_[s] > live_mass_[fullest]) fullest = s;
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(live_mass_.size());
    if (static_cast<double>(live_mass_[fullest]) <= threshold * mean) break;
    const std::size_t emptiest = least_loaded();
    // Moving more than half the gap would overshoot (and could oscillate);
    // the largest item under half the gap makes strict progress.
    const Tick gap = live_mass_[fullest] - live_mass_[emptiest];
    const Tick target = gap / 2;
    ItemId best = kNoItem;
    Tick best_size = 0;
    for (const PlacedItem& item : cells_[fullest]->memory().snapshot()) {
      if (item.size <= target && item.size > best_size) {
        best = item.id;
        best_size = item.size;
      }
    }
    if (best == kNoItem) break;  // every item overshoots: no safe move
    migrate(best, emptiest);
    ++moved;
  }
  return moved;
}

void ShardedEngine::audit() const {
  for (const auto& cell : cells_) {
    cell->audit();
  }
}

ShardedRunStats ShardedEngine::stats() const {
  ShardedRunStats out;
  out.shards = cells_.size();
  out.per_shard.reserve(cells_.size());
  for (const auto& cell : cells_) {
    out.per_shard.push_back(cell->stats());
    out.global.merge(out.per_shard.back());
  }
  // merge() sums the per-shard walls; the sharded wall is the parallel
  // route + apply time measured here.
  out.global.wall_seconds = wall_seconds_;
  out.batches = batches_;
  out.fallback_routes = fallback_routes_;
  out.migrations = migrations_;
  out.migrated_mass = migrated_mass_;
  return out;
}

}  // namespace memreal
