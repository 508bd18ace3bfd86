/// \file schedule_cache.h
/// LRU memoization of (schedule, stretch) results for the adaptive
/// controller.
///
/// The adaptive framework recomputes DLS + stretching every time a
/// threshold crossing occurs — even when the windowed branch-probability
/// estimate returns to an operating point it has already scheduled for
/// (cyclic road scenarios, scene-change oscillations). The cache keys a
/// completed (schedule, stretch stats) pair by the structural
/// fingerprints of the graph and platform, a fingerprint of the
/// scheduler/stretcher configuration, and the flattened branch
/// probability vector.
///
/// Lookup() is exact. Probabilities are *quantized only for hashing*
/// (bucket selection, round(p * 2^16)); a lookup hits only when the
/// stored probability vector matches the query bit-for-bit. A hit
/// therefore returns exactly what recomputation would have produced
/// (DLS and the stretcher are deterministic), so enabling the cache
/// never changes any result — it only skips work. Windowed estimates
/// are ratios of small integer counts over a fixed window length, so
/// recurring operating points reproduce identical doubles and do hit.
///
/// Cached Schedule objects reference the graph/analysis/platform they
/// were built from; those must outlive the cache.
///
/// All operations are thread-safe (single mutex; entries are copied out
/// under the lock). For many-tenant deployments a ShardedScheduleCache
/// partitions the key space over independent ScheduleCache shards so
/// tenants on different shards never contend on one mutex, with a
/// per-tenant Purge.

#ifndef ACTG_RUNTIME_SCHEDULE_CACHE_H
#define ACTG_RUNTIME_SCHEDULE_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ctg/condition.h"
#include "ctg/graph.h"
#include "dvfs/stretch.h"
#include "runtime/metrics.h"
#include "sched/schedule.h"

namespace actg::runtime {

class ScheduleCache;

/// Cache key. probs is the flattened outcome-probability vector over the
/// graph's forks in topological fork order; equality is exact.
///
/// The policy name is an exact-match field of its own: the config
/// fingerprint folds the policy in, but a 64-bit hash collision between
/// two configs that differ only in policy would otherwise alias their
/// entries — with the string in the key, two tenants scheduling the
/// same graph under different --policy can never serve each other's
/// schedules. The tenant id partitions the key space per tenant (0 =
/// the unpartitioned default every single-tenant caller uses); a
/// multi-tenant server that wants explicit cross-tenant sharing keys
/// every controller with tenant 0 instead.
struct ScheduleCacheKey {
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t platform_fingerprint = 0;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t tenant = 0;
  std::string policy;
  std::vector<double> probs;

  friend bool operator==(const ScheduleCacheKey&,
                         const ScheduleCacheKey&) = default;
};

/// Builds the canonical cache key for scheduling \p graph at \p probs:
/// the flattened outcome-probability vector over the graph's forks in
/// topological fork order, plus the identity fields. This is the single
/// key-construction point — the adaptive::Rescheduler, tests and tools
/// all key the same way, so an entry inserted by one is findable by the
/// others.
ScheduleCacheKey MakeCacheKey(const ctg::Ctg& graph,
                              const ctg::BranchProbabilities& probs,
                              std::uint64_t graph_fingerprint,
                              std::uint64_t platform_fingerprint,
                              std::uint64_t config_fingerprint,
                              std::uint64_t tenant, std::string policy);

/// A memoized scheduling + stretching result.
struct ScheduleCacheEntry {
  sched::Schedule schedule;
  dvfs::StretchStats stretch;
};

/// Configuration of the cache.
struct ScheduleCacheOptions {
  /// Maximum number of entries; the least recently used is evicted.
  std::size_t capacity = 128;
};

/// Pairs the cache a controller should consult with the tenant id its
/// keys carry. Passed by value (it is two words): the binding is either
/// empty (no memoization, the default) or names both halves at once, so
/// a caller can no longer wire a cache while forgetting the tenant or
/// vice versa.
struct CacheBinding {
  /// The cache to consult; nullptr disables memoization. Shared caches
  /// must outlive every controller bound to them. Multi-tenant servers
  /// typically bind a runtime::ShardedScheduleCache shard
  /// (ShardFor(tenant)) with the matching tenant.
  ScheduleCache* cache = nullptr;
  /// Tenant id folded into every key built through this binding.
  /// Bindings with different tenants never share entries (and a
  /// tenant's entries can be dropped with ScheduleCache::Purge); 0 —
  /// the default every single-tenant caller keeps — leaves the key
  /// space shared, which is the explicit cross-controller sharing mode.
  std::uint64_t tenant = 0;

  /// True when a cache is bound.
  explicit operator bool() const { return cache != nullptr; }
};

/// Thread-safe LRU table of (key -> schedule, stretch stats).
class ScheduleCache {
 public:
  /// \p metrics, when set, mirrors the hit/miss/eviction counters into
  /// a Metrics registry under "schedule_cache.{hits,misses,evictions}".
  explicit ScheduleCache(ScheduleCacheOptions options = {},
                         Metrics* metrics = nullptr);

  /// Returns a copy of the entry for \p key and marks it most recently
  /// used; nullopt (and a miss) when absent.
  std::optional<ScheduleCacheEntry> Lookup(const ScheduleCacheKey& key);

  /// Inserts (or replaces) the entry for \p key as most recently used,
  /// evicting the least recently used entry beyond capacity.
  void Insert(const ScheduleCacheKey& key, ScheduleCacheEntry entry);

  /// Drops every entry whose key carries \p tenant (session shutdown in
  /// the serve daemon). Returns the number of entries removed; purged
  /// entries do not count as evictions.
  std::size_t Purge(std::uint64_t tenant);

  std::size_t size() const;
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    ScheduleCacheKey key;
    ScheduleCacheEntry entry;
  };
  struct KeyHash {
    std::size_t operator()(const ScheduleCacheKey& key) const;
  };

  ScheduleCacheOptions options_;
  Metrics* metrics_;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recently used
  std::unordered_map<ScheduleCacheKey, std::list<Slot>::iterator, KeyHash>
      index_;
  std::atomic<std::uint64_t> hits_ = 0;
  std::atomic<std::uint64_t> misses_ = 0;
  std::atomic<std::uint64_t> evictions_ = 0;
};

/// Configuration of a sharded cache.
struct ShardedScheduleCacheOptions {
  /// Number of independent shards; tenant t lives on shard
  /// SplitMix-mixed(t) % shards, so consecutive tenant ids spread
  /// evenly. Must be > 0.
  std::size_t shards = 8;
  /// Per-shard LRU capacity (see ScheduleCacheOptions).
  std::size_t shard_capacity = 64;
};

/// Tenant-partitioned schedule cache: a fixed array of ScheduleCache
/// shards, routed by the key's tenant id. Thousands of controllers in
/// one process contend only within their own shard's mutex, and a
/// tenant's entries can be purged on session shutdown without touching
/// the other shards' LRU order. Thread-safe like the shards it owns.
class ShardedScheduleCache {
 public:
  /// \p metrics mirrors each shard's counters under
  /// "schedule_cache.{hits,misses,evictions}" (shared across shards,
  /// like a single cache would report).
  explicit ShardedScheduleCache(ShardedScheduleCacheOptions options = {},
                                Metrics* metrics = nullptr);

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard hosting \p tenant. The returned reference is valid for
  /// the cache's lifetime; bind it to a controller as
  /// runtime::CacheBinding{&ShardFor(tenant), tenant}.
  ScheduleCache& ShardFor(std::uint64_t tenant);

  /// Shard index hosting \p tenant (stable for the cache's lifetime).
  std::size_t ShardIndex(std::uint64_t tenant) const;

  /// Drops every entry of \p tenant from its shard; returns the count.
  std::size_t Purge(std::uint64_t tenant);

  /// Aggregates over all shards.
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  std::vector<std::unique_ptr<ScheduleCache>> shards_;
};

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_SCHEDULE_CACHE_H
