/// \file schedule_cache.h
/// Frequency-aware memoization of (schedule, stretch) results for the
/// adaptive controller.
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
/// stored probability vector matches the query bit-for-bit, and a hit
/// returns the entry inserted for that key. Windowed estimates are
/// ratios of small integer counts over a fixed window length, so
/// recurring operating points reproduce identical doubles and do hit.
///
/// What a hit is worth depends on the reschedule mode (the config
/// fingerprint separates the modes, so entries never cross them). In
/// full mode an entry is a from-scratch DLS + stretch, which is
/// deterministic, so a hit returns exactly what a recompute would and
/// enabling the cache — at any capacity — never changes a result. In
/// incremental mode an entry is whatever a warm start produced for
/// those probabilities from its controller's basis at the time,
/// possibly another controller's sharing the key space; a hit returns
/// that oracle-valid schedule, which a recompute need not reproduce. So
/// in incremental mode the capacity and the eviction policy (which
/// decide what is still cached) can move schedules and energies.
///
/// Eviction keeps recurring operating points and lets one-off estimates
/// go. Each resident entry counts its uses (the insert and every hit);
/// beyond capacity the entry with the fewest uses goes, the least
/// recently used among equals. An evicted key leaves a fixed-size record
/// (exact-key hash, uses) in a FIFO history of at most capacity records,
/// so a key that returns resumes its count instead of starting over.
/// Counts never decay: a hot set that stops recurring keeps its slots
/// until keys with more uses displace it. Each operation costs
/// O(log capacity); the history only ever picks the victim, so a history
/// hash collision can change what is evicted, never a result.
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
#include <compare>
#include <cstdint>
#include <list>
#include <map>
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
  /// Maximum number of resident entries. Beyond it the entry with the
  /// fewest uses is evicted (the least recently used among equals), and
  /// the cache remembers up to this many evicted keys' use counts.
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

/// Thread-safe frequency-aware table of (key -> schedule, stretch
/// stats); see the file comment for the eviction policy.
class ScheduleCache {
 public:
  /// \p metrics, when set, mirrors the hit/miss/eviction counters into
  /// a Metrics registry under "schedule_cache.{hits,misses,evictions}".
  /// Allocates nothing until the first insert.
  explicit ScheduleCache(ScheduleCacheOptions options = {},
                         Metrics* metrics = nullptr);

  /// Returns a copy of the entry for \p key and counts a use of it;
  /// nullopt (and a miss) when absent.
  std::optional<ScheduleCacheEntry> Lookup(const ScheduleCacheKey& key);

  /// Inserts (or replaces) the entry for \p key and counts a use of it.
  /// A new key starts at one use, or one more than its history record
  /// holds; beyond capacity the resident with the fewest uses (least
  /// recently used among equals) is evicted, never \p key itself.
  void Insert(const ScheduleCacheKey& key, ScheduleCacheEntry entry);

  /// Drops every entry whose key carries \p tenant (session shutdown in
  /// the serve daemon). Returns the number of entries removed; purged
  /// entries do not count as evictions and leave no history record.
  std::size_t Purge(std::uint64_t tenant);

  std::size_t size() const;
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  /// Eviction order: fewer uses first, then the older last use. Every
  /// use takes a new tick of the cache's clock, so ranks never tie.
  struct Rank {
    std::uint64_t uses = 0;
    std::uint64_t last_use = 0;
    friend auto operator<=>(const Rank&, const Rank&) = default;
  };
  struct Slot {
    ScheduleCacheEntry entry;
    std::uint64_t exact_hash = 0;
    Rank rank;
  };
  /// What an evicted key leaves behind: its use count, no result.
  struct Evicted {
    std::uint64_t exact_hash = 0;
    std::uint64_t uses = 0;
  };
  struct KeyHash {
    std::size_t operator()(const ScheduleCacheKey& key) const;
  };
  using SlotMap = std::unordered_map<ScheduleCacheKey, Slot, KeyHash>;
  using Resident = SlotMap::value_type;

  /// Counts a use: one more use, a new tick, a new place in order_.
  void Use(Resident& resident);
  /// Evicts the lowest-ranked resident into the history.
  void EvictOne();

  ScheduleCacheOptions options_;
  Metrics* metrics_;
  mutable std::mutex mu_;
  SlotMap slots_;
  std::map<Rank, Resident*> order_;  // begin() = next victim
  std::list<Evicted> history_;       // front = oldest record
  std::unordered_map<std::uint64_t, std::list<Evicted>::iterator>
      history_index_;                // exact_hash -> record
  std::uint64_t clock_ = 0;
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
  /// Per-shard capacity (see ScheduleCacheOptions).
  std::size_t shard_capacity = 64;
};

/// Tenant-partitioned schedule cache: a fixed array of ScheduleCache
/// shards, routed by the key's tenant id. Thousands of controllers in
/// one process contend only within their own shard's mutex, and a
/// tenant's entries can be purged on session shutdown without touching
/// the other shards' eviction order. Thread-safe like the shards it owns.
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
