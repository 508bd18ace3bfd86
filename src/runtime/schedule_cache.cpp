#include "runtime/schedule_cache.h"

#include <cmath>

#include "runtime/fingerprint.h"
#include "util/error.h"

namespace actg::runtime {

namespace {

/// Hash resolution of the probability vector: probabilities are bucketed
/// as round(p * kHashQuantization) when hashing. The exact-match check
/// on the stored key keeps results unchanged at any resolution.
constexpr double kHashQuantization = 1u << 16;

}  // namespace

ScheduleCacheKey MakeCacheKey(const ctg::Ctg& graph,
                              const ctg::BranchProbabilities& probs,
                              std::uint64_t graph_fingerprint,
                              std::uint64_t platform_fingerprint,
                              std::uint64_t config_fingerprint,
                              std::uint64_t tenant, std::string policy) {
  ScheduleCacheKey key;
  key.graph_fingerprint = graph_fingerprint;
  key.platform_fingerprint = platform_fingerprint;
  key.config_fingerprint = config_fingerprint;
  key.tenant = tenant;
  key.policy = std::move(policy);
  for (TaskId fork : graph.ForkIds()) {
    for (int o = 0; o < graph.OutcomeCount(fork); ++o) {
      key.probs.push_back(probs.Outcome(fork, o));
    }
  }
  return key;
}

std::size_t ScheduleCache::KeyHash::operator()(
    const ScheduleCacheKey& key) const {
  std::uint64_t hash = key.graph_fingerprint;
  hash = HashCombine(hash, key.platform_fingerprint);
  hash = HashCombine(hash, key.config_fingerprint);
  hash = HashCombine(hash, key.tenant);
  for (const char c : key.policy) {
    hash = HashCombine(hash, static_cast<std::uint64_t>(c));
  }
  for (double p : key.probs) {
    // Bucket by quantized probability; exact equality is checked by
    // operator== on the stored key, so collisions only cost a probe.
    hash = HashCombine(hash, static_cast<std::uint64_t>(
                                 std::llround(p * kHashQuantization)));
  }
  return static_cast<std::size_t>(hash);
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics), index_(/*bucket_count=*/16) {}

std::optional<ScheduleCacheEntry> ScheduleCache::Lookup(
    const ScheduleCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    if (metrics_) metrics_->Increment("schedule_cache.misses");
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (metrics_) metrics_->Increment("schedule_cache.hits");
  return it->second->entry;
}

void ScheduleCache::Insert(const ScheduleCacheKey& key,
                           ScheduleCacheEntry entry) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Slot{key, std::move(entry)});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > options_.capacity) {
    const auto victim = std::prev(lru_.end());
    index_.erase(victim->key);
    lru_.pop_back();
    ++evictions_;
    if (metrics_) metrics_->Increment("schedule_cache.evictions");
  }
}

std::size_t ScheduleCache::Purge(std::uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.tenant == tenant) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

namespace {

/// SplitMix64 finalizer: spreads consecutive tenant ids over the shard
/// array instead of mapping id % shards (which would pile the common
/// "tenants numbered 0..n" case onto a modulo pattern).
std::uint64_t MixTenant(std::uint64_t t) {
  t += 0x9E3779B97F4A7C15ULL;
  t = (t ^ (t >> 30)) * 0xBF58476D1CE4E5B9ULL;
  t = (t ^ (t >> 27)) * 0x94D049BB133111EBULL;
  return t ^ (t >> 31);
}

}  // namespace

ShardedScheduleCache::ShardedScheduleCache(
    ShardedScheduleCacheOptions options, Metrics* metrics) {
  ACTG_CHECK(options.shards > 0,
             "ShardedScheduleCache: shards must be > 0");
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<ScheduleCache>(
        ScheduleCacheOptions{.capacity = options.shard_capacity},
        metrics));
  }
}

std::size_t ShardedScheduleCache::ShardIndex(std::uint64_t tenant) const {
  return static_cast<std::size_t>(MixTenant(tenant) % shards_.size());
}

ScheduleCache& ShardedScheduleCache::ShardFor(std::uint64_t tenant) {
  return *shards_[ShardIndex(tenant)];
}

std::size_t ShardedScheduleCache::Purge(std::uint64_t tenant) {
  return ShardFor(tenant).Purge(tenant);
}

std::size_t ShardedScheduleCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::uint64_t ShardedScheduleCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->hits();
  return total;
}

std::uint64_t ShardedScheduleCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->misses();
  return total;
}

std::uint64_t ShardedScheduleCache::evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->evictions();
  return total;
}

}  // namespace actg::runtime
