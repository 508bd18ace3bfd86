#include "runtime/schedule_cache.h"

#include <cmath>

#include "util/error.h"
#include "util/hash.h"

namespace actg::runtime {

namespace {

/// Hash resolution of the probability vector: probabilities are bucketed
/// as round(p * kHashQuantization) when hashing. The exact-match check
/// on the stored key keeps results unchanged at any resolution.
constexpr double kHashQuantization = 1u << 16;

/// Identifies a key in the eviction history: every field's exact bits,
/// unlike KeyHash, which buckets probabilities.
std::uint64_t ExactHash(const ScheduleCacheKey& key) {
  std::uint64_t hash = util::HashCombine(util::kFnvOffset,
                                         key.graph_fingerprint);
  hash = util::HashCombine(hash, key.platform_fingerprint);
  hash = util::HashCombine(hash, key.config_fingerprint);
  hash = util::HashCombine(hash, key.tenant);
  hash = util::HashCombine(hash, util::HashBytes(key.policy));
  for (double p : key.probs) hash = util::HashDouble(hash, p);
  return hash;
}

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
  hash = util::HashCombine(hash, key.platform_fingerprint);
  hash = util::HashCombine(hash, key.config_fingerprint);
  hash = util::HashCombine(hash, key.tenant);
  for (const char c : key.policy) {
    hash = util::HashCombine(hash, static_cast<std::uint64_t>(c));
  }
  for (double p : key.probs) {
    // Bucket by quantized probability; exact equality is checked by
    // operator== on the stored key, so collisions only cost a probe.
    hash = util::HashCombine(
        hash, static_cast<std::uint64_t>(std::llround(p * kHashQuantization)));
  }
  return static_cast<std::size_t>(hash);
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options, Metrics* metrics)
    : options_(options), metrics_(metrics) {}

std::optional<ScheduleCacheEntry> ScheduleCache::Lookup(
    const ScheduleCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(key);
  if (it == slots_.end()) {
    ++misses_;
    if (metrics_) metrics_->Increment("schedule_cache.misses");
    return std::nullopt;
  }
  Use(*it);
  ++hits_;
  if (metrics_) metrics_->Increment("schedule_cache.hits");
  return it->second.entry;
}

void ScheduleCache::Insert(const ScheduleCacheKey& key,
                           ScheduleCacheEntry entry) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = slots_.find(key); it != slots_.end()) {
    it->second.entry = std::move(entry);
    Use(*it);
    return;
  }
  const std::uint64_t hash = ExactHash(key);
  std::uint64_t uses = 1;
  if (const auto record = history_index_.find(hash);
      record != history_index_.end()) {
    uses += record->second->uses;
    history_.erase(record->second);
    history_index_.erase(record);
  }
  // Evicting before the new key joins the order keeps it from being
  // its own victim.
  if (slots_.size() == options_.capacity) EvictOne();
  const auto it =
      slots_.emplace(key, Slot{std::move(entry), hash, Rank{uses, ++clock_}})
          .first;
  order_.emplace(it->second.rank, &*it);
}

std::size_t ScheduleCache::Purge(std::uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.tenant == tenant) {
      order_.erase(it->second.rank);
      it = slots_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void ScheduleCache::Use(Resident& resident) {
  Rank& rank = resident.second.rank;
  auto node = order_.extract(rank);
  rank = Rank{rank.uses + 1, ++clock_};
  node.key() = rank;
  order_.insert(std::move(node));
}

void ScheduleCache::EvictOne() {
  const auto victim = order_.begin();
  const auto it = slots_.find(victim->second->first);
  const Evicted record{it->second.exact_hash, it->second.rank.uses};
  order_.erase(victim);
  slots_.erase(it);
  ++evictions_;
  if (metrics_) metrics_->Increment("schedule_cache.evictions");

  // Only a 64-bit collision finds a record here; the newer one wins.
  if (const auto old = history_index_.find(record.exact_hash);
      old != history_index_.end()) {
    history_.erase(old->second);
    history_index_.erase(old);
  }
  history_.push_back(record);
  history_index_.emplace(record.exact_hash, std::prev(history_.end()));
  if (history_.size() > options_.capacity) {
    history_index_.erase(history_.front().exact_hash);
    history_.pop_front();
  }
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
