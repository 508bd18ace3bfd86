#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/controller.h"
#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "dvfs/stretch.h"
#include "experiments.h"
#include "runtime/fingerprint.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "runtime/watchdog.h"
#include "sched/dls.h"
#include "util/rng.h"

namespace actg::runtime {
namespace {

// ---------------------------------------------------------------- Pool

TEST(Pool, RunsEachIndexExactlyOnce) {
  Pool pool(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(Pool, ZeroJobsAndZeroItemsComplete) {
  Pool serial(0);  // clamped to 1: the calling thread participates
  int ran = 0;
  serial.ParallelFor(3, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 3);
  serial.ParallelFor(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 3);
}

TEST(Pool, ParallelMapReturnsResultsInIndexOrder) {
  Pool pool(8);
  const std::vector<std::size_t> squares =
      ParallelMap(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(Pool, NestedParallelForRunsInline) {
  // A body that issues ParallelFor on the same pool must not deadlock
  // (nested batches drain on the issuing thread).
  Pool pool(4);
  std::vector<std::atomic<int>> counts(64);
  pool.ParallelFor(8, [&](std::size_t outer) {
    pool.ParallelFor(8, [&](std::size_t inner) {
      ++counts[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(Pool, ExceptionPropagatesAndPoolSurvives) {
  Pool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](std::size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<int> ran = 0;
  pool.ParallelFor(10, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 10);
}

TEST(Pool, ParseJobsFlag) {
  const char* argv1[] = {"bench", "--jobs", "5"};
  EXPECT_EQ(ParseJobs(3, const_cast<char**>(argv1)), 5u);
  const char* argv2[] = {"bench", "--jobs=3"};
  EXPECT_EQ(ParseJobs(2, const_cast<char**>(argv2)), 3u);
  const char* argv3[] = {"bench", "--jobs", "0"};
  EXPECT_EQ(ParseJobs(3, const_cast<char**>(argv3)), HardwareJobs());
  // Garbage values fall back to the default instead of wrapping into a
  // gigantic unsigned thread count.
  const char* argv4[] = {"bench", "--jobs", "-4"};
  EXPECT_EQ(ParseJobs(3, const_cast<char**>(argv4)), DefaultJobs());
  const char* argv5[] = {"bench", "--jobs", "abc"};
  EXPECT_EQ(ParseJobs(3, const_cast<char**>(argv5)), DefaultJobs());
}

// ---------------------------------------------- Deterministic sweeps

/// One seeded Monte-Carlo job: a few hundred draws from a forked
/// substream reduced to a vector of doubles. Depends only on the index.
std::vector<double> SweepJob(const util::Random& base, std::size_t i) {
  util::Random rng = base.Fork(i);
  std::vector<double> out;
  out.reserve(64);
  for (int k = 0; k < 64; ++k) out.push_back(rng.Uniform(-1.0, 1.0));
  return out;
}

TEST(Determinism, ParallelMapIdenticalForAnyWorkerCount) {
  const util::Random base(2024);
  Pool serial(1);
  Pool wide(8);
  const auto a = ParallelMap(
      serial, 128, [&](std::size_t i) { return SweepJob(base, i); });
  const auto b = ParallelMap(
      wide, 128, [&](std::size_t i) { return SweepJob(base, i); });
  // Bitwise equality, not approximate: the contract is bit-identical
  // results regardless of worker count.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k], b[i][k]) << "job " << i << " draw " << k;
    }
  }
}

TEST(Determinism, Table4StyleSweepIdenticalAcrossWorkerCounts) {
  // A miniature Table-4 sweep (two CTGs, short traces) computed through
  // a 1-worker and an 8-worker pool must agree bit-for-bit, including
  // the nested ParallelMap inside CompareAdaptive.
  std::vector<bench::TestCase> cases = bench::MakeTable45Cases();
  cases.erase(cases.begin() + 2, cases.end());

  auto sweep = [&](Pool& pool) {
    return ParallelMap(pool, cases.size(), [&](std::size_t i) {
      const bench::TestCase& test = cases[i];
      const ctg::ActivationAnalysis analysis(test.rc.graph);
      const trace::BranchTrace vectors = bench::MakeFluctuatingVectors(
          test.rc.graph, 60, 777 + static_cast<std::uint64_t>(i) + 1);
      const ctg::BranchProbabilities profile = bench::BiasedProfile(
          test.rc.graph, analysis, test.rc.platform, /*lowest=*/true);
      bench::ExperimentSpec spec(test.rc.graph, analysis,
                                 test.rc.platform);
      spec.WithProfile(profile).WithWindow(20).WithScheduleCache()
          .WithPool(&pool);
      return bench::CompareAdaptive(spec, vectors);
    });
  };

  Pool serial(1);
  Pool wide(8);
  const auto rows_serial = sweep(serial);
  const auto rows_wide = sweep(wide);
  ASSERT_EQ(rows_serial.size(), rows_wide.size());
  for (std::size_t i = 0; i < rows_serial.size(); ++i) {
    EXPECT_EQ(rows_serial[i].online_energy, rows_wide[i].online_energy);
    EXPECT_EQ(rows_serial[i].adaptive_energy_t05,
              rows_wide[i].adaptive_energy_t05);
    EXPECT_EQ(rows_serial[i].adaptive_energy_t01,
              rows_wide[i].adaptive_energy_t01);
    EXPECT_EQ(rows_serial[i].calls_t05, rows_wide[i].calls_t05);
    EXPECT_EQ(rows_serial[i].calls_t01, rows_wide[i].calls_t01);
  }
}

// ----------------------------------------------------------------- Rng

TEST(RngFork, SameStreamYieldsSameChild) {
  const util::Random base(7);
  util::Random a = base.Fork(11);
  util::Random b = base.Fork(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.engine().Next(), b.engine().Next());
  }
}

TEST(RngFork, DoesNotAdvanceParent) {
  util::Random a(7);
  util::Random b(7);
  (void)a.Fork(1);
  (void)a.Fork(2);
  EXPECT_EQ(a.engine().Next(), b.engine().Next());
}

TEST(RngFork, SubstreamsAreNonOverlapping) {
  // 4096 draws from the parent and from each of 8 children must be
  // pairwise disjoint 64-bit sets (a collision among ~37k draws from a
  // 2^64 output space would be astronomically unlikely unless two
  // streams actually coincide or are shifted copies).
  constexpr int kDraws = 4096;
  util::Xoshiro256 parent(123);
  std::vector<std::vector<std::uint64_t>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    util::Xoshiro256 child = parent.Fork(s);
    std::vector<std::uint64_t> draws(kDraws);
    for (auto& d : draws) d = child.Next();
    streams.push_back(std::move(draws));
  }
  std::vector<std::uint64_t> parent_draws(kDraws);
  for (auto& d : parent_draws) d = parent.Next();
  streams.push_back(std::move(parent_draws));

  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& stream : streams) {
    seen.insert(stream.begin(), stream.end());
    total += stream.size();
  }
  EXPECT_EQ(seen.size(), total);
}

// --------------------------------------------------------------- Cache

/// Fixture building real (schedule, stretch) entries from the paper's
/// Fig. 1 example so cached payloads are genuine Schedule objects.
class ScheduleCacheFixture : public ::testing::Test {
 protected:
  ScheduleCacheFixture()
      : ex_(apps::MakeFig1Example()), analysis_(ex_.graph) {}

  ScheduleCacheEntry MakeEntry(const ctg::BranchProbabilities& probs) {
    sched::Schedule schedule =
        sched::RunDls(ex_.graph, analysis_, ex_.platform, probs);
    const dvfs::StretchStats stats = dvfs::StretchOnline(schedule, probs);
    return ScheduleCacheEntry{std::move(schedule), stats};
  }

  ScheduleCacheKey MakeKey(std::vector<double> probs) const {
    ScheduleCacheKey key;
    key.graph_fingerprint = FingerprintCtg(ex_.graph);
    key.platform_fingerprint = FingerprintPlatform(ex_.platform);
    key.config_fingerprint = 1;
    key.probs = std::move(probs);
    return key;
  }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
};

TEST_F(ScheduleCacheFixture, HitReturnsExactCachedPair) {
  ScheduleCache cache;
  const ScheduleCacheKey key = MakeKey({0.4, 0.6, 0.3, 0.7});
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  const ScheduleCacheEntry inserted = MakeEntry(ex_.probs);
  cache.Insert(key, inserted);

  const auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  // The cached pair is exactly what was inserted.
  EXPECT_EQ(hit->schedule.Makespan(), inserted.schedule.Makespan());
  for (TaskId task : ex_.graph.TaskIds()) {
    EXPECT_EQ(hit->schedule.placement(task).pe.value,
              inserted.schedule.placement(task).pe.value);
    EXPECT_EQ(hit->schedule.placement(task).speed_ratio,
              inserted.schedule.placement(task).speed_ratio);
  }
  EXPECT_EQ(hit->stretch.path_count, inserted.stretch.path_count);
  EXPECT_EQ(hit->stretch.total_extension_ms,
            inserted.stretch.total_extension_ms);
  EXPECT_EQ(hit->stretch.max_path_delay_ms,
            inserted.stretch.max_path_delay_ms);
}

TEST_F(ScheduleCacheFixture, NearIdenticalProbabilitiesDoNotHit) {
  // Quantization only buckets the hash; equality is exact, so a
  // probability vector differing in the last bit must miss even though
  // it lands in the same hash bucket.
  ScheduleCache cache;
  const ScheduleCacheKey key = MakeKey({0.4, 0.6});
  cache.Insert(key, MakeEntry(ex_.probs));

  ScheduleCacheKey near = key;
  near.probs[0] = std::nextafter(near.probs[0], 1.0);
  EXPECT_FALSE(cache.Lookup(near).has_value());
  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST_F(ScheduleCacheFixture, RespectsLruCapacity) {
  ScheduleCacheOptions options;
  options.capacity = 2;
  ScheduleCache cache(options);
  const ScheduleCacheEntry entry = MakeEntry(ex_.probs);

  const ScheduleCacheKey k1 = MakeKey({0.1});
  const ScheduleCacheKey k2 = MakeKey({0.2});
  const ScheduleCacheKey k3 = MakeKey({0.3});
  cache.Insert(k1, entry);
  cache.Insert(k2, entry);
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes least recently used, then overflow.
  EXPECT_TRUE(cache.Lookup(k1).has_value());
  cache.Insert(k3, entry);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(k1).has_value());
  EXPECT_FALSE(cache.Lookup(k2).has_value());
  EXPECT_TRUE(cache.Lookup(k3).has_value());
}

TEST_F(ScheduleCacheFixture, ConcurrentLookupsAndInsertsAreSafe) {
  // Exercised under TSan in CI: threads sharing one cache.
  ScheduleCacheOptions options;
  options.capacity = 8;
  ScheduleCache cache(options);
  const ScheduleCacheEntry entry = MakeEntry(ex_.probs);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const ScheduleCacheKey key =
            MakeKey({static_cast<double>((t + i) % 12) / 12.0});
        if (!cache.Lookup(key).has_value()) cache.Insert(key, entry);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits() + cache.misses(), 800u);
}

TEST_F(ScheduleCacheFixture, ConcurrentLookupsInsertsAndPurgesAreSafe) {
  // Exercised under TSan in CI: lookups, inserts and per-tenant purges
  // hammering one cache from four threads.
  ScheduleCacheOptions options;
  options.capacity = 8;
  ScheduleCache cache(options);
  const ScheduleCacheEntry entry = MakeEntry(ex_.probs);

  std::atomic<std::uint64_t> purged{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ScheduleCacheKey key =
            MakeKey({static_cast<double>((t + i) % 12) / 12.0});
        key.tenant = static_cast<std::uint64_t>(t % 2);
        if (!cache.Lookup(key).has_value()) cache.Insert(key, entry);
        if (i % 64 == 63) {
          purged.fetch_add(cache.Purge(static_cast<std::uint64_t>(t % 2)),
                           std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.hits() + cache.misses(), 800u);
  // Every slot comes from an insert after a miss (two threads racing on
  // one key share a slot) and is still cached, evicted or purged.
  EXPECT_LE(cache.size() + cache.evictions() + purged.load(),
            cache.misses());
}

TEST_F(ScheduleCacheFixture, AdaptiveRunUnchangedByCacheWithHits) {
  // The paper's adaptive loop with and without memoization must agree
  // exactly — same energies, same re-schedule count — while a cyclic
  // workload (operating points revisited after the window refills)
  // produces real cache hits.
  auto run = [&](ScheduleCache* cache) {
    adaptive::AdaptiveOptions options;
    options.window_length = 4;
    options.threshold = 0.1;
    options.cache = CacheBinding{cache, 0};
    adaptive::AdaptiveController controller(ex_.graph, analysis_,
                                            ex_.platform, ex_.probs,
                                            options);
    ctg::BranchAssignment a(ex_.graph.task_count());
    a.Set(ex_.tau(3), 0);
    a.Set(ex_.tau(5), 0);
    ctg::BranchAssignment b(ex_.graph.task_count());
    b.Set(ex_.tau(3), 1);
    b.Set(ex_.tau(5), 1);

    double total = 0.0;
    for (int cycle = 0; cycle < 6; ++cycle) {
      for (int i = 0; i < 8; ++i) {
        total += controller.ProcessInstance(cycle % 2 == 0 ? a : b)
                     .energy_mj;
      }
    }
    return std::pair<double, std::size_t>(total,
                                          controller.reschedule_count());
  };

  const auto baseline = run(nullptr);
  ScheduleCache cache;
  const auto cached = run(&cache);

  EXPECT_EQ(baseline.first, cached.first);
  EXPECT_EQ(baseline.second, cached.second);
  EXPECT_GT(baseline.second, 0u);
  EXPECT_GT(cache.hits(), 0u);
}

TEST_F(ScheduleCacheFixture, TenantAndPolicyFieldsPreventKeyAliasing) {
  // Two tenants (or two policies) scheduling the same graph at the same
  // operating point must never serve each other's entries.
  ScheduleCache cache;
  ScheduleCacheKey key = MakeKey({0.4, 0.6});
  key.tenant = 1;
  key.policy = "online";
  cache.Insert(key, MakeEntry(ex_.probs));

  ScheduleCacheKey other_tenant = key;
  other_tenant.tenant = 2;
  EXPECT_FALSE(cache.Lookup(other_tenant).has_value());

  ScheduleCacheKey other_policy = key;
  other_policy.policy = "proportional";
  EXPECT_FALSE(cache.Lookup(other_policy).has_value());

  EXPECT_TRUE(cache.Lookup(key).has_value());
}

TEST_F(ScheduleCacheFixture, FingerprintFieldsPreventKeyAliasing) {
  // The same operating point on another graph, another platform or
  // under another scheduler/stretcher configuration is another entry.
  ScheduleCache cache;
  const ScheduleCacheKey key = MakeKey({0.4, 0.6});
  cache.Insert(key, MakeEntry(ex_.probs));
  for (std::uint64_t ScheduleCacheKey::*field :
       {&ScheduleCacheKey::graph_fingerprint,
        &ScheduleCacheKey::platform_fingerprint,
        &ScheduleCacheKey::config_fingerprint}) {
    ScheduleCacheKey other = key;
    other.*field += 1;
    EXPECT_FALSE(cache.Lookup(other).has_value());
  }
  EXPECT_TRUE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ScheduleCacheFixture, HashBucketMatesAreStoredApart) {
  // Probabilities within 2^-17 of each other quantize to one hash
  // bucket; the keys still get a slot each and answer with their own
  // entry.
  ScheduleCache cache;
  const ScheduleCacheKey lo = MakeKey({0.5, 0.5});
  const ScheduleCacheKey hi = MakeKey({0.5 + 0x1p-20, 0.5 - 0x1p-20});
  const ScheduleCacheEntry lo_entry = MakeEntry(ex_.probs);
  ScheduleCacheEntry hi_entry = lo_entry;
  hi_entry.stretch.total_extension_ms += 1.0;
  cache.Insert(lo, lo_entry);
  cache.Insert(hi, hi_entry);
  EXPECT_EQ(cache.size(), 2u);

  const auto lo_hit = cache.Lookup(lo);
  const auto hi_hit = cache.Lookup(hi);
  ASSERT_TRUE(lo_hit.has_value());
  ASSERT_TRUE(hi_hit.has_value());
  EXPECT_EQ(lo_hit->stretch.total_extension_ms,
            lo_entry.stretch.total_extension_ms);
  EXPECT_EQ(hi_hit->stretch.total_extension_ms,
            hi_entry.stretch.total_extension_ms);

  // Replacing one bucket mate leaves the other's entry in place.
  cache.Insert(hi, lo_entry);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(lo)->stretch.total_extension_ms,
            lo_entry.stretch.total_extension_ms);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST_F(ScheduleCacheFixture, PurgeRemovesOnlyOneTenantWithoutEvictions) {
  ScheduleCache cache;
  const ScheduleCacheEntry entry = MakeEntry(ex_.probs);
  for (std::uint64_t tenant : {1u, 1u, 2u}) {
    ScheduleCacheKey key =
        MakeKey({static_cast<double>(cache.size()) / 8.0});
    key.tenant = tenant;
    cache.Insert(key, entry);
  }
  ASSERT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.Purge(1), 2u);
  EXPECT_EQ(cache.size(), 1u);
  // Purged entries are not evictions (the LRU never overflowed).
  EXPECT_EQ(cache.evictions(), 0u);

  ScheduleCacheKey survivor = MakeKey({2.0 / 8.0});
  survivor.tenant = 2;
  EXPECT_TRUE(cache.Lookup(survivor).has_value());
  EXPECT_EQ(cache.Purge(7), 0u);  // unknown tenant: no-op
}

TEST_F(ScheduleCacheFixture, ShardedCacheRoutesStatsAndPurgesPerShard) {
  ShardedScheduleCacheOptions options;
  options.shards = 4;
  options.shard_capacity = 8;
  ShardedScheduleCache cache(options);
  ASSERT_EQ(cache.shard_count(), 4u);

  // Routing is stable and the returned shard is the indexed one.
  for (std::uint64_t tenant = 1; tenant <= 12; ++tenant) {
    EXPECT_EQ(cache.ShardIndex(tenant), cache.ShardIndex(tenant));
    EXPECT_LT(cache.ShardIndex(tenant), cache.shard_count());
  }

  const ScheduleCacheEntry entry = MakeEntry(ex_.probs);
  auto keyed = [&](std::uint64_t tenant) {
    ScheduleCacheKey key = MakeKey({0.4, 0.6});
    key.tenant = tenant;
    return key;
  };
  // Find two tenants on distinct shards (mixing spreads consecutive
  // ids, so a small scan always finds a pair).
  std::uint64_t a = 1, b = 2;
  while (cache.ShardIndex(b) == cache.ShardIndex(a)) ++b;

  cache.ShardFor(a).Insert(keyed(a), entry);
  cache.ShardFor(b).Insert(keyed(b), entry);
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_TRUE(cache.ShardFor(a).Lookup(keyed(a)).has_value());
  EXPECT_FALSE(cache.ShardFor(a).Lookup(keyed(b)).has_value())
      << "tenant b's entry must live on its own shard";

  // Shard-aware stats: hits/misses land on the queried shard only.
  EXPECT_EQ(cache.ShardFor(a).hits(), 1u);
  EXPECT_EQ(cache.ShardFor(a).misses(), 1u);
  EXPECT_EQ(cache.ShardFor(b).hits(), 0u);
  EXPECT_EQ(cache.ShardFor(b).size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Purging tenant a leaves tenant b's shard untouched.
  EXPECT_EQ(cache.Purge(a), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.ShardFor(b).Lookup(keyed(b)).has_value());
  EXPECT_EQ(cache.evictions(), 0u);
}

// -------------------------------------------------------------- Metrics

TEST(MetricsTest, CountersAndTimers) {
  Metrics metrics;
  metrics.Increment("a");
  metrics.Increment("a", 4);
  EXPECT_EQ(metrics.counter("a"), 5u);
  EXPECT_EQ(metrics.counter("never"), 0u);

  { const ScopedTimer timer(metrics, "stage.x"); }
  EXPECT_EQ(metrics.counter("stage.x.calls"), 1u);
  EXPECT_GE(metrics.timer_ms("stage.x"), 0.0);

  metrics.Reset();
  EXPECT_EQ(metrics.counter("a"), 0u);
  EXPECT_TRUE(metrics.Counters().empty());
}

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  Metrics metrics;
  Pool pool(8);
  pool.ParallelFor(1000, [&](std::size_t) {
    metrics.Increment("hits");
  });
  EXPECT_EQ(metrics.counter("hits"), 1000u);
}

TEST(MetricsTest, CsvDumpHasHeaderAndRows) {
  Metrics metrics;
  metrics.Increment("cache.hits", 3);
  metrics.RecordTime("stage.dls", 2'000'000);
  std::ostringstream os;
  metrics.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("metric,kind,value"), std::string::npos);
  EXPECT_NE(csv.find("cache.hits,counter,3"), std::string::npos);
  EXPECT_NE(csv.find("stage.dls"), std::string::npos);
}

TEST(MetricsTest, DistributionsReportNearestRankQuantiles) {
  Metrics metrics;
  EXPECT_EQ(metrics.samples("lat"), 0u);
  EXPECT_EQ(metrics.quantile("lat", 0.5), 0.0);

  for (int i = 1; i <= 100; ++i) {
    metrics.Observe("lat", static_cast<double>(i));
  }
  EXPECT_EQ(metrics.samples("lat"), 100u);
  EXPECT_DOUBLE_EQ(metrics.quantile("lat", 0.5), 50.0);
  EXPECT_DOUBLE_EQ(metrics.quantile("lat", 0.99), 99.0);
  EXPECT_DOUBLE_EQ(metrics.quantile("lat", 1.0), 100.0);

  std::ostringstream os;
  metrics.WriteText(os);
  EXPECT_NE(os.str().find("lat_count 100"), std::string::npos);
  EXPECT_NE(os.str().find("lat_p99"), std::string::npos);

  metrics.Reset();
  EXPECT_EQ(metrics.samples("lat"), 0u);
}

// ------------------------------------------------------------ Watchdog

// A denormal-small positive deadline arms "now" (NowMs() + denormal
// rounds back to NowMs(), and expiry is a >= comparison), so it fires
// at the first check even if the clock never advances. This is the
// deterministic "always fires" end state; the generous deadline below
// is the deterministic "never fires" one.
constexpr double kInstantly = std::numeric_limits<double>::min();
constexpr double kNever = 1e12;

TEST(Watchdog, UnarmedThreadNeverExpires) {
  EXPECT_FALSE(DeadlineExpired());
  EXPECT_NO_THROW(CheckDeadline("idle"));
}

TEST(Watchdog, InertScopeArmsNothing) {
  DeadlineScope inert(0.0);
  EXPECT_FALSE(DeadlineExpired());
  DeadlineScope negative(-5.0);
  EXPECT_FALSE(DeadlineExpired());
}

TEST(Watchdog, TightDeadlineFiresWithTheNamedCulprit) {
  DeadlineScope scope(kInstantly);
  EXPECT_TRUE(DeadlineExpired());
  try {
    CheckDeadline("unit test body");
    FAIL() << "CheckDeadline did not throw";
  } catch (const DeadlineExceeded& e) {
    EXPECT_STREQ(e.what(),
                 "watchdog: unit test body exceeded its deadline");
  }
}

TEST(Watchdog, GenerousDeadlineNeverFires) {
  DeadlineScope scope(kNever);
  EXPECT_FALSE(DeadlineExpired());
  EXPECT_NO_THROW(CheckDeadline("unit test body"));
}

TEST(Watchdog, ScopesNestAndRestoreTheOuterDeadline) {
  DeadlineScope outer(kNever);
  EXPECT_FALSE(DeadlineExpired());
  {
    DeadlineScope inner(kInstantly);
    EXPECT_TRUE(DeadlineExpired());  // innermost armed deadline wins
  }
  EXPECT_FALSE(DeadlineExpired());  // outer deadline restored
  {
    DeadlineScope inert(0.0);
    EXPECT_FALSE(DeadlineExpired());  // inert scope leaves outer armed
  }
  EXPECT_FALSE(DeadlineExpired());
}

TEST(Watchdog, PoolArmsADeadlinePerJob) {
  Pool pool(4);
  std::atomic<std::size_t> expired{0};
  pool.ParallelFor(
      16, [&](std::size_t) { expired += DeadlineExpired() ? 1 : 0; },
      kInstantly);
  EXPECT_EQ(expired.load(), 16u);

  expired = 0;
  pool.ParallelFor(
      16, [&](std::size_t) { expired += DeadlineExpired() ? 1 : 0; },
      kNever);
  EXPECT_EQ(expired.load(), 0u);

  // Default: no deadline parameter arms nothing.
  expired = 0;
  pool.ParallelFor(16,
                   [&](std::size_t) { expired += DeadlineExpired() ? 1 : 0; });
  EXPECT_EQ(expired.load(), 0u);
}

TEST(Watchdog, DeadlineExceededEscapingAJobPropagatesToTheCaller) {
  Pool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   8, [&](std::size_t) { CheckDeadline("pool job"); },
                   kInstantly),
               DeadlineExceeded);
}

}  // namespace
}  // namespace actg::runtime
