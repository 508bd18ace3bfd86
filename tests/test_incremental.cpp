#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "check/fuzz.h"
#include "check/validator.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "dvfs/paths.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "sched/dls.h"
#include "sched/incremental.h"
#include "tgff/random_ctg.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg {
namespace {

// ---------------------------------------------------------------------------
// Helpers

bool SamePlacements(const ctg::Ctg& graph, const sched::Schedule& a,
                    const sched::Schedule& b) {
  for (TaskId task : graph.TaskIds()) {
    const sched::TaskPlacement& pa = a.placement(task);
    const sched::TaskPlacement& pb = b.placement(task);
    if (pa.pe != pb.pe || pa.order_index != pb.order_index ||
        pa.speed_ratio != pb.speed_ratio || pa.start_ms != pb.start_ms ||
        pa.finish_ms != pb.finish_ms) {
      return false;
    }
  }
  return true;
}

/// \p base with \p fork's leading outcome probability replaced by \p p
/// (remaining mass spread uniformly).
ctg::BranchProbabilities WithForkAt(const ctg::Ctg& graph,
                                    const ctg::BranchProbabilities& base,
                                    TaskId fork, double p) {
  ctg::BranchProbabilities probs = base;
  const auto outcomes = static_cast<std::size_t>(graph.OutcomeCount(fork));
  std::vector<double> dist(outcomes, (1.0 - p) / (outcomes - 1));
  dist[0] = p;
  probs.Set(fork, std::move(dist));
  return probs;
}

sched::DlsOptions CaseDlsOptions(const check::FuzzCase& c) {
  sched::DlsOptions options;
  options.mutex_aware = c.mutex_aware;
  options.level_policy = c.prob_weighted
                             ? sched::LevelPolicy::kProbabilityWeighted
                             : sched::LevelPolicy::kWorstCase;
  options.available_pes = arch::PeMask::WithoutBits(c.masked_pes);
  return options;
}

/// A mid-size fork-join case shared by the facade tests.
struct FacadeCase {
  tgff::RandomCase rc;
  ctg::Ctg& graph;
  const arch::Platform& platform;
  std::optional<ctg::ActivationAnalysis> analysis;
  ctg::BranchProbabilities base;
  TaskId fork;

  static tgff::RandomCase MakeCase(std::uint64_t seed) {
    tgff::RandomCtgParams params;
    params.task_count = 24;
    params.pe_count = 3;
    params.fork_count = 3;
    params.category = tgff::Category::kForkJoin;
    params.seed = seed;
    return tgff::MakeRandomCtg(params).value();
  }

  explicit FacadeCase(std::uint64_t seed = 7)
      : rc(MakeCase(seed)), graph(rc.graph), platform(rc.platform) {
    apps::AssignDeadline(graph, platform, 1.5);
    analysis.emplace(graph);
    base = apps::UniformProbabilities(graph);
    // Oscillate the fork with the smallest dirty region, so the warm
    // tiers genuinely engage instead of falling back on ratio.
    fork = graph.ForkIds().front();
    std::size_t best = graph.task_count() + 1;
    for (TaskId candidate : graph.ForkIds()) {
      const sched::IncrementalDelta delta = sched::ComputeDirtyRegion(
          graph, *analysis, base, WithForkAt(graph, base, candidate, 0.9));
      if (delta.dirty_count < best) {
        best = delta.dirty_count;
        fork = candidate;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Differential suite: incremental DLS vs full DLS over fuzzed cases

// The ISSUE-level contract of RunIncrementalDls, checked across >= 1k
// fuzzed (graph, prob-delta) cases drawn from the actg_fuzz spec
// stream: every result passes the oracle, clean tasks keep their basis
// PE (the documented feasible-equivalence), and a fallback is
// bit-identical to calling RunDls directly.
TEST(IncrementalDifferential, MatchesFullDlsAcrossFuzzedProbDeltas) {
  const util::Random root(2026);
  constexpr std::uint64_t kCases = 1024;
  std::size_t warm_runs = 0;
  std::size_t fallbacks = 0;

  for (std::uint64_t i = 0; i < kCases; ++i) {
    const check::FuzzCaseSpec spec = check::RandomSpec(root, i);
    const check::FuzzCase c = check::Materialize(spec);
    const ctg::ActivationAnalysis analysis(c.graph);
    const sched::DlsOptions options = CaseDlsOptions(c);
    const ctg::BranchProbabilities before =
        check::CaseProbabilities(c.graph, spec.prob_seed);

    // Prob-delta: nudge one fork's distribution (or none, when the
    // graph is fork-free — the empty-delta degenerate case).
    util::Random rng = root.Fork(kCases + i);
    ctg::BranchProbabilities after = before;
    if (!c.graph.ForkIds().empty()) {
      const auto& forks = c.graph.ForkIds();
      const TaskId fork = forks[i % forks.size()];
      after = WithForkAt(c.graph, before, fork, rng.Uniform(0.05, 0.95));
    }

    const sched::Schedule basis =
        sched::RunDls(c.graph, analysis, c.platform, before, options);
    const sched::IncrementalDelta delta =
        sched::ComputeDirtyRegion(c.graph, analysis, before, after);
    const sched::IncrementalResult inc = sched::RunIncrementalDls(
        c.graph, analysis, c.platform, after, sched::MappingOf(basis),
        delta, options, 0.5);

    // Always oracle-valid, whatever tier produced it.
    check::Expectations expect;
    expect.available_pes = options.available_pes;
    ASSERT_NO_THROW(check::Validate(inc.schedule, expect))
        << "case " << i << " fell_back=" << inc.fell_back;
    ASSERT_EQ(inc.dirty_count, delta.dirty_count) << "case " << i;

    const sched::Schedule full =
        sched::RunDls(c.graph, analysis, c.platform, after, options);
    if (inc.fell_back) {
      // Fallback contract: bit-identical to the direct full run.
      ASSERT_TRUE(SamePlacements(c.graph, inc.schedule, full))
          << "case " << i;
      ++fallbacks;
    } else {
      // Feasible-equivalence contract: clean tasks keep the basis PE.
      for (TaskId task : c.graph.TaskIds()) {
        if (delta.dirty[task.index()] == 0) {
          ASSERT_EQ(inc.schedule.placement(task).pe,
                    basis.placement(task).pe)
              << "case " << i << " task " << task.index();
        }
      }
      ++warm_runs;
    }

    // An empty delta degenerates to a fully pinned run that reproduces
    // the basis schedule exactly.
    const sched::IncrementalDelta none =
        sched::ComputeDirtyRegion(c.graph, analysis, before, before);
    ASSERT_EQ(none.dirty_count, 0u);
    const sched::IncrementalResult pinned = sched::RunIncrementalDls(
        c.graph, analysis, c.platform, before, sched::MappingOf(basis),
        none, options, 0.5);
    ASSERT_FALSE(pinned.fell_back);
    ASSERT_TRUE(SamePlacements(c.graph, pinned.schedule, basis))
        << "case " << i;
  }

  // The stream must genuinely exercise both paths, not trivially fall
  // back (or trivially pin) everywhere.
  EXPECT_GE(warm_runs, 200u);
  EXPECT_GE(fallbacks, 50u);
}

TEST(IncrementalDifferential, TinyDirtyRatioForcesBitIdenticalFallback) {
  const FacadeCase fc;
  const sched::DlsOptions options;
  const sched::Schedule basis = sched::RunDls(
      fc.graph, *fc.analysis, fc.platform, fc.base, options);
  const ctg::BranchProbabilities after =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.9);
  const sched::IncrementalDelta delta =
      sched::ComputeDirtyRegion(fc.graph, *fc.analysis, fc.base, after);
  ASSERT_GT(delta.dirty_count, 0u);

  const sched::IncrementalResult inc = sched::RunIncrementalDls(
      fc.graph, *fc.analysis, fc.platform, after, sched::MappingOf(basis),
      delta, options, 1e-9);
  EXPECT_TRUE(inc.fell_back);
  const sched::Schedule full = sched::RunDls(
      fc.graph, *fc.analysis, fc.platform, after, options);
  EXPECT_TRUE(SamePlacements(fc.graph, inc.schedule, full));
}

// ---------------------------------------------------------------------------
// Facade: warm tiers through adaptive::Rescheduler

// A dirty region over max_dirty_ratio makes RunIncrementalDls fall back
// to a full RunDls, which the facade finishes as its full tier instead
// of scheduling a second time: one DLS per request, a result bitwise
// equal to a full-mode facade's, and unchanged tier accounting.
TEST(Rescheduler, IncrementalFallbackRunsOneDlsPerRequest) {
  const FacadeCase fc;
  runtime::Metrics& global = runtime::Metrics::Global();
  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "with cache" : "without cache");
    runtime::Metrics inc_metrics;
    runtime::Metrics full_metrics;
    runtime::ScheduleCache inc_cache(runtime::ScheduleCacheOptions{},
                                     &inc_metrics);
    runtime::ScheduleCache full_cache(runtime::ScheduleCacheOptions{},
                                      &full_metrics);
    adaptive::ReschedulerConfig full_config;
    full_config.metrics = &full_metrics;
    adaptive::ReschedulerConfig inc_config;
    inc_config.metrics = &inc_metrics;
    inc_config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
    inc_config.reschedule.max_dirty_ratio = 1e-9;
    if (with_cache) {
      full_config.cache = runtime::CacheBinding{&full_cache, 0};
      inc_config.cache = runtime::CacheBinding{&inc_cache, 0};
    }
    adaptive::Rescheduler incremental(fc.graph, *fc.analysis, fc.platform,
                                      inc_config);
    adaptive::Rescheduler full(fc.graph, *fc.analysis, fc.platform,
                               full_config);
    const adaptive::RescheduleRequest req{inc_config.dls.available_pes, 0.0,
                                          "test"};

    constexpr std::uint64_t kSteps = 12;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      // Distinct operating points: no exact hit, every step after the
      // first has a seed and a nonempty dirty region.
      const ctg::BranchProbabilities probs = WithForkAt(
          fc.graph, fc.base, fc.fork, 0.1 + 0.07 * static_cast<double>(i));
      const std::uint64_t dls_before = global.counter("stage.dls.calls");
      const adaptive::RescheduleResult got = incremental.Reschedule(probs, req);
      EXPECT_EQ(global.counter("stage.dls.calls") - dls_before, 1u)
          << "step " << i;
      const adaptive::RescheduleResult want = full.Reschedule(probs, req);
      EXPECT_EQ(got.tier, adaptive::RescheduleTier::kFull) << "step " << i;
      EXPECT_TRUE(SamePlacements(fc.graph, got.schedule, want.schedule))
          << "step " << i;
      const auto& got_edges = got.schedule.pseudo_edges();
      const auto& want_edges = want.schedule.pseudo_edges();
      ASSERT_EQ(got_edges.size(), want_edges.size()) << "step " << i;
      for (std::size_t e = 0; e < got_edges.size(); ++e) {
        EXPECT_EQ(got_edges[e].src, want_edges[e].src) << "step " << i;
        EXPECT_EQ(got_edges[e].dst, want_edges[e].dst) << "step " << i;
      }
      EXPECT_EQ(got.stretch.path_count, want.stretch.path_count)
          << "step " << i;
      EXPECT_EQ(got.stretch.total_extension_ms,
                want.stretch.total_extension_ms)
          << "step " << i;
      EXPECT_EQ(got.stretch.max_path_delay_ms,
                want.stretch.max_path_delay_ms)
          << "step " << i;
    }

    // The first request has no seed and runs the full tier directly;
    // every later one is a counted fallback that also counts as full.
    const adaptive::TierCounts& tiers = incremental.tier_counts();
    EXPECT_EQ(tiers.full, kSteps);
    EXPECT_EQ(tiers.incremental_fallbacks, kSteps - 1);
    EXPECT_EQ(tiers.exact + tiers.warm_prior, 0u);
    EXPECT_EQ(inc_metrics.counter("resched.tier.full"), kSteps);
    EXPECT_EQ(inc_metrics.counter("resched.incremental_fallbacks"),
              kSteps - 1);
    if (with_cache) {
      // Each fallback result was memoized, as the full tier does.
      EXPECT_EQ(inc_cache.size(), kSteps);
    }
  }
}

// Repeating the same operating point without a cache routes through the
// warm-prior rung with an *empty* dirty region — which must reproduce
// the prior result bit-for-bit (the replayed stretch re-quantizes to
// the identical speed trajectory).
TEST(Rescheduler, EmptyDeltaWarmStartIsBitIdentical) {
  const FacadeCase fc;
  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  runtime::Metrics metrics;
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                    config);

  const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                        "test"};
  const adaptive::RescheduleResult first =
      rescheduler.Reschedule(fc.base, req);
  EXPECT_EQ(first.tier, adaptive::RescheduleTier::kFull);
  const adaptive::RescheduleResult again =
      rescheduler.Reschedule(fc.base, req);
  EXPECT_EQ(again.tier, adaptive::RescheduleTier::kWarmPrior);
  EXPECT_TRUE(SamePlacements(fc.graph, again.schedule, first.schedule));
  EXPECT_DOUBLE_EQ(again.stretch.max_path_delay_ms,
                   first.stretch.max_path_delay_ms);
}

// Oscillating operating points: every warm-started result must stay
// oracle-valid and deadline-feasible, with the differential verifier
// armed so each one is also diffed against a from-scratch recompute.
TEST(Rescheduler, WarmResultsStayFeasibleUnderDrift) {
  const FacadeCase fc;
  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  config.reschedule.max_dirty_ratio = 0.9;
  config.reschedule.verify_incremental = true;
  config.validate_schedules = true;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  config.cache = runtime::CacheBinding{&cache, 0};
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                    config);

  const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                        "test"};
  for (int i = 0; i < 24; ++i) {
    const double p = 0.5 + 0.4 * std::sin(0.7 * i);
    const adaptive::RescheduleResult r =
        rescheduler.Reschedule(WithForkAt(fc.graph, fc.base, fc.fork, p),
                               req);
    EXPECT_LE(r.stretch.max_path_delay_ms,
              fc.graph.deadline_ms() * (1.0 + 1e-9));
  }
  const adaptive::TierCounts& tiers = rescheduler.tier_counts();
  EXPECT_GT(tiers.warm_prior, 0u);
  EXPECT_EQ(tiers.warm_cache + tiers.table, 0u) << "retired tiers";
  EXPECT_EQ(tiers.total(), 24u);
  // The verifier ran on every warm-started result and recorded the
  // energy drift of the feasible-equivalent schedule.
  EXPECT_EQ(metrics.samples("resched.verify.energy_ratio"),
            tiers.warm_prior);
}

// A bound cache only ever answers exact repeats: on a drift sequence
// with no repeated operating point, an incremental facade with a cache
// and one without must take the same tiers and produce bitwise-equal
// schedules. The sinusoid's points share 1/16-wide probability buckets,
// so a cache that seeded warm starts from near neighbours would diverge.
TEST(Rescheduler, BoundCacheDoesNotChangeWarmResults) {
  const FacadeCase fc;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  std::vector<adaptive::RescheduleResult> runs[2];
  for (const bool with_cache : {false, true}) {
    adaptive::ReschedulerConfig config;
    config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
    config.reschedule.max_dirty_ratio = 0.9;
    config.metrics = &metrics;
    if (with_cache) config.cache = runtime::CacheBinding{&cache, 0};
    adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                      config);
    const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                          "test"};
    for (int i = 0; i < 24; ++i) {
      const double p = 0.5 + 0.4 * std::sin(0.7 * i);
      runs[with_cache].push_back(rescheduler.Reschedule(
          WithForkAt(fc.graph, fc.base, fc.fork, p), req));
    }
  }
  EXPECT_EQ(cache.hits(), 0u) << "the sequence must not repeat a point";
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].tier, runs[1][i].tier) << "step " << i;
    EXPECT_TRUE(SamePlacements(fc.graph, runs[0][i].schedule,
                               runs[1][i].schedule))
        << "step " << i;
    EXPECT_EQ(runs[0][i].stretch.path_count, runs[1][i].stretch.path_count)
        << "step " << i;
    EXPECT_EQ(runs[0][i].stretch.total_extension_ms,
              runs[1][i].stretch.total_extension_ms)
        << "step " << i;
    EXPECT_EQ(runs[0][i].stretch.max_path_delay_ms,
              runs[1][i].stretch.max_path_delay_ms)
        << "step " << i;
  }
}

bool SameResult(const ctg::Ctg& graph, const adaptive::RescheduleResult& a,
                const adaptive::RescheduleResult& b) {
  return SamePlacements(graph, a.schedule, b.schedule) &&
         a.stretch.path_count == b.stretch.path_count &&
         a.stretch.total_extension_ms == b.stretch.total_extension_ms &&
         a.stretch.max_path_delay_ms == b.stretch.max_path_delay_ms;
}

// The ladder end to end: a new point is computed (full first, then warm
// started from the prior result), and a repeated point is an exact hit
// that returns what was computed for it the first time.
TEST(Rescheduler, ExactRepeatsAreServedFromTheCache) {
  const FacadeCase fc;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  config.reschedule.max_dirty_ratio = 0.9;
  config.metrics = &metrics;
  config.cache = runtime::CacheBinding{&cache, 0};
  adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                    config);
  const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                        "test"};
  const ctg::BranchProbabilities a =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.3);
  const ctg::BranchProbabilities b =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.8);

  const adaptive::RescheduleResult first_a = rescheduler.Reschedule(a, req);
  const adaptive::RescheduleResult first_b = rescheduler.Reschedule(b, req);
  EXPECT_EQ(first_a.tier, adaptive::RescheduleTier::kFull);
  EXPECT_EQ(first_b.tier, adaptive::RescheduleTier::kWarmPrior);
  const adaptive::RescheduleResult again_a = rescheduler.Reschedule(a, req);
  const adaptive::RescheduleResult again_b = rescheduler.Reschedule(b, req);
  EXPECT_EQ(again_a.tier, adaptive::RescheduleTier::kExact);
  EXPECT_EQ(again_b.tier, adaptive::RescheduleTier::kExact);
  EXPECT_TRUE(SameResult(fc.graph, again_a, first_a));
  EXPECT_TRUE(SameResult(fc.graph, again_b, first_b));

  const adaptive::TierCounts& tiers = rescheduler.tier_counts();
  EXPECT_EQ(tiers.full, 1u);
  EXPECT_EQ(tiers.warm_prior, 1u);
  EXPECT_EQ(tiers.exact, 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

// Every healthy result, an exact hit included, becomes the next
// warm-start basis. After a, b and a cache hit on a, the warm start for
// c is seeded from a's schedule — the same result a facade gets that
// only ever saw a before c.
TEST(Rescheduler, ExactHitBecomesTheWarmStartBasis) {
  const FacadeCase fc;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  config.reschedule.max_dirty_ratio = 0.9;
  config.metrics = &metrics;
  adaptive::Rescheduler reference(fc.graph, *fc.analysis, fc.platform,
                                  config);
  config.cache = runtime::CacheBinding{&cache, 0};
  adaptive::Rescheduler cached(fc.graph, *fc.analysis, fc.platform, config);
  const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                        "test"};
  const ctg::BranchProbabilities a =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.3);
  const ctg::BranchProbabilities b =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.8);
  const ctg::BranchProbabilities c =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.45);

  cached.Reschedule(a, req);
  cached.Reschedule(b, req);
  ASSERT_EQ(cached.Reschedule(a, req).tier,
            adaptive::RescheduleTier::kExact);
  const adaptive::RescheduleResult got = cached.Reschedule(c, req);
  reference.Reschedule(a, req);
  const adaptive::RescheduleResult want = reference.Reschedule(c, req);
  EXPECT_EQ(got.tier, adaptive::RescheduleTier::kWarmPrior);
  EXPECT_EQ(want.tier, adaptive::RescheduleTier::kWarmPrior);
  EXPECT_TRUE(SameResult(fc.graph, got, want));

  // The check has teeth: seeded from b instead, c comes out otherwise.
  config.cache = {};
  adaptive::Rescheduler from_b(fc.graph, *fc.analysis, fc.platform, config);
  from_b.Reschedule(b, req);
  EXPECT_FALSE(SameResult(fc.graph, from_b.Reschedule(c, req), want));
}

// kWarmCache and kTable are retired names, kept only for the readers of
// the report, checkpoint and baseline formats. No request — in either
// mode, with or without a cache, healthy or degraded — counts under them.
TEST(Rescheduler, RetiredTiersNeverCount) {
  EXPECT_STREQ(
      adaptive::RescheduleTierName(adaptive::RescheduleTier::kWarmCache),
      "warm_cache");
  EXPECT_STREQ(adaptive::RescheduleTierName(adaptive::RescheduleTier::kTable),
               "table");
  const FacadeCase fc;
  for (const adaptive::RescheduleMode mode :
       {adaptive::RescheduleMode::kFull,
        adaptive::RescheduleMode::kIncremental}) {
    for (const bool with_cache : {false, true}) {
      SCOPED_TRACE(std::string(adaptive::RescheduleModeName(mode)) +
                   (with_cache ? " with cache" : " without cache"));
      runtime::Metrics metrics;
      runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{},
                                   &metrics);
      adaptive::ReschedulerConfig config;
      config.reschedule.mode = mode;
      config.reschedule.max_dirty_ratio = 0.9;
      config.metrics = &metrics;
      if (with_cache) config.cache = runtime::CacheBinding{&cache, 0};
      adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis,
                                        fc.platform, config);
      const adaptive::RescheduleRequest healthy{config.dls.available_pes,
                                                0.0, "test"};
      const adaptive::RescheduleRequest degraded{
          config.dls.available_pes.Without(PeId{0}), 0.0, "degraded"};
      constexpr std::uint64_t kCalls = 18;
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        // Six points, each visited three times.
        const double p =
            0.5 + 0.4 * std::sin(0.7 * static_cast<double>(i % 6));
        rescheduler.Reschedule(WithForkAt(fc.graph, fc.base, fc.fork, p),
                               i % 7 == 6 ? degraded : healthy);
      }
      const adaptive::TierCounts& tiers = rescheduler.tier_counts();
      EXPECT_EQ(tiers.warm_cache, 0u);
      EXPECT_EQ(tiers.table, 0u);
      EXPECT_EQ(metrics.counter("resched.tier.warm_cache"), 0u);
      EXPECT_EQ(metrics.counter("resched.tier.table"), 0u);
      EXPECT_EQ(tiers.total(), kCalls);
      EXPECT_EQ(tiers.exact > 0, with_cache);
      EXPECT_EQ(tiers.warm_prior > 0,
                mode == adaptive::RescheduleMode::kIncremental);
    }
  }
}

// The config fingerprint folds the reschedule mode, and in incremental
// mode the dirty ratio, into every cache key: a warm-started result is
// never served to a full-mode lookup, whose contract is bit-exactness.
TEST(Rescheduler, ConfigFingerprintSeparatesModes) {
  static_assert(
      static_cast<int>(adaptive::RescheduleMode::kIncremental) == 1,
      "the mode value is folded into cache keys and timeline unit ids");
  const FacadeCase fc;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  const auto make = [&](adaptive::RescheduleMode mode, double ratio) {
    adaptive::ReschedulerConfig config;
    config.reschedule.mode = mode;
    config.reschedule.max_dirty_ratio = ratio;
    config.metrics = &metrics;
    config.cache = runtime::CacheBinding{&cache, 0};
    return std::make_unique<adaptive::Rescheduler>(fc.graph, *fc.analysis,
                                                   fc.platform, config);
  };
  const auto full = make(adaptive::RescheduleMode::kFull, 0.5);
  const auto incremental = make(adaptive::RescheduleMode::kIncremental, 0.5);
  EXPECT_NE(full->config_fingerprint(), incremental->config_fingerprint());
  EXPECT_EQ(full->config_fingerprint(),
            make(adaptive::RescheduleMode::kFull, 0.9)->config_fingerprint())
      << "full mode never reads the dirty ratio";
  EXPECT_NE(incremental->config_fingerprint(),
            make(adaptive::RescheduleMode::kIncremental, 0.9)
                ->config_fingerprint());

  // One shared cache: neither mode is served the other's entry.
  const adaptive::RescheduleRequest req{sched::DlsOptions{}.available_pes,
                                        0.0, "test"};
  EXPECT_EQ(incremental->Reschedule(fc.base, req).tier,
            adaptive::RescheduleTier::kFull);
  EXPECT_EQ(full->Reschedule(fc.base, req).tier,
            adaptive::RescheduleTier::kFull);
  EXPECT_EQ(full->Reschedule(fc.base, req).tier,
            adaptive::RescheduleTier::kExact);
  EXPECT_EQ(cache.size(), 2u);
}

// The debug oracle must be a pure observer: running the same drift
// sequence with validate_schedules + verify_incremental on and off has
// to produce bit-identical schedules, stretches and tier decisions.
// (Regression: the differential verifier once recomputed through the
// rescheduler's own PathEngine, perturbing its incremental state.)
TEST(Rescheduler, DebugOracleIsSideEffectFree) {
  std::vector<adaptive::RescheduleResult> runs[2];
  adaptive::TierCounts tiers[2];
  for (int armed = 0; armed < 2; ++armed) {
    const FacadeCase fc;
    adaptive::ReschedulerConfig config;
    config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
    config.reschedule.max_dirty_ratio = 0.9;
    config.reschedule.verify_incremental = armed == 1;
    config.validate_schedules = armed == 1;
    runtime::Metrics metrics;
    runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{},
                                 &metrics);
    config.cache = runtime::CacheBinding{&cache, 0};
    config.metrics = &metrics;
    adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis,
                                      fc.platform, config);
    const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                          "test"};
    for (int i = 0; i < 24; ++i) {
      const double p = 0.5 + 0.4 * std::sin(0.7 * i);
      runs[armed].push_back(rescheduler.Reschedule(
          WithForkAt(fc.graph, fc.base, fc.fork, p), req));
    }
    tiers[armed] = rescheduler.tier_counts();
  }

  const FacadeCase fc;
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].tier, runs[1][i].tier) << "step " << i;
    EXPECT_TRUE(SamePlacements(fc.graph, runs[0][i].schedule,
                               runs[1][i].schedule))
        << "step " << i;
    EXPECT_EQ(runs[0][i].stretch.max_path_delay_ms,
              runs[1][i].stretch.max_path_delay_ms)
        << "step " << i;
    EXPECT_EQ(runs[0][i].stretch.total_extension_ms,
              runs[1][i].stretch.total_extension_ms)
        << "step " << i;
  }
  EXPECT_EQ(tiers[0].warm_prior, tiers[1].warm_prior);
  EXPECT_EQ(tiers[0].full, tiers[1].full);
  // The armed run actually exercised the oracle on warm results.
  EXPECT_GT(tiers[1].warm_prior, 0u);
}

// A degraded request (restricted mask) must bypass the cache and the
// warm tiers entirely: the key encodes neither constraint.
TEST(Rescheduler, DegradedRequestBypassesCacheAndWarmTiers) {
  const FacadeCase fc;
  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  config.cache = runtime::CacheBinding{&cache, 0};
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                    config);

  adaptive::RescheduleRequest degraded{
      config.dls.available_pes.Without(PeId{0}), 0.0, "degraded"};
  for (int i = 0; i < 3; ++i) {
    const adaptive::RescheduleResult r =
        rescheduler.Reschedule(fc.base, degraded);
    EXPECT_EQ(r.tier, adaptive::RescheduleTier::kFull);
    for (TaskId task : fc.graph.TaskIds()) {
      EXPECT_NE(r.schedule.placement(task).pe, PeId{0});
    }
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(rescheduler.tier_counts().full, 3u);
}

// Regression: a degraded request whose path enumeration exceeds
// stretch.max_paths used to leave a half-built path store behind with
// the engine's enumeration id unchanged. The next same-shape warm
// request then rewound that store — reading the rewind copy past its
// end — and stretched on the failed shape's paths. The caller here
// catches the throw and carries on in incremental mode without a cache.
TEST(Rescheduler, FailedDegradedEnumerationIsNeverRewound) {
  tgff::RandomCtgParams params;
  params.task_count = 18;
  params.pe_count = 3;
  params.fork_count = 2;
  params.category = tgff::Category::kFlat;
  params.seed = 8;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 3.0);
  const ctg::ActivationAnalysis analysis(rc.graph);
  const ctg::BranchProbabilities probs = apps::UniformProbabilities(rc.graph);

  // One surviving PE multiplies the paths; leave room for the healthy
  // shape only.
  const arch::PeMask one_pe = arch::PeMask::WithoutBits(0b110);
  sched::DlsOptions masked;
  masked.available_pes = one_pe;
  const std::size_t healthy_paths =
      dvfs::PathSet(sched::RunDls(rc.graph, analysis, rc.platform, probs))
          .size();
  const std::size_t masked_paths =
      dvfs::PathSet(
          sched::RunDls(rc.graph, analysis, rc.platform, probs, masked))
          .size();
  ASSERT_GT(masked_paths, healthy_paths + 1);

  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
  config.stretch.max_paths = masked_paths - 1;
  runtime::Metrics metrics;
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(rc.graph, analysis, rc.platform, config);
  const adaptive::RescheduleRequest healthy{config.dls.available_pes, 0.0,
                                            "test"};
  const adaptive::RescheduleRequest degraded{one_pe, 0.0, "degraded"};

  // The control never sees the failing request.
  adaptive::Rescheduler control(rc.graph, analysis, rc.platform, config);
  const adaptive::RescheduleResult first =
      rescheduler.Reschedule(probs, healthy);
  EXPECT_EQ(first.tier, adaptive::RescheduleTier::kFull);
  control.Reschedule(probs, healthy);
  EXPECT_THROW(rescheduler.Reschedule(probs, degraded), InvalidArgument);

  const adaptive::RescheduleResult again =
      rescheduler.Reschedule(probs, healthy);
  const adaptive::RescheduleResult expected =
      control.Reschedule(probs, healthy);
  EXPECT_EQ(again.tier, adaptive::RescheduleTier::kWarmPrior);
  EXPECT_EQ(expected.tier, adaptive::RescheduleTier::kWarmPrior);
  EXPECT_EQ(again.stretch.path_count, healthy_paths);
  EXPECT_TRUE(SamePlacements(rc.graph, again.schedule, expected.schedule));
  EXPECT_EQ(again.stretch.max_path_delay_ms,
            expected.stretch.max_path_delay_ms);
  EXPECT_EQ(again.stretch.total_extension_ms,
            expected.stretch.total_extension_ms);
}

// ---------------------------------------------------------------------------
// Warm-start determinism: --jobs 1 vs --jobs 8

// Eight independent reschedulers (each with its own cache and
// warm-start basis) driven over per-instance oscillating
// traces must produce byte-identical schedules whether they run
// serially or across an 8-worker pool — the pool contract (results by
// index, not completion order) applied to the warm-start path.
TEST(Rescheduler, WarmStartDeterministicAcrossJobCounts) {
  const FacadeCase fc;
  constexpr std::size_t kInstances = 8;
  constexpr int kSteps = 12;

  struct InstanceResult {
    std::vector<sched::Schedule> schedules;
    adaptive::TierCounts tiers;
  };
  const auto run_instance = [&](std::size_t k) {
    adaptive::ReschedulerConfig config;
    config.reschedule.mode = adaptive::RescheduleMode::kIncremental;
    config.reschedule.max_dirty_ratio = 0.9;
    runtime::Metrics metrics;
    runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{},
                                 &metrics);
    config.cache = runtime::CacheBinding{&cache, k};
    config.metrics = &metrics;
    adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                      config);
    const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                          "test"};
    InstanceResult out;
    for (int i = 0; i < kSteps; ++i) {
      const double p =
          0.5 + 0.4 * std::sin(0.7 * i + 0.3 * static_cast<double>(k));
      out.schedules.push_back(
          rescheduler
              .Reschedule(WithForkAt(fc.graph, fc.base, fc.fork, p), req)
              .schedule);
    }
    out.tiers = rescheduler.tier_counts();
    return out;
  };

  // --jobs 1 reference: strictly serial.
  std::vector<InstanceResult> serial;
  serial.reserve(kInstances);
  for (std::size_t k = 0; k < kInstances; ++k) {
    serial.push_back(run_instance(k));
  }
  // The trace must exercise the warm tiers, or this test proves nothing.
  ASSERT_GT(serial[0].tiers.warm_prior, 0u);

  // --jobs 8: same instances across a worker pool.
  std::vector<InstanceResult> parallel(kInstances);
  runtime::Pool pool(8);
  pool.ParallelFor(kInstances,
                   [&](std::size_t k) { parallel[k] = run_instance(k); });

  for (std::size_t k = 0; k < kInstances; ++k) {
    ASSERT_EQ(serial[k].schedules.size(), parallel[k].schedules.size());
    EXPECT_EQ(serial[k].tiers.total(), parallel[k].tiers.total());
    EXPECT_EQ(serial[k].tiers.warm_prior, parallel[k].tiers.warm_prior);
    for (int i = 0; i < kSteps; ++i) {
      EXPECT_TRUE(SamePlacements(fc.graph, serial[k].schedules[i],
                                 parallel[k].schedules[i]))
          << "instance " << k << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Options validation

TEST(RescheduleOptionsValidate, RejectsBadKnobs) {
  adaptive::RescheduleOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.max_dirty_ratio = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.max_dirty_ratio = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(RescheduleOptionsValidate, ModeNamesRoundTrip) {
  using adaptive::RescheduleMode;
  for (const RescheduleMode mode :
       {RescheduleMode::kFull, RescheduleMode::kIncremental}) {
    EXPECT_EQ(adaptive::ParseRescheduleMode(
                  adaptive::RescheduleModeName(mode)),
              mode);
  }
  EXPECT_FALSE(adaptive::ParseRescheduleMode("warp").has_value());
  EXPECT_FALSE(adaptive::ParseRescheduleMode("table").has_value());
}

TEST(ReschedulerConfigValidate, RejectsUnknownPolicy) {
  const FacadeCase fc;
  adaptive::ReschedulerConfig config;
  config.policy = "no-such-policy";
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_THROW(adaptive::Rescheduler(fc.graph, *fc.analysis, fc.platform,
                                     config),
               actg::Error);
}

}  // namespace
}  // namespace actg
