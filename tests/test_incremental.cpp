#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "check/fuzz.h"
#include "check/validator.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "dvfs/paths.h"
#include "dvfs/schedule_table.h"
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
  EXPECT_GT(tiers.warm_cache + tiers.warm_prior, 0u);
  EXPECT_EQ(tiers.total(), 24u);
  // The verifier ran on every warm-started result and recorded the
  // energy drift of the feasible-equivalent schedule.
  EXPECT_EQ(metrics.samples("resched.verify.energy_ratio"),
            tiers.warm_cache + tiers.warm_prior);
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
  EXPECT_EQ(tiers[0].warm_cache, tiers[1].warm_cache);
  EXPECT_EQ(tiers[0].warm_prior, tiers[1].warm_prior);
  EXPECT_EQ(tiers[0].full, tiers[1].full);
  // The armed run actually exercised the oracle on warm results.
  EXPECT_GT(tiers[1].warm_cache + tiers[1].warm_prior, 0u);
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
// Tier-2 warm-start determinism: --jobs 1 vs --jobs 8

// Eight independent reschedulers (each with its own cache, so the
// tier-2 near-hit path engages) driven over per-instance oscillating
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
  ASSERT_GT(serial[0].tiers.warm_cache + serial[0].tiers.warm_prior, 0u);

  // --jobs 8: same instances across a worker pool.
  std::vector<InstanceResult> parallel(kInstances);
  runtime::Pool pool(8);
  pool.ParallelFor(kInstances,
                   [&](std::size_t k) { parallel[k] = run_instance(k); });

  for (std::size_t k = 0; k < kInstances; ++k) {
    ASSERT_EQ(serial[k].schedules.size(), parallel[k].schedules.size());
    EXPECT_EQ(serial[k].tiers.total(), parallel[k].tiers.total());
    EXPECT_EQ(serial[k].tiers.warm_cache, parallel[k].tiers.warm_cache);
    EXPECT_EQ(serial[k].tiers.warm_prior, parallel[k].tiers.warm_prior);
    for (int i = 0; i < kSteps; ++i) {
      EXPECT_TRUE(SamePlacements(fc.graph, serial[k].schedules[i],
                                 parallel[k].schedules[i]))
          << "instance " << k << " step " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Table mode

// Select must agree with a brute-force nearest-lattice scan under the
// documented metric (max-abs over the flattened vector, lowest index on
// ties), and a query *at* a lattice point must materialize that entry's
// schedule bit-identically (no interpolation at distance zero).
TEST(ScheduleTableMode, SelectMatchesBruteForceNearestLattice) {
  const FacadeCase fc;
  dvfs::ScheduleTableOptions options;
  options.points_per_fork = 3;
  const dvfs::ScheduleTable table(fc.graph, *fc.analysis, fc.platform,
                                  options);
  ASSERT_GT(table.size(), 0u);

  const auto distance = [&](const ctg::BranchProbabilities& probs,
                            const dvfs::ScheduleTableEntry& entry) {
    double dist = 0.0;
    std::size_t i = 0;
    for (TaskId fork : fc.graph.ForkIds()) {
      for (int o = 0; o < fc.graph.OutcomeCount(fork); ++o) {
        dist = std::max(dist,
                        std::abs(probs.Outcome(fork, o) - entry.flat[i]));
        ++i;
      }
    }
    return dist;
  };

  util::Random rng(11);
  for (int q = 0; q < 64; ++q) {
    ctg::BranchProbabilities probs = fc.base;
    for (TaskId fork : fc.graph.ForkIds()) {
      probs = WithForkAt(fc.graph, probs, fork, rng.Uniform(0.05, 0.95));
    }
    std::size_t best = 0;
    double best_dist = distance(probs, table.entry(0));
    for (std::size_t i = 1; i < table.size(); ++i) {
      const double dist = distance(probs, table.entry(i));
      if (dist < best_dist) {  // strict: ties keep the lowest index
        best_dist = dist;
        best = i;
      }
    }
    EXPECT_EQ(table.Select(probs), best) << "query " << q;
  }

  // At a lattice point the materialized schedule is the entry itself.
  for (std::size_t i = 0; i < table.size(); i += 3) {
    const dvfs::MaterializedSchedule m =
        table.Materialize(table.entry(i).probs);
    EXPECT_EQ(m.entry_index, i);
    EXPECT_FALSE(m.interpolated);
    EXPECT_TRUE(
        SamePlacements(fc.graph, m.schedule, table.entry(i).schedule));
  }
}

// Off-lattice queries may interpolate; the blend must stay
// deadline-feasible and oracle-valid (the convexity argument of
// schedule_table.h).
TEST(ScheduleTableMode, MaterializedSchedulesStayFeasible) {
  const FacadeCase fc;
  dvfs::ScheduleTableOptions options;
  options.points_per_fork = 3;
  const dvfs::ScheduleTable table(fc.graph, *fc.analysis, fc.platform,
                                  options);

  util::Random rng(12);
  for (int q = 0; q < 16; ++q) {
    ctg::BranchProbabilities probs = fc.base;
    for (TaskId fork : fc.graph.ForkIds()) {
      probs = WithForkAt(fc.graph, probs, fork, rng.Uniform(0.05, 0.95));
    }
    const dvfs::MaterializedSchedule m = table.Materialize(probs);
    check::Expectations expect;
    expect.deadline_feasible = true;
    ASSERT_NO_THROW(check::Validate(m.schedule, expect)) << "query " << q;
  }
}

// The facade's table tier agrees with querying the table directly.
TEST(ScheduleTableMode, FacadeTableTierMatchesDirectMaterialize) {
  const FacadeCase fc;
  dvfs::ScheduleTableOptions toptions;
  toptions.points_per_fork = 3;
  const dvfs::ScheduleTable table(fc.graph, *fc.analysis, fc.platform,
                                  toptions);

  adaptive::ReschedulerConfig config;
  config.reschedule.mode = adaptive::RescheduleMode::kTable;
  config.reschedule.table = &table;
  runtime::Metrics metrics;
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(fc.graph, *fc.analysis, fc.platform,
                                    config);
  const adaptive::RescheduleRequest req{config.dls.available_pes, 0.0,
                                        "test"};

  const ctg::BranchProbabilities probs =
      WithForkAt(fc.graph, fc.base, fc.fork, 0.7);
  const adaptive::RescheduleResult r = rescheduler.Reschedule(probs, req);
  EXPECT_EQ(r.tier, adaptive::RescheduleTier::kTable);
  const dvfs::MaterializedSchedule m = table.Materialize(probs);
  EXPECT_TRUE(SamePlacements(fc.graph, r.schedule, m.schedule));
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
  options.max_dirty_ratio = 0.5;

  options.mode = adaptive::RescheduleMode::kTable;
  EXPECT_FALSE(options.Validate().ok()) << "table mode needs a table";
}

TEST(RescheduleOptionsValidate, ModeNamesRoundTrip) {
  using adaptive::RescheduleMode;
  for (const RescheduleMode mode :
       {RescheduleMode::kFull, RescheduleMode::kIncremental,
        RescheduleMode::kTable}) {
    EXPECT_EQ(adaptive::ParseRescheduleMode(
                  adaptive::RescheduleModeName(mode)),
              mode);
  }
  EXPECT_FALSE(adaptive::ParseRescheduleMode("warp").has_value());
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

TEST(ScheduleTableOptionsValidate, RejectsDegenerateLattice) {
  dvfs::ScheduleTableOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.points_per_fork = 1;
  EXPECT_FALSE(options.Validate().ok());
  options.points_per_fork = 5;
  options.max_entries = 0;
  EXPECT_FALSE(options.Validate().ok());
}

}  // namespace
}  // namespace actg
