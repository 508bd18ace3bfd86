#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <thread>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "dvfs/stretch.h"
#include "apps/fig1_example.h"
#include "dvfs/engine_pool.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "runtime/metrics.h"
#include "runtime/schedule_cache.h"
#include "sim/energy.h"
#include "tgff/random_ctg.h"
#include "trace/generators.h"
#include "util/error.h"

namespace actg::adaptive {
namespace {

class AdaptiveFixture : public ::testing::Test {
 protected:
  AdaptiveFixture() : ex_(apps::MakeFig1Example()), analysis_(ex_.graph) {}

  AdaptiveController MakeController(double threshold,
                                    std::size_t window = 8) {
    AdaptiveOptions options;
    options.window_length = window;
    options.threshold = threshold;
    return AdaptiveController(ex_.graph, analysis_, ex_.platform,
                              ex_.probs, options);
  }

  ctg::BranchAssignment Assign(int a, int b) const {
    ctg::BranchAssignment asg(ex_.graph.task_count());
    if (a >= 0) asg.Set(ex_.tau(3), a);
    if (b >= 0) asg.Set(ex_.tau(5), b);
    return asg;
  }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
};

TEST_F(AdaptiveFixture, StartsWithInitialProbabilitiesAndZeroCalls) {
  AdaptiveController ctrl = MakeController(0.1);
  EXPECT_EQ(ctrl.reschedule_count(), 0u);
  EXPECT_NEAR(ctrl.in_use_probabilities().Outcome(ex_.tau(3), 0), 0.4,
              1e-12);
}

TEST_F(AdaptiveFixture, NoAdaptationBeforeWindowFills) {
  AdaptiveController ctrl = MakeController(0.05, /*window=*/16);
  for (int i = 0; i < 15; ++i) ctrl.ProcessInstance(Assign(1, 1));
  EXPECT_EQ(ctrl.reschedule_count(), 0u);
}

TEST_F(AdaptiveFixture, AdaptsWhenDistributionShifts) {
  // Initial prob(a1)=0.4; feed pure a2 -> windowed prob(a1)=0, drift 0.4.
  AdaptiveController ctrl = MakeController(0.2, /*window=*/8);
  for (int i = 0; i < 10; ++i) ctrl.ProcessInstance(Assign(1, 0));
  EXPECT_GE(ctrl.reschedule_count(), 1u);
  EXPECT_NEAR(ctrl.in_use_probabilities().Outcome(ex_.tau(3), 0), 0.0,
              1e-12);
}

TEST_F(AdaptiveFixture, NoAdaptationWhenTraceMatchesProfile) {
  // Deterministic alternation approximating prob(a1)=0.4 within the
  // threshold: pattern of 2 a1 in every 5.
  AdaptiveController ctrl = MakeController(0.25, /*window=*/10);
  for (int i = 0; i < 60; ++i) {
    ctrl.ProcessInstance(Assign(i % 5 < 2 ? 0 : 1, i % 2));
  }
  EXPECT_EQ(ctrl.reschedule_count(), 0u);
}

TEST_F(AdaptiveFixture, LowerThresholdNeverFewerCalls) {
  util::Random rng(31);
  std::vector<ctg::BranchAssignment> instances;
  for (int i = 0; i < 150; ++i) {
    // Slow drift from mostly-a1 to mostly-a2.
    const double p_a1 = 0.9 - 0.8 * i / 150.0;
    instances.push_back(
        Assign(rng.Bernoulli(p_a1) ? 0 : 1, rng.Bernoulli(0.5) ? 0 : 1));
  }
  AdaptiveController loose = MakeController(0.4);
  AdaptiveController tight = MakeController(0.05);
  for (const auto& asg : instances) {
    loose.ProcessInstance(asg);
    tight.ProcessInstance(asg);
  }
  EXPECT_GE(tight.reschedule_count(), loose.reschedule_count());
  EXPECT_GE(tight.reschedule_count(), 1u);
}

TEST_F(AdaptiveFixture, RescheduleKeepsDeadline) {
  AdaptiveController ctrl = MakeController(0.1, /*window=*/6);
  for (int i = 0; i < 40; ++i) {
    const auto result = ctrl.ProcessInstance(Assign(i % 2, (i / 2) % 2));
    EXPECT_TRUE(result.deadline_met) << "instance " << i;
  }
  ctrl.current_schedule().Validate();
}

TEST_F(AdaptiveFixture, InvalidThresholdRejected) {
  AdaptiveOptions options;
  options.threshold = 0.0;
  EXPECT_THROW(AdaptiveController(ex_.graph, analysis_, ex_.platform,
                                  ex_.probs, options),
               InvalidArgument);
  options.threshold = 1.5;
  EXPECT_THROW(AdaptiveController(ex_.graph, analysis_, ex_.platform,
                                  ex_.probs, options),
               InvalidArgument);
}

TEST_F(AdaptiveFixture, RunAdaptiveMatchesManualLoop) {
  trace::BranchTrace trace(ex_.graph.task_count());
  util::Random rng(5);
  for (int i = 0; i < 50; ++i) {
    trace.Append(
        Assign(rng.Bernoulli(0.5) ? 0 : 1, rng.Bernoulli(0.5) ? 0 : 1));
  }
  AdaptiveController a = MakeController(0.1);
  AdaptiveController b = MakeController(0.1);
  const sim::RunSummary via_helper = RunAdaptive(a, trace);
  sim::RunSummary manual;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    manual.Add(b.ProcessInstance(trace.At(i)));
  }
  EXPECT_EQ(via_helper.instances, manual.instances);
  EXPECT_NEAR(via_helper.total_energy_mj, manual.total_energy_mj, 1e-9);
  EXPECT_EQ(a.reschedule_count(), b.reschedule_count());
}

TEST_F(AdaptiveFixture, NestedForkOnlyObservedWhenActive) {
  // Feed only a1 instances: fork B never executes, so its window stays
  // empty and its in-use probability must remain the initial one.
  AdaptiveController ctrl = MakeController(0.1, /*window=*/4);
  for (int i = 0; i < 20; ++i) ctrl.ProcessInstance(Assign(0, 1));
  EXPECT_EQ(ctrl.profiler().Count(ex_.tau(5)), 0u);
  EXPECT_NEAR(ctrl.in_use_probabilities().Outcome(ex_.tau(5), 0), 0.5,
              1e-12);
}


TEST_F(AdaptiveFixture, MaxThresholdDegeneratesToOnlineAlgorithm) {
  // With the threshold at its maximum the detector can never fire, so
  // the adaptive controller must behave exactly like the static online
  // algorithm built from the same profile.
  sched::Schedule online =
      sched::RunDls(ex_.graph, analysis_, ex_.platform, ex_.probs);
  dvfs::StretchOnline(online, ex_.probs);

  AdaptiveController ctrl = MakeController(1.0, /*window=*/4);
  util::Random rng(23);
  double adaptive_energy = 0.0, online_energy = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto asg =
        Assign(rng.Bernoulli(0.9) ? 1 : 0, rng.Bernoulli(0.9) ? 1 : 0);
    adaptive_energy += ctrl.ProcessInstance(asg).energy_mj;
    online_energy += sim::ExecuteInstance(online, asg).energy_mj;
  }
  EXPECT_EQ(ctrl.reschedule_count(), 0u);
  EXPECT_NEAR(adaptive_energy, online_energy, 1e-9);
}

TEST_F(AdaptiveFixture, UnitThresholdIsANeverAdaptSentinel) {
  // Regression for the threshold == 1.0 boundary. The drift detector's
  // distance is a maximum of absolute probability differences, so it
  // never exceeds 1.0 and the strict comparison `distance > threshold`
  // makes 1.0 a documented never-adapt sentinel. Pin that with the
  // largest distance the detector can produce: an in-use profile
  // certain of outcome 0 driven by a window of pure outcome 1, giving
  // distance exactly 1.0.
  ctg::BranchProbabilities certain(ex_.graph.task_count());
  certain.Set(ex_.tau(3), {1.0, 0.0});
  certain.Set(ex_.tau(5), {1.0, 0.0});
  AdaptiveOptions options;
  options.window_length = 4;

  options.threshold = 1.0;
  AdaptiveController sentinel(ex_.graph, analysis_, ex_.platform,
                              certain, options);
  for (int i = 0; i < 20; ++i) sentinel.ProcessInstance(Assign(1, 1));
  EXPECT_EQ(sentinel.reschedule_count(), 0u);

  // Any threshold strictly below 1.0 fires on the same drive.
  options.threshold = 0.99;
  AdaptiveController firing(ex_.graph, analysis_, ex_.platform, certain,
                            options);
  for (int i = 0; i < 20; ++i) firing.ProcessInstance(Assign(1, 1));
  EXPECT_GE(firing.reschedule_count(), 1u);
}

TEST_F(AdaptiveFixture, CandidateAdoptionNeverRaisesExpectedEnergy) {
  // After any re-schedule, the controller's current schedule must be at
  // least as good as a freshly built one under its own in-use estimate
  // (the adopt-if-better guard).
  AdaptiveController ctrl = MakeController(0.1, /*window=*/6);
  util::Random rng(29);
  for (int i = 0; i < 120; ++i) {
    const double p = i < 60 ? 0.9 : 0.1;  // regime flip mid-run
    ctrl.ProcessInstance(
        Assign(rng.Bernoulli(p) ? 0 : 1, rng.Bernoulli(p) ? 0 : 1));
  }
  EXPECT_GE(ctrl.reschedule_count(), 1u);
  sched::Schedule fresh = sched::RunDls(
      ex_.graph, analysis_, ex_.platform, ctrl.in_use_probabilities());
  dvfs::StretchOnline(fresh, ctrl.in_use_probabilities());
  EXPECT_LE(sim::ExpectedEnergy(ctrl.current_schedule(),
                                ctrl.in_use_probabilities()),
            sim::ExpectedEnergy(fresh, ctrl.in_use_probabilities()) +
                1e-9);
}

// ---------------------------------------------------------------------------
// End-to-end behaviour on random CTGs: adaptation beats a misprofiled
// static schedule on drifting workloads.

TEST(AdaptiveRandom, BeatsMisprofiledOnlineOnDriftingTraces) {
  double online_total = 0.0, adaptive_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    tgff::RandomCtgParams params;
    params.task_count = 20;
    params.fork_count = 2;
    params.category = tgff::Category::kForkJoin;
    params.seed = seed;
    tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
    apps::AssignDeadline(rc.graph, rc.platform, 1.3);
    const ctg::ActivationAnalysis analysis(rc.graph);

    // Drifting trace with equal long-run averages.
    trace::TraceGenerator gen(rc.graph);
    int k = 0;
    for (TaskId f : rc.graph.ForkIds()) {
      trace::SinusoidProcess::Params sp;
      sp.amplitude = 0.45;
      sp.period = 180.0 + 60.0 * k++;
      gen.SetProcess(f, std::make_unique<trace::SinusoidProcess>(sp));
    }
    util::Random rng(seed * 13);
    const trace::BranchTrace trace = gen.Generate(600, rng);

    // Misprofiled probabilities (heavily skewed).
    ctg::BranchProbabilities biased(rc.graph.task_count());
    for (TaskId f : rc.graph.ForkIds()) biased.Set(f, {0.95, 0.05});

    sched::Schedule online = sched::RunDls(rc.graph, analysis,
                                           rc.platform, biased);
    dvfs::StretchOnline(online, biased);
    online_total += sim::RunTrace(online, trace).total_energy_mj;

    AdaptiveOptions options;
    options.window_length = 20;
    options.threshold = 0.1;
    AdaptiveController ctrl(rc.graph, analysis, rc.platform, biased,
                            options);
    const sim::RunSummary summary = RunAdaptive(ctrl, trace);
    EXPECT_EQ(summary.deadline_misses, 0u);
    EXPECT_GE(ctrl.reschedule_count(), 5u);
    adaptive_total += summary.total_energy_mj;
  }
  EXPECT_LT(adaptive_total, online_total);
}

// ---------------------------------------------------------------------------
// Metrics: each controller reports into the registry it was given.

struct UnitCounts {
  TierCounts tiers;
  std::size_t reschedule_calls = 0;
};

/// Drives one controller with a private cache over a drifting trace,
/// recording into \p metrics.
UnitCounts DriveController(std::uint64_t seed, RescheduleMode mode,
                           runtime::Metrics& metrics) {
  tgff::RandomCtgParams params;
  params.task_count = 20;
  params.fork_count = 2;
  params.category = tgff::Category::kForkJoin;
  params.seed = seed;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.3);
  const ctg::ActivationAnalysis analysis(rc.graph);
  trace::TraceGenerator gen(rc.graph);
  for (TaskId f : rc.graph.ForkIds()) {
    trace::SinusoidProcess::Params sp;
    sp.amplitude = 0.45;
    sp.period = 120.0;
    gen.SetProcess(f, std::make_unique<trace::SinusoidProcess>(sp));
  }
  util::Random rng(seed * 13);
  const trace::BranchTrace trace = gen.Generate(400, rng);

  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);
  AdaptiveOptions options;
  options.window_length = 20;
  options.threshold = 0.1;
  options.reschedule.mode = mode;
  options.reschedule.max_dirty_ratio = 0.9;
  options.cache = runtime::CacheBinding{&cache, 0};
  options.metrics = &metrics;
  AdaptiveController ctrl(rc.graph, analysis, rc.platform,
                          apps::UniformProbabilities(rc.graph), options);
  RunAdaptive(ctrl, trace);
  return UnitCounts{ctrl.rescheduler().tier_counts(),
                    ctrl.reschedule_count()};
}

// Two controllers with private registries, driven on two threads (the
// TSan job runs this binary): each registry's layer counts match its own
// controller's tiers, so no layer reports anywhere else.
TEST(AdaptiveMetrics, ConcurrentControllersFillOnlyTheirOwnRegistries) {
  runtime::Metrics metrics[2];
  UnitCounts counts[2];
  std::thread other([&] {
    counts[1] = DriveController(2, RescheduleMode::kIncremental, metrics[1]);
  });
  counts[0] = DriveController(1, RescheduleMode::kFull, metrics[0]);
  other.join();

  EXPECT_GT(counts[1].tiers.warm_prior, 0u);
  for (int u = 0; u < 2; ++u) {
    SCOPED_TRACE(u);
    const TierCounts& tiers = counts[u].tiers;
    const std::uint64_t computed = tiers.full + tiers.warm_prior;
    ASSERT_GT(computed, 1u);
    EXPECT_EQ(metrics[u].counter("sched.dls.calls"), computed);
    EXPECT_EQ(metrics[u].counter("dvfs.stretch.calls"), computed);
    EXPECT_GE(metrics[u].counter("dvfs.enumerate.calls"), 1u);
    EXPECT_LE(metrics[u].counter("dvfs.enumerate.calls"), computed);
    EXPECT_EQ(metrics[u].counter("adaptive.reschedule.calls"),
              tiers.total());
    EXPECT_EQ(metrics[u].counter("adaptive.reschedule_calls"),
              counts[u].reschedule_calls);
  }
}

// ---------------------------------------------------------------------------
// Lease contract: which pooled engine a reschedule leases changes no
// result.

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void ExpectSameSchedule(const sched::Schedule& want,
                        const sched::Schedule& got) {
  const ctg::Ctg& graph = want.graph();
  for (TaskId task : graph.TaskIds()) {
    const sched::TaskPlacement& a = want.placement(task);
    const sched::TaskPlacement& b = got.placement(task);
    EXPECT_EQ(a.pe, b.pe) << "task " << task.value;
    EXPECT_EQ(a.order_index, b.order_index) << "task " << task.value;
    EXPECT_EQ(Bits(a.speed_ratio), Bits(b.speed_ratio))
        << "task " << task.value;
    EXPECT_EQ(Bits(a.start_ms), Bits(b.start_ms)) << "task " << task.value;
    EXPECT_EQ(Bits(a.finish_ms), Bits(b.finish_ms)) << "task " << task.value;
  }
  for (EdgeId edge : graph.EdgeIds()) {
    EXPECT_EQ(Bits(want.comm(edge).start_ms), Bits(got.comm(edge).start_ms));
    EXPECT_EQ(Bits(want.comm(edge).finish_ms),
              Bits(got.comm(edge).finish_ms));
  }
  EXPECT_EQ(want.pseudo_edges().size(), got.pseudo_edges().size());
}

// One model of the pooled-lease test: a random CTG, its analysis, a
// drifting trace and a fault plan with overruns and dropouts.
struct LeaseCase {
  tgff::RandomCase rc;
  std::unique_ptr<ctg::ActivationAnalysis> analysis;
  trace::BranchTrace trace;
  std::unique_ptr<faults::Injector> injector;

  LeaseCase(tgff::Category category, int tasks, std::uint64_t seed)
      : rc([&] {
          tgff::RandomCtgParams params;
          params.task_count = tasks;
          params.fork_count = 3;
          params.category = category;
          params.seed = seed;
          return tgff::MakeRandomCtg(params).value();
        }()) {
    apps::AssignDeadline(rc.graph, rc.platform, 1.3);
    analysis = std::make_unique<ctg::ActivationAnalysis>(rc.graph);
    trace::TraceGenerator gen(rc.graph);
    for (TaskId f : rc.graph.ForkIds()) {
      trace::SinusoidProcess::Params sp;
      sp.amplitude = 0.45;
      sp.period = 90.0;
      gen.SetProcess(f, std::make_unique<trace::SinusoidProcess>(sp));
    }
    util::Random rng(72 + seed);
    trace = gen.Generate(500, rng);
    faults::FaultPlan plan;
    plan.overrun.probability = 0.15;
    plan.overrun.min_factor = 1.2;
    plan.overrun.max_factor = 1.8;
    plan.dropout.probability = 0.05;
    plan.dropout.duration = 3;
    plan.dropout.rerun_penalty = 2.0;
    injector = std::make_unique<faults::Injector>(plan, rc.graph,
                                                  rc.platform, 16 + seed);
  }
};

// Controllers of two different models share one engine pool and run
// interleaved instance by instance, so every lease re-points the one
// engine at the other model; each is compared with a controller of the
// same model that has a private pool. Over faulted, drifting traces with
// the ladder on, every instance result, every adopted schedule (bitwise)
// and every tier and ladder count must agree, in both reschedule modes
// (verify engine armed in incremental mode).
TEST(AdaptivePool, ControllersOfTwoModelsSharingOnePoolMatchPrivatePools) {
  const LeaseCase cases[2] = {
      LeaseCase(tgff::Category::kForkJoin, 20, 5),
      LeaseCase(tgff::Category::kForkJoin, 22, 7)};
  ASSERT_NE(cases[0].rc.graph.task_count(), cases[1].rc.graph.task_count());

  for (const RescheduleMode mode :
       {RescheduleMode::kFull, RescheduleMode::kIncremental}) {
    SCOPED_TRACE(RescheduleModeName(mode));
    dvfs::EnginePool shared;
    // Per model: [0] a private pool, [1] the shared one; each controller
    // has its own cache.
    runtime::ScheduleCache caches[2][2];
    std::unique_ptr<AdaptiveController> units[2][2];
    for (int m = 0; m < 2; ++m) {
      const LeaseCase& c = cases[m];
      for (int pooled = 0; pooled < 2; ++pooled) {
        AdaptiveOptions options;
        options.window_length = 20;
        options.threshold = 0.1;
        options.reschedule.mode = mode;
        options.reschedule.max_dirty_ratio = 0.9;
        options.reschedule.verify_incremental =
            mode == RescheduleMode::kIncremental;
        options.cache = runtime::CacheBinding{&caches[m][pooled], 0};
        options.degrade.enabled = true;
        options.engines = pooled == 1 ? &shared : nullptr;
        units[m][pooled] = std::make_unique<AdaptiveController>(
            c.rc.graph, *c.analysis, c.rc.platform,
            apps::UniformProbabilities(c.rc.graph), options);
      }
    }
    for (std::size_t i = 0; i < cases[0].trace.size(); ++i) {
      for (int m = 0; m < 2; ++m) {
        SCOPED_TRACE("model " + std::to_string(m) + " instance " +
                     std::to_string(i));
        const LeaseCase& c = cases[m];
        const faults::InstanceFaults f = c.injector->ForInstance(i);
        ctg::BranchAssignment assignment = c.trace.At(i);
        c.injector->ApplyDrift(i, assignment);
        AdaptiveController& alone = *units[m][0];
        AdaptiveController& pooled = *units[m][1];
        const sim::InstanceResult a = alone.ProcessInstance(assignment, &f);
        const sim::InstanceResult b = pooled.ProcessInstance(assignment, &f);
        ASSERT_EQ(Bits(a.energy_mj), Bits(b.energy_mj));
        ASSERT_EQ(Bits(a.makespan_ms), Bits(b.makespan_ms));
        ASSERT_EQ(Bits(a.overrun_ms), Bits(b.overrun_ms));
        ASSERT_EQ(a.deadline_met, b.deadline_met);
        ASSERT_EQ(a.active_tasks, b.active_tasks);
        ASSERT_EQ(a.failed_pe_hits, b.failed_pe_hits);
        ExpectSameSchedule(alone.current_schedule(),
                           pooled.current_schedule());
        ASSERT_FALSE(::testing::Test::HasFailure());
      }
    }
    // Run one after the other, the controllers never held two leases at
    // once.
    EXPECT_EQ(shared.size(), 1u);
    for (int m = 0; m < 2; ++m) {
      SCOPED_TRACE("model " + std::to_string(m));
      const AdaptiveController& alone = *units[m][0];
      const AdaptiveController& pooled = *units[m][1];
      const TierCounts& want = alone.rescheduler().tier_counts();
      const TierCounts& got = pooled.rescheduler().tier_counts();
      EXPECT_EQ(got.exact, want.exact);
      EXPECT_EQ(got.warm_prior, want.warm_prior);
      EXPECT_EQ(got.full, want.full);
      EXPECT_EQ(got.incremental_fallbacks, want.incremental_fallbacks);
      EXPECT_EQ(pooled.reschedule_count(), alone.reschedule_count());
      EXPECT_EQ(pooled.oob_reschedule_count(), alone.oob_reschedule_count());
      EXPECT_EQ(pooled.escalation_count(), alone.escalation_count());
      EXPECT_EQ(pooled.recovery_count(), alone.recovery_count());
      // The run reaches every rung a foreign lease could disturb.
      EXPECT_GT(want.exact, 0u);
      EXPECT_GT(want.full, 0u);
      EXPECT_GT(alone.oob_reschedule_count(), 0u);
      EXPECT_GT(alone.reschedule_count(), 5u);
      if (mode == RescheduleMode::kIncremental) {
        EXPECT_GT(want.warm_prior, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace actg::adaptive
