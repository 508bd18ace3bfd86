#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "runtime/metrics.h"
#include "sched/dls.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg::dvfs {
namespace {

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : ex_(apps::MakeFig1Example()),
        analysis_(ex_.graph),
        probs_(apps::UniformProbabilities(ex_.graph)) {}

  sched::Schedule Scheduled() const {
    return sched::RunDls(ex_.graph, analysis_, ex_.platform, probs_);
  }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
  ctg::BranchProbabilities probs_;
};

void ExpectSameStretch(const sched::Schedule& a, const sched::Schedule& b) {
  ASSERT_EQ(a.graph().task_count(), b.graph().task_count());
  for (TaskId task : a.graph().TaskIds()) {
    EXPECT_EQ(a.placement(task).pe, b.placement(task).pe);
    EXPECT_DOUBLE_EQ(a.placement(task).speed_ratio,
                     b.placement(task).speed_ratio);
  }
  EXPECT_DOUBLE_EQ(a.Makespan(), b.Makespan());
}

TEST_F(PolicyFixture, RegistryListsBuiltins) {
  const std::vector<std::string> names = PolicyNames();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names,
            (std::vector<std::string>{"nlp", "online", "proportional"}));
  for (const char* name : {"nlp", "online", "proportional"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
    const Policy* policy = FindPolicy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->Name(), name);
    EXPECT_EQ(&GetPolicy(name), policy);
  }
}

TEST_F(PolicyFixture, UnknownPolicyIsReported) {
  EXPECT_EQ(FindPolicy("simulated-annealing"), nullptr);
  try {
    GetPolicy("simulated-annealing");
    FAIL() << "GetPolicy should throw on an unknown name";
  } catch (const InvalidArgument& e) {
    // The error lists the registered names so CLI users can recover.
    EXPECT_NE(std::string(e.what()).find("online"), std::string::npos);
  }
  sched::Schedule s = Scheduled();
  EXPECT_THROW(ApplyPolicy("simulated-annealing", s, probs_),
               InvalidArgument);
}

TEST_F(PolicyFixture, PoliciesMatchLegacyFreeFunctions) {
  // The registry is a re-packaging, not a re-implementation: each policy
  // must stretch bit-identically to the free function it wraps.
  struct Pair {
    const char* name;
    StretchStats (*legacy)(sched::Schedule&,
                           const ctg::BranchProbabilities&);
  };
  const Pair pairs[] = {
      {"online",
       [](sched::Schedule& s, const ctg::BranchProbabilities& p) {
         return StretchOnline(s, p);
       }},
      {"proportional",
       [](sched::Schedule& s, const ctg::BranchProbabilities&) {
         return StretchProportional(s);
       }},
      {"nlp",
       [](sched::Schedule& s, const ctg::BranchProbabilities& p) {
         return StretchNlp(s, p);
       }},
  };
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.name);
    sched::Schedule via_policy = Scheduled();
    sched::Schedule via_legacy = Scheduled();
    const StretchStats policy_stats =
        ApplyPolicy(pair.name, via_policy, probs_);
    const StretchStats legacy_stats = pair.legacy(via_legacy, probs_);
    ExpectSameStretch(via_policy, via_legacy);
    EXPECT_EQ(policy_stats.path_count, legacy_stats.path_count);
    EXPECT_DOUBLE_EQ(policy_stats.total_extension_ms,
                     legacy_stats.total_extension_ms);
    EXPECT_DOUBLE_EQ(policy_stats.max_path_delay_ms,
                     legacy_stats.max_path_delay_ms);
  }
}

TEST_F(PolicyFixture, ApplyPolicyWithExplicitEngineMatchesTransient) {
  PathEngine engine(ex_.graph, analysis_, ex_.platform);
  sched::Schedule pooled = Scheduled();
  sched::Schedule transient = Scheduled();
  ApplyPolicy("online", pooled, probs_, {}, &engine);
  ApplyPolicy("online", transient, probs_);
  ExpectSameStretch(pooled, transient);
}

TEST_F(PolicyFixture, RunWithPolicyMatchesNamedWrappers) {
  const sched::Schedule generic = RunWithPolicy(
      "online", ex_.graph, analysis_, ex_.platform, probs_);
  const sched::Schedule wrapper =
      RunOnlineAlgorithm(ex_.graph, analysis_, ex_.platform, probs_);
  ExpectSameStretch(generic, wrapper);
  EXPECT_THROW(RunWithPolicy("nope", ex_.graph, analysis_, ex_.platform,
                             probs_),
               InvalidArgument);
}

TEST_F(PolicyFixture, AdaptiveControllerRejectsUnknownPolicy) {
  adaptive::AdaptiveOptions options;
  options.policy = "nope";
  EXPECT_TRUE(static_cast<bool>(options.Validate()));
  EXPECT_THROW(adaptive::AdaptiveController(ex_.graph, analysis_,
                                            ex_.platform, probs_, options),
               InvalidArgument);
}

TEST_F(PolicyFixture, AdaptiveControllerHonorsSelectedPolicy) {
  // A proportional-policy controller must produce the proportional
  // stretch on its initial schedule.
  adaptive::AdaptiveOptions options;
  options.policy = "proportional";
  adaptive::AdaptiveController controller(ex_.graph, analysis_,
                                          ex_.platform, probs_, options);
  sched::Schedule expected = Scheduled();
  StretchProportional(expected);
  ExpectSameStretch(controller.current_schedule(), expected);
}

// ---------------------------------------------------------------------------
// Nominal speed floor: Apply skips the stretch that the clamp overrides

/// \p base with every PE restricted to the discrete speed \p levels.
arch::Platform WithLevels(const arch::Platform& base, const ctg::Ctg& graph,
                          const std::vector<double>& levels) {
  arch::PlatformBuilder builder(graph.task_count(), base.pe_count());
  for (TaskId task : graph.TaskIds()) {
    for (PeId pe : base.PeIds()) {
      builder.SetTaskCost(task, pe, base.Wcet(task, pe),
                          base.Energy(task, pe));
    }
  }
  for (PeId pe : base.PeIds()) builder.SetSpeedLevels(pe, levels);
  return std::move(builder).Build();
}

/// What Policy::Apply did for every floor before the nominal skip: the
/// concrete stretcher, then the clamp loop, then RecomputeTimes() when
/// the clamp changed a ratio.
void StretchThenClamp(std::string_view policy, sched::Schedule& schedule,
                      const ctg::BranchProbabilities& probs, double floor) {
  if (policy == "online") {
    StretchOnline(schedule, probs);
  } else if (policy == "proportional") {
    StretchProportional(schedule);
  } else {
    StretchNlp(schedule, probs);
  }
  bool changed = false;
  for (TaskId task : schedule.graph().TaskIds()) {
    sched::TaskPlacement& p = schedule.placement(task);
    const double clamped = schedule.platform().QuantizeSpeed(
        p.pe, std::max(p.speed_ratio, floor));
    if (clamped != p.speed_ratio) {
      p.speed_ratio = clamped;
      changed = true;
    }
  }
  if (changed) schedule.RecomputeTimes();
}

/// Every placement and transfer window equal bit for bit.
void ExpectBitwiseEqual(const sched::Schedule& got,
                        const sched::Schedule& want) {
  for (TaskId task : want.graph().TaskIds()) {
    const sched::TaskPlacement& a = got.placement(task);
    const sched::TaskPlacement& b = want.placement(task);
    EXPECT_EQ(a.pe, b.pe) << task.index();
    EXPECT_EQ(a.order_index, b.order_index) << task.index();
    EXPECT_EQ(a.speed_ratio, b.speed_ratio) << task.index();
    EXPECT_EQ(a.start_ms, b.start_ms) << task.index();
    EXPECT_EQ(a.finish_ms, b.finish_ms) << task.index();
  }
  for (EdgeId edge : want.graph().EdgeIds()) {
    EXPECT_EQ(got.comm(edge).start_ms, want.comm(edge).start_ms);
    EXPECT_EQ(got.comm(edge).finish_ms, want.comm(edge).finish_ms);
  }
}

TEST(NominalFloor, SkipEqualsStretchThenClampForEveryPolicy) {
  const apps::Fig1Example fig1 = apps::MakeFig1Example();
  tgff::RandomCtgParams params;
  params.task_count = 18;
  params.pe_count = 3;
  params.fork_count = 2;
  params.seed = 7;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.6);
  const arch::Platform discrete =
      WithLevels(rc.platform, rc.graph, {0.4, 0.6, 0.8, 1.0});
  struct Case {
    const char* name;
    const ctg::Ctg& graph;
    const arch::Platform& platform;
  };
  const Case cases[] = {{"fig1", fig1.graph, fig1.platform},
                        {"random continuous", rc.graph, rc.platform},
                        {"random discrete", rc.graph, discrete}};
  for (const Case& c : cases) {
    const ctg::ActivationAnalysis analysis(c.graph);
    const ctg::BranchProbabilities probs =
        apps::UniformProbabilities(c.graph);
    for (const arch::PeMask mask :
         {arch::PeMask(), arch::PeMask::WithoutBits(1)}) {
      sched::DlsOptions dls;
      dls.available_pes = mask;
      for (const std::string& name : PolicyNames()) {
        SCOPED_TRACE(std::string(c.name) + " / " + name +
                     (mask.IsAll() ? "" : " / masked"));
        sched::Schedule want =
            sched::RunDls(c.graph, analysis, c.platform, probs, dls);
        StretchThenClamp(name, want, probs, 1.0);

        runtime::Metrics metrics;
        PathEngine engine(c.graph, analysis, c.platform,
                          PathEngineOptions{.metrics = &metrics});
        sched::Schedule got =
            sched::RunDls(c.graph, analysis, c.platform, probs, dls);
        PolicyContext ctx;
        ctx.schedule = &got;
        ctx.probs = &probs;
        ctx.speed_floor = 1.0;
        const StretchStats stats = GetPolicy(name).Apply(engine, ctx);
        ExpectBitwiseEqual(got, want);
        // Nothing was enumerated or stretched, and the probe still
        // counts one stretch call.
        EXPECT_EQ(stats.path_count, 0u);
        EXPECT_EQ(engine.enumeration_id(), 0u);
        EXPECT_EQ(metrics.counter("dvfs.stretch.nominal"), 1u);
        EXPECT_EQ(metrics.counter("dvfs.stretch.calls"), 1u);
        EXPECT_EQ(metrics.counter("dvfs.enumerate.calls"), 0u);
      }
    }
  }
}

TEST(NominalFloor, FractionalFloorStillStretches) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  runtime::Metrics metrics;
  PathEngine engine(ex.graph, analysis, ex.platform,
                    PathEngineOptions{.metrics = &metrics});
  sched::Schedule got =
      sched::RunDls(ex.graph, analysis, ex.platform, ex.probs);
  sched::Schedule want = got;
  StretchThenClamp("online", want, ex.probs, 0.9);
  PolicyContext ctx;
  ctx.schedule = &got;
  ctx.probs = &ex.probs;
  ctx.speed_floor = 0.9;
  GetPolicy("online").Apply(engine, ctx);
  ExpectBitwiseEqual(got, want);
  EXPECT_EQ(engine.enumeration_id(), 1u);
  EXPECT_EQ(metrics.counter("dvfs.stretch.nominal"), 0u);
}

}  // namespace
}  // namespace actg::dvfs
