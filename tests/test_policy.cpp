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
#include "sched/dls.h"
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

}  // namespace
}  // namespace actg::dvfs
