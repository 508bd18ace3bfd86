#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg::ctg {
namespace {

// Paper Example 1 is the ground truth for this whole module:
// Γ(τ1)=Γ(τ2)=Γ(τ3)={1}, Γ(τ4)={a1}, Γ(τ5)={a2}, Γ(τ6)={a2b1},
// Γ(τ7)={a2b2}, Γ(τ8)={1,a1} (simplifying to 1), and τ8 implicitly
// depends on the fork τ3.
class Fig1Activation : public ::testing::Test {
 protected:
  Fig1Activation() : ex_(apps::MakeFig1Example()), analysis_(ex_.graph) {}

  TaskId tau(int i) const { return ex_.tau(i); }
  Minterm A(int o) const { return Minterm(Condition{tau(3), o}); }
  Minterm B(int o) const { return Minterm(Condition{tau(5), o}); }

  apps::Fig1Example ex_;
  ActivationAnalysis analysis_;
};

TEST_F(Fig1Activation, UnconditionalTasksHaveTrueGuard) {
  for (int i : {1, 2, 3}) {
    EXPECT_TRUE(analysis_.ActivationGuard(tau(i)).IsTrue())
        << "tau" << i;
  }
}

TEST_F(Fig1Activation, ConditionalGammaMatchesPaper) {
  ASSERT_EQ(analysis_.Gamma(tau(4)).size(), 1u);
  EXPECT_EQ(analysis_.Gamma(tau(4))[0], A(0));
  ASSERT_EQ(analysis_.Gamma(tau(5)).size(), 1u);
  EXPECT_EQ(analysis_.Gamma(tau(5))[0], A(1));
  ASSERT_EQ(analysis_.Gamma(tau(6)).size(), 1u);
  EXPECT_EQ(analysis_.Gamma(tau(6))[0], *A(1).Conjoin(B(0)));
  ASSERT_EQ(analysis_.Gamma(tau(7)).size(), 1u);
  EXPECT_EQ(analysis_.Gamma(tau(7))[0], *A(1).Conjoin(B(1)));
}

TEST_F(Fig1Activation, OrNodeGuardIsAlwaysTrue) {
  // Γ(τ8) = {1, a1} in the paper; with absorption X(τ8) = 1.
  EXPECT_TRUE(analysis_.ActivationGuard(tau(8)).IsTrue());
}

TEST_F(Fig1Activation, MutualExclusionPairs) {
  EXPECT_TRUE(analysis_.MutuallyExclusive(tau(4), tau(5)));
  EXPECT_TRUE(analysis_.MutuallyExclusive(tau(4), tau(6)));
  EXPECT_TRUE(analysis_.MutuallyExclusive(tau(4), tau(7)));
  EXPECT_TRUE(analysis_.MutuallyExclusive(tau(6), tau(7)));
  EXPECT_FALSE(analysis_.MutuallyExclusive(tau(5), tau(6)));
  EXPECT_FALSE(analysis_.MutuallyExclusive(tau(1), tau(4)));
  EXPECT_FALSE(analysis_.MutuallyExclusive(tau(2), tau(3)));
  EXPECT_FALSE(analysis_.MutuallyExclusive(tau(8), tau(6)));
}

TEST_F(Fig1Activation, MutexRejectsOutOfRangeIds) {
  const int n = static_cast<int>(ex_.graph.task_count());
  EXPECT_THROW(analysis_.MutuallyExclusive(TaskId{n}, tau(1)),
               InvalidArgument);
  EXPECT_THROW(analysis_.MutuallyExclusive(tau(1), TaskId{n}),
               InvalidArgument);
  EXPECT_THROW(analysis_.MutuallyExclusive(TaskId{-1}, tau(1)),
               InvalidArgument);
}

TEST_F(Fig1Activation, MutexIsSymmetricAndIrreflexive) {
  for (TaskId a : ex_.graph.TaskIds()) {
    EXPECT_FALSE(analysis_.MutuallyExclusive(a, a));
    for (TaskId b : ex_.graph.TaskIds()) {
      EXPECT_EQ(analysis_.MutuallyExclusive(a, b),
                analysis_.MutuallyExclusive(b, a));
    }
  }
}

TEST_F(Fig1Activation, EdgeConditionsCompiledBesideTheTaskGuards) {
  ASSERT_TRUE(analysis_.space().valid());
  EXPECT_TRUE(analysis_.bit_edge_conditions());
  std::size_t conditional = 0;
  for (EdgeId eid : ex_.graph.EdgeIds()) {
    const auto& cond = ex_.graph.edge(eid).condition;
    EXPECT_EQ(analysis_.HasEdgeCondition(eid), cond.has_value());
    if (!cond.has_value()) continue;
    ++conditional;
    BitMinterm expected;
    ASSERT_TRUE(analysis_.space().Encode(*cond, expected));
    EXPECT_EQ(analysis_.BitEdgeCondition(eid).bits, expected.bits);
    EXPECT_EQ(analysis_.BitEdgeCondition(eid).mask, expected.mask);
  }
  EXPECT_EQ(conditional, 4u);  // a1, a2, b1, b2
}

TEST_F(Fig1Activation, ImpliedDependencyOr8OnFork3) {
  // "in any case, τ8 must wait until both τ2 and τ3 finish."
  const auto& deps = analysis_.ImpliedForkDependencies();
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      std::make_pair(tau(3), tau(8))),
            deps.end());
}

TEST_F(Fig1Activation, ActivationProbabilities) {
  // prob(a1)=0.4, prob(b1)=0.5 from the example builder.
  EXPECT_NEAR(analysis_.ActivationProbability(tau(1), ex_.probs), 1.0,
              1e-12);
  EXPECT_NEAR(analysis_.ActivationProbability(tau(4), ex_.probs), 0.4,
              1e-12);
  EXPECT_NEAR(analysis_.ActivationProbability(tau(5), ex_.probs), 0.6,
              1e-12);
  EXPECT_NEAR(analysis_.ActivationProbability(tau(6), ex_.probs),
              0.6 * 0.5, 1e-12);
  EXPECT_NEAR(analysis_.ActivationProbability(tau(8), ex_.probs), 1.0,
              1e-12);
}

TEST_F(Fig1Activation, IsActiveUnderFullAssignment) {
  BranchAssignment asg(ex_.graph.task_count());
  asg.Set(tau(3), 1);  // a2
  asg.Set(tau(5), 0);  // b1
  EXPECT_TRUE(analysis_.IsActive(tau(6), asg));
  EXPECT_FALSE(analysis_.IsActive(tau(7), asg));
  EXPECT_FALSE(analysis_.IsActive(tau(4), asg));
  EXPECT_TRUE(analysis_.IsActive(tau(8), asg));
}

TEST_F(Fig1Activation, ScenariosMatchPaperMinterms) {
  // Scenarios: a1 (fork b never resolves), a2b1, a2b2.
  const auto scenarios = analysis_.EnumerateScenarioAssignments();
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_NE(std::find(scenarios.begin(), scenarios.end(), A(0)),
            scenarios.end());
  EXPECT_NE(std::find(scenarios.begin(), scenarios.end(),
                      *A(1).Conjoin(B(0))),
            scenarios.end());
  EXPECT_NE(std::find(scenarios.begin(), scenarios.end(),
                      *A(1).Conjoin(B(1))),
            scenarios.end());
}

TEST_F(Fig1Activation, ScenarioProbabilitiesSumToOne) {
  const auto scenarios = analysis_.EnumerateScenarios(ex_.probs);
  double total = 0.0;
  for (const Scenario& s : scenarios) total += s.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (const Scenario& s : scenarios) {
    EXPECT_GT(s.probability, 0.0);
  }
}

TEST_F(Fig1Activation, ScenarioProbabilityValues) {
  const auto scenarios = analysis_.EnumerateScenarios(ex_.probs);
  for (const Scenario& s : scenarios) {
    if (s.assignment == A(0)) {
      EXPECT_NEAR(s.probability, 0.4, 1e-12);
    } else {
      EXPECT_NEAR(s.probability, 0.3, 1e-12);  // 0.6 * 0.5 each
    }
  }
}

TEST_F(Fig1Activation, AllMintermsIncludePaperSet) {
  // M = {1, a1, a2, a2b1, a2b2} as guards of the eight tasks.
  const auto all = analysis_.AllMinterms();
  EXPECT_GE(all.size(), 5u);
  EXPECT_NE(std::find(all.begin(), all.end(), Minterm()), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), A(0)), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), *A(1).Conjoin(B(1))),
            all.end());
}

// --------------------------------------------------------------------------
// Application models

TEST(MpegActivation, BlockForksAreMutuallyIndependent) {
  const apps::MpegModel m = apps::MakeMpegModel();
  const ActivationAnalysis analysis(m.graph);
  // Two different block IDCTs are NOT mutually exclusive (both blocks of
  // one inter macroblock may be coded), but intra and inter IDCTs are.
  const TaskId idct_b0 = [&] {
    for (TaskId t : m.graph.TaskIds()) {
      if (m.graph.task(t).name == "idct_b0") return t;
    }
    return TaskId{};
  }();
  const TaskId idct_b1 = [&] {
    for (TaskId t : m.graph.TaskIds()) {
      if (m.graph.task(t).name == "idct_b1") return t;
    }
    return TaskId{};
  }();
  const TaskId idct_i0 = [&] {
    for (TaskId t : m.graph.TaskIds()) {
      if (m.graph.task(t).name == "idct_i0") return t;
    }
    return TaskId{};
  }();
  ASSERT_TRUE(idct_b0.valid() && idct_b1.valid() && idct_i0.valid());
  EXPECT_FALSE(analysis.MutuallyExclusive(idct_b0, idct_b1));
  EXPECT_TRUE(analysis.MutuallyExclusive(idct_b0, idct_i0));
}

TEST(MpegActivation, SkippedPathExcludesDecoding) {
  const apps::MpegModel m = apps::MakeMpegModel();
  const ActivationAnalysis analysis(m.graph);
  BranchAssignment asg(m.graph.task_count());
  asg.Set(m.fork_skipped, 1);  // a2: skipped macroblock
  std::size_t active = 0;
  for (TaskId t : m.graph.TaskIds()) {
    if (analysis.IsActive(t, asg)) ++active;
  }
  // mb_header, skipped, mc_skip, recon, clip, store, display.
  EXPECT_EQ(active, 7u);
}

TEST(MpegActivation, IntraPathRunsAllSixIdcts) {
  const apps::MpegModel m = apps::MakeMpegModel();
  const ActivationAnalysis analysis(m.graph);
  BranchAssignment asg(m.graph.task_count());
  asg.Set(m.fork_skipped, 0);  // decode
  asg.Set(m.fork_type, 0);     // intra
  std::size_t idcts = 0;
  for (TaskId t : m.graph.TaskIds()) {
    if (m.graph.task(t).name.rfind("idct_i", 0) == 0 &&
        analysis.IsActive(t, asg)) {
      ++idcts;
    }
  }
  EXPECT_EQ(idcts, 6u);
}

TEST(MpegActivation, ScenarioCountMatchesStructure) {
  const apps::MpegModel m = apps::MakeMpegModel();
  const ActivationAnalysis analysis(m.graph);
  // skipped (1) + intra (1) + inter: 2 mv modes x 2^6 block patterns.
  const auto scenarios = analysis.EnumerateScenarioAssignments();
  EXPECT_EQ(scenarios.size(), 1u + 1u + 2u * 64u);
}

TEST(CruiseActivation, ExactlyThreeScenarios) {
  const apps::CruiseModel m = apps::MakeCruiseModel();
  const ActivationAnalysis analysis(m.graph);
  // The paper: "there are only three minterms in the CTG model of the
  // cruise control system."
  EXPECT_EQ(analysis.EnumerateScenarioAssignments().size(), 3u);
}

TEST(CruiseActivation, LawBranchesAreMutex) {
  const apps::CruiseModel m = apps::MakeCruiseModel();
  const ActivationAnalysis analysis(m.graph);
  TaskId accel, decel, manual;
  for (TaskId t : m.graph.TaskIds()) {
    const auto& name = m.graph.task(t).name;
    if (name == "accel_gain") accel = t;
    if (name == "decel_gain") decel = t;
    if (name == "manual_map") manual = t;
  }
  ASSERT_TRUE(accel.valid() && decel.valid() && manual.valid());
  EXPECT_TRUE(analysis.MutuallyExclusive(accel, decel));
  EXPECT_TRUE(analysis.MutuallyExclusive(accel, manual));
  EXPECT_TRUE(analysis.MutuallyExclusive(decel, manual));
}

// --------------------------------------------------------------------------
// One compiled guard per distinct task-guard slot and per conditional edge

/// Checks \p graph's compiled guards against the DNF ones they encode:
/// every task's BitActivationGuard is the encoded X(τ) and is shared by
/// exactly the tasks whose DNF is the same slot; every conditional
/// edge's BitEdgeCondition is its encoded C(e); the mutex matrix, read
/// from the slot guards, answers as the DNF algebra does.
void ExpectCompiledOncePerSlot(const Ctg& graph) {
  const ActivationAnalysis analysis(graph);
  ASSERT_TRUE(analysis.space().valid());
  ASSERT_TRUE(analysis.bit_edge_conditions());
  for (TaskId a : graph.TaskIds()) {
    BitGuard expected;
    ASSERT_TRUE(analysis.space().Encode(analysis.ActivationGuard(a), expected));
    EXPECT_EQ(analysis.BitActivationGuard(a), expected) << a.value;
    for (TaskId b : graph.TaskIds()) {
      const bool same_slot =
          &analysis.ActivationGuard(a) == &analysis.ActivationGuard(b);
      EXPECT_EQ(same_slot,
                analysis.ActivationGuard(a) == analysis.ActivationGuard(b));
      EXPECT_EQ(&analysis.BitActivationGuard(a) ==
                    &analysis.BitActivationGuard(b),
                same_slot)
          << a.value << " " << b.value;
      EXPECT_EQ(analysis.MutuallyExclusive(a, b),
                !analysis.ActivationGuard(a).CompatibleWith(
                    analysis.ActivationGuard(b)));
    }
  }
  for (EdgeId eid : graph.EdgeIds()) {
    const auto& cond = graph.edge(eid).condition;
    EXPECT_EQ(analysis.HasEdgeCondition(eid), cond.has_value());
    if (!cond.has_value()) continue;
    BitMinterm expected;
    ASSERT_TRUE(analysis.space().Encode(*cond, expected));
    EXPECT_EQ(analysis.BitEdgeCondition(eid), expected) << eid.value;
  }
}

TEST(CompiledGuards, OnePerDistinctSlotAndConditionalEdge) {
  ExpectCompiledOncePerSlot(apps::MakeFig1Example().graph);
  ExpectCompiledOncePerSlot(apps::MakeMpegModel().graph);
  ExpectCompiledOncePerSlot(apps::MakeCruiseModel().graph);
  for (std::uint64_t seed : {3u, 4u}) {
    for (tgff::Category category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      tgff::RandomCtgParams params;
      params.task_count = 24;
      params.fork_count = 3;
      params.category = category;
      params.seed = seed;
      ExpectCompiledOncePerSlot(tgff::MakeRandomCtg(params).value().graph);
    }
  }
}

TEST(CompiledGuards, MpegSharesFewSlots) {
  // MPEG's 40 task guards are 13 distinct DNFs: 13 compiled guards.
  const apps::MpegModel m = apps::MakeMpegModel();
  const ActivationAnalysis analysis(m.graph);
  std::vector<const BitGuard*> distinct;
  for (TaskId t : m.graph.TaskIds()) {
    const BitGuard* guard = &analysis.BitActivationGuard(t);
    if (std::find(distinct.begin(), distinct.end(), guard) == distinct.end()) {
      distinct.push_back(guard);
    }
  }
  EXPECT_EQ(distinct.size(), 13u);
}

TEST(CompiledGuards, OverwideGraphKeepsTheDnfFallback) {
  // 3 forks of 100 outcomes need 300 bits, past the 256-bit width: no
  // compiled layer, and every answer still comes from the DNF algebra.
  CtgBuilder builder;
  TaskId prev = builder.AddTask("src");
  for (int f = 0; f < 3; ++f) {
    std::string fork_name = "fork";
    fork_name += std::to_string(f);
    const TaskId fork = builder.AddOrTask(fork_name);
    builder.AddEdge(prev, fork);
    std::string join_name = "join";
    join_name += std::to_string(f);
    const TaskId join = builder.AddOrTask(join_name);
    for (int o = 0; o < 100; ++o) {
      std::string name = "b";
      name += std::to_string(f) + "_" + std::to_string(o);
      const TaskId branch = builder.AddTask(name);
      builder.AddConditionalEdge(fork, branch, o);
      builder.AddEdge(branch, join);
    }
    prev = join;
  }
  builder.SetDeadline(1000.0);
  const Ctg graph = std::move(builder).Build();
  const ActivationAnalysis analysis(graph);
  EXPECT_FALSE(analysis.space().valid());
  EXPECT_FALSE(analysis.bit_edge_conditions());
  std::size_t conditional = 0;
  for (EdgeId eid : graph.EdgeIds()) {
    const bool has = graph.edge(eid).condition.has_value();
    EXPECT_EQ(analysis.HasEdgeCondition(eid), has);
    conditional += has ? 1 : 0;
  }
  EXPECT_EQ(conditional, 300u);
  const std::vector<TaskId> tasks = graph.TaskIds();
  // Ids: src, fork0, join0, b0_0, b0_1, ...
  EXPECT_TRUE(analysis.MutuallyExclusive(tasks[3], tasks[4]));
  EXPECT_FALSE(analysis.MutuallyExclusive(tasks[3], tasks[1]));
}

}  // namespace
}  // namespace actg::ctg
