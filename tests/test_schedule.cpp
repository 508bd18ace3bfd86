#include <gtest/gtest.h>

#include "apps/common.h"
#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

// Unit tests of the Schedule container itself, including failure
// injection: Validate() must reject every class of corruption the
// stretchers could conceivably introduce.

namespace actg::sched {
namespace {

class ScheduleFixture : public ::testing::Test {
 protected:
  ScheduleFixture()
      : ex_(apps::MakeFig1Example()),
        analysis_(ex_.graph),
        schedule_(RunDls(ex_.graph, analysis_, ex_.platform, ex_.probs)) {}

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
  Schedule schedule_;
};

TEST_F(ScheduleFixture, FreshScheduleValidates) {
  EXPECT_NO_THROW(schedule_.Validate());
}

TEST_F(ScheduleFixture, InjectNegativeStartRejected) {
  schedule_.placement(ex_.tau(1)).start_ms = -5.0;
  schedule_.placement(ex_.tau(1)).finish_ms =
      -5.0 + schedule_.ScaledWcet(ex_.tau(1));
  EXPECT_THROW(schedule_.Validate(), InternalError);
}

TEST_F(ScheduleFixture, InjectInconsistentFinishRejected) {
  schedule_.placement(ex_.tau(2)).finish_ms += 3.0;
  EXPECT_THROW(schedule_.Validate(), InternalError);
}

TEST_F(ScheduleFixture, InjectPrecedenceViolationRejected) {
  // Pull τ3 forward past its predecessor τ1.
  auto& p = schedule_.placement(ex_.tau(3));
  p.start_ms = 0.0;
  p.finish_ms = schedule_.ScaledWcet(ex_.tau(3));
  EXPECT_THROW(schedule_.Validate(), InternalError);
}

TEST_F(ScheduleFixture, InjectBadSpeedRatioRejected) {
  {
    Schedule copy = schedule_;
    copy.placement(ex_.tau(4)).speed_ratio = 1.5;
    // Surfaces as InvalidArgument from the DVFS model (ratio > 1) or as
    // InternalError from the validator; both derive from actg::Error.
    EXPECT_THROW(copy.Validate(), Error);
  }
  {
    Schedule copy = schedule_;
    // Below the PE floor (0.2 in the example platform).
    copy.placement(ex_.tau(4)).speed_ratio = 0.05;
    EXPECT_THROW(copy.Validate(), InternalError);
  }
}

TEST_F(ScheduleFixture, InjectNonMutexOverlapRejected) {
  // Find two non-mutex tasks on one PE and force them to overlap.
  for (TaskId a : ex_.graph.TaskIds()) {
    for (TaskId b : ex_.graph.TaskIds()) {
      if (!(a < b)) continue;
      if (schedule_.placement(a).pe != schedule_.placement(b).pe) continue;
      if (analysis_.MutuallyExclusive(a, b)) continue;
      Schedule copy = schedule_;
      auto& pb = copy.placement(b);
      pb.start_ms = copy.placement(a).start_ms;
      pb.finish_ms = pb.start_ms + copy.ScaledWcet(b);
      // Overlap alone may also violate precedence; either way Validate
      // must throw.
      EXPECT_THROW(copy.Validate(), InternalError);
      return;
    }
  }
  GTEST_SKIP() << "no same-PE non-mutex pair in this schedule";
}

TEST_F(ScheduleFixture, RecomputeTimesRepairsShiftedSpeeds) {
  // Slow one task down and recompute: downstream tasks shift, the result
  // validates, and the makespan grows by at least the extension on the
  // critical path.
  const TaskId t1 = ex_.tau(1);
  schedule_.placement(t1).speed_ratio = 0.5;
  schedule_.RecomputeTimes();
  EXPECT_NO_THROW(schedule_.Validate());
  EXPECT_DOUBLE_EQ(schedule_.placement(t1).finish_ms,
                   2.0 * ex_.platform.Wcet(t1, schedule_.placement(t1).pe));
}

TEST_F(ScheduleFixture, PseudoEdgeEndpointsValidated) {
  EXPECT_THROW(schedule_.AddPseudoEdge(ex_.tau(1), ex_.tau(1)),
               InvalidArgument);
  EXPECT_THROW(schedule_.AddPseudoEdge(TaskId{}, ex_.tau(1)),
               InvalidArgument);
}

TEST_F(ScheduleFixture, DagAdjacencyCoversAllEdgeKinds) {
  const ScheduledDag& dag = schedule_.dag();
  std::size_t with_edge_id = 0, without = 0;
  for (std::size_t u = 0; u < dag.task_count(); ++u) {
    for (std::uint32_t arc = dag.arc_begin(u); arc < dag.arc_end(u); ++arc) {
      if (dag.edge(arc).valid()) {
        ++with_edge_id;
      } else {
        ++without;
      }
    }
  }
  EXPECT_EQ(with_edge_id, ex_.graph.edge_count());
  EXPECT_EQ(without, schedule_.pseudo_edges().size() +
                         schedule_.control_edges().size());
}

TEST_F(ScheduleFixture, MismatchedPlatformRejected) {
  arch::PlatformBuilder pb(3, 1);  // wrong task count
  for (int t = 0; t < 3; ++t) {
    pb.SetTaskCost(TaskId{t}, PeId{0}, 1.0, 1.0);
  }
  const arch::Platform wrong = std::move(pb).Build();
  EXPECT_THROW(Schedule(ex_.graph, analysis_, wrong), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Packaged pipelines (dvfs/algorithms.h)

class AlgorithmsFixture : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmsFixture, AllThreePipelinesAreValidAndDeterministic) {
  tgff::RandomCtgParams params;
  params.task_count = 18;
  params.fork_count = 2;
  params.pe_count = 3;
  params.seed = static_cast<std::uint64_t>(GetParam());
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.3);
  const ctg::ActivationAnalysis analysis(rc.graph);
  const auto probs = apps::UniformProbabilities(rc.graph);

  const auto online1 =
      dvfs::RunOnlineAlgorithm(rc.graph, analysis, rc.platform, probs);
  const auto online2 =
      dvfs::RunOnlineAlgorithm(rc.graph, analysis, rc.platform, probs);
  const auto ref1 =
      dvfs::RunReference1(rc.graph, analysis, rc.platform, probs);
  const auto ref2 =
      dvfs::RunReference2(rc.graph, analysis, rc.platform, probs);

  for (const Schedule* s : {&online1, &ref1, &ref2}) {
    s->Validate();
    EXPECT_LE(sim::MaxScenarioMakespan(*s),
              rc.graph.deadline_ms() + 1e-6);
  }
  EXPECT_DOUBLE_EQ(sim::ExpectedEnergy(online1, probs),
                   sim::ExpectedEnergy(online2, probs));
  // Reference 1 runs on the fixed round-robin mapping.
  const auto mapping = RoundRobinMapping(rc.graph, rc.platform);
  for (TaskId t : rc.graph.TaskIds()) {
    EXPECT_EQ(ref1.placement(t).pe, mapping[t.index()]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmsFixture, ::testing::Range(1, 6));

}  // namespace
}  // namespace actg::sched
