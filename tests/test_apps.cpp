#include <gtest/gtest.h>

#include <set>

#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "apps/tenants.h"
#include "ctg/activation.h"
#include "sim/energy.h"
#include "sched/dls.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::apps {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers

TEST(Common, UniformProbabilitiesCoversEveryFork) {
  const MpegModel m = MakeMpegModel();
  const auto probs = UniformProbabilities(m.graph);
  for (TaskId fork : m.graph.ForkIds()) {
    ASSERT_TRUE(probs.Has(fork));
    EXPECT_NEAR(probs.Outcome(fork, 0), 0.5, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// MPEG model (paper Fig. 3 / Section III.B)

TEST(Mpeg, PaperStructureCounts) {
  const MpegModel m = MakeMpegModel();
  EXPECT_EQ(m.graph.task_count(), 40u);   // "consists of 40 tasks"
  EXPECT_EQ(m.graph.ForkIds().size(), 9u);  // "including 9 branching nodes"
  EXPECT_EQ(m.platform.pe_count(), 3u);   // "consists of 3 PEs"
  EXPECT_EQ(m.fork_blocks.size(), 6u);    // branches c..h
  EXPECT_GT(m.graph.deadline_ms(), 0.0);
}

TEST(Mpeg, ForkHandlesAreForks) {
  const MpegModel m = MakeMpegModel();
  EXPECT_TRUE(m.graph.IsFork(m.fork_skipped));
  EXPECT_TRUE(m.graph.IsFork(m.fork_type));
  EXPECT_TRUE(m.graph.IsFork(m.fork_mv));
  for (TaskId f : m.fork_blocks) EXPECT_TRUE(m.graph.IsFork(f));
}

TEST(Mpeg, OutcomeLabelsFollowThePaper) {
  const MpegModel m = MakeMpegModel();
  EXPECT_EQ(m.graph.OutcomeLabel(m.fork_skipped, 0), "a1");
  EXPECT_EQ(m.graph.OutcomeLabel(m.fork_skipped, 1), "a2");
  EXPECT_EQ(m.graph.OutcomeLabel(m.fork_type, 0), "b1");
  EXPECT_EQ(m.graph.OutcomeLabel(m.fork_blocks[0], 0), "c1");
  EXPECT_EQ(m.graph.OutcomeLabel(m.fork_blocks[5], 1), "h2");
}

TEST(Mpeg, TypeForkNestedUnderSkipFork) {
  const MpegModel m = MakeMpegModel();
  const ctg::ActivationAnalysis analysis(m.graph);
  // mb_type runs only when the macroblock is not skipped (a1).
  const auto& gamma = analysis.Gamma(m.fork_type);
  ASSERT_EQ(gamma.size(), 1u);
  EXPECT_EQ(gamma[0].OutcomeOf(m.fork_skipped), 0);
}

TEST(Mpeg, BlockForksNestedUnderInter) {
  const MpegModel m = MakeMpegModel();
  const ctg::ActivationAnalysis analysis(m.graph);
  for (TaskId f : m.fork_blocks) {
    const auto& gamma = analysis.Gamma(f);
    ASSERT_EQ(gamma.size(), 1u);
    EXPECT_EQ(gamma[0].OutcomeOf(m.fork_skipped), 0);
    EXPECT_EQ(gamma[0].OutcomeOf(m.fork_type), 1);  // inter only
  }
}

TEST(Mpeg, IntraMacroblockEnergyExceedsSkipped) {
  const MpegModel m = MakeMpegModel();
  const ctg::ActivationAnalysis analysis(m.graph);
  const auto probs = UniformProbabilities(m.graph);
  const sched::Schedule s =
      sched::RunDls(m.graph, analysis, m.platform, probs);
  ctg::Minterm skipped(ctg::Condition{m.fork_skipped, 1});
  auto intra = *ctg::Minterm(ctg::Condition{m.fork_skipped, 0})
                    .Conjoin(ctg::Minterm(ctg::Condition{m.fork_type, 0}));
  EXPECT_GT(sim::ScenarioEnergy(s, intra),
            3.0 * sim::ScenarioEnergy(s, skipped));
}

TEST(Mpeg, DeterministicConstruction) {
  const MpegModel a = MakeMpegModel();
  const MpegModel b = MakeMpegModel();
  EXPECT_EQ(a.graph.task_count(), b.graph.task_count());
  EXPECT_DOUBLE_EQ(a.graph.deadline_ms(), b.graph.deadline_ms());
  for (TaskId t : a.graph.TaskIds()) {
    EXPECT_EQ(a.graph.task(t).name, b.graph.task(t).name);
  }
}

TEST(Mpeg, MovieProfilesMatchPaperClips) {
  const auto movies = MpegMovieProfiles();
  ASSERT_EQ(movies.size(), 8u);
  std::set<std::string> names;
  for (const auto& movie : movies) names.insert(movie.name);
  for (const char* expected :
       {"Airwolf", "Bike", "Bus", "Coaster", "Flower", "Shuttle",
        "Tennis", "Train"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  // Shuttle is the most volatile clip (largest call counts in Table 2).
  double shuttle_jump = 0.0, max_other = 0.0;
  for (const auto& movie : movies) {
    if (movie.name == "Shuttle") {
      shuttle_jump = movie.jump_probability;
    } else {
      max_other = std::max(max_other, movie.jump_probability);
    }
  }
  EXPECT_GT(shuttle_jump, max_other);
}

TEST(Mpeg, MovieTraceResolvesTopForkAlways) {
  const MpegModel m = MakeMpegModel();
  const auto movies = MpegMovieProfiles();
  const auto trace = GenerateMovieTrace(m, movies[0], 200);
  ASSERT_EQ(trace.size(), 200u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_GE(trace.At(i).Get(m.fork_skipped), 0);
  }
}

TEST(Mpeg, DifferentMoviesDifferentTraces) {
  const MpegModel m = MakeMpegModel();
  const auto movies = MpegMovieProfiles();
  const auto a = GenerateMovieTrace(m, movies[0], 500);
  const auto b = GenerateMovieTrace(m, movies[1], 500);
  EXPECT_NE(a.EmpiricalProbability(m.fork_skipped, 0),
            b.EmpiricalProbability(m.fork_skipped, 0));
}

// ---------------------------------------------------------------------------
// Cruise controller (paper Section IV / Table 3)

TEST(Cruise, PaperStructureCounts) {
  const CruiseModel m = MakeCruiseModel();
  EXPECT_EQ(m.graph.task_count(), 32u);    // "consists of 32 tasks"
  EXPECT_EQ(m.graph.ForkIds().size(), 2u);  // "two branching nodes"
  EXPECT_EQ(m.platform.pe_count(), 5u);    // "a system with 5 PEs"
}

TEST(Cruise, DeadlineIsDoubleTheOptimumScheduleLength) {
  const CruiseModel m = MakeCruiseModel();
  const ctg::ActivationAnalysis analysis(m.graph);
  const sched::Schedule s = sched::RunDls(
      m.graph, analysis, m.platform, UniformProbabilities(m.graph));
  EXPECT_NEAR(m.graph.deadline_ms(), 2.0 * s.Makespan(), 1e-6);
}

TEST(Cruise, SameForkMintermsAlmostEqualInEnergy) {
  // "The CTG typically has two minterms resulting from a same branching
  // node that are almost equal in energy."
  const CruiseModel m = MakeCruiseModel();
  const ctg::ActivationAnalysis analysis(m.graph);
  const sched::Schedule s = sched::RunDls(
      m.graph, analysis, m.platform, UniformProbabilities(m.graph));
  const auto cruise = ctg::Minterm(ctg::Condition{m.fork_mode, 0});
  const auto accel =
      *cruise.Conjoin(ctg::Minterm(ctg::Condition{m.fork_law, 0}));
  const auto decel =
      *cruise.Conjoin(ctg::Minterm(ctg::Condition{m.fork_law, 1}));
  const double e_accel = sim::ScenarioEnergy(s, accel);
  const double e_decel = sim::ScenarioEnergy(s, decel);
  EXPECT_NEAR(e_accel / e_decel, 1.0, 0.05);
}

TEST(Cruise, RoadTracesRespectSequenceIdentity) {
  const CruiseModel m = MakeCruiseModel();
  const auto a = GenerateRoadTrace(m, 1, 300, 9);
  const auto b = GenerateRoadTrace(m, 1, 300, 9);
  const auto c = GenerateRoadTrace(m, 2, 300, 9);
  ASSERT_EQ(a.size(), 300u);
  int diff_ab = 0, diff_ac = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.At(i).Get(m.fork_mode) != b.At(i).Get(m.fork_mode)) ++diff_ab;
    if (a.At(i).Get(m.fork_mode) != c.At(i).Get(m.fork_mode)) ++diff_ac;
  }
  EXPECT_EQ(diff_ab, 0);
  EXPECT_GT(diff_ac, 0);
  EXPECT_THROW(GenerateRoadTrace(m, 0, 10, 1), actg::InvalidArgument);
  EXPECT_THROW(GenerateRoadTrace(m, 4, 10, 1), actg::InvalidArgument);
}

TEST(Cruise, CruiseModeDominatesRoadTraces) {
  const CruiseModel m = MakeCruiseModel();
  const auto trace = GenerateRoadTrace(m, 1, 1000, 3);
  EXPECT_GT(trace.EmpiricalProbability(m.fork_mode, 0), 0.7);
}

// ---------------------------------------------------------------------------
// Fig. 1 example

TEST(Fig1Model, ProbabilitiesMatchPaperDiscussion) {
  const Fig1Example ex = MakeFig1Example();
  EXPECT_NEAR(ex.probs.Outcome(ex.tau(5), 0), 0.5, 1e-12);  // prob(b1)
  EXPECT_EQ(ex.platform.pe_count(), 2u);
  EXPECT_GT(ex.graph.deadline_ms(), 0.0);
}

TEST(Fig1Model, DeadlineFactorScales) {
  const Fig1Example tight = MakeFig1Example(1.2);
  const Fig1Example loose = MakeFig1Example(2.4);
  EXPECT_NEAR(loose.graph.deadline_ms(),
              2.0 * tight.graph.deadline_ms(), 1e-6);
}

// ---------------------------------------------------------------------------
// Tenant models (serve and campaign workloads)

/// True when instance i of \p a and \p b decide every task alike.
bool SameTrace(const trace::BranchTrace& a, const trace::BranchTrace& b) {
  if (a.size() != b.size() || a.task_count() != b.task_count()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t t = 0; t < a.task_count(); ++t) {
      const TaskId task{static_cast<int>(t)};
      if (a.At(i).Get(task) != b.At(i).Get(task)) return false;
    }
  }
  return true;
}

TEST(Tenants, BundledAppsShareOneModelAcrossSeeds) {
  for (const TenantWorkload workload :
       {TenantWorkload::kMpeg, TenantWorkload::kCruise}) {
    SCOPED_TRACE(std::string(TenantWorkloadName(workload)));
    const TenantModel a(workload, 1);
    const TenantModel b(workload, 2);
    EXPECT_EQ(&a.graph(), &b.graph());
    EXPECT_EQ(&a.analysis(), &b.analysis());
    EXPECT_EQ(&a.platform(), &b.platform());
    EXPECT_EQ(&a.analysis().graph(), &a.graph());
  }
  // The shared object is the app's own model, unchanged.
  const MpegModel fresh = MakeMpegModel();
  const TenantModel mpeg(TenantWorkload::kMpeg, 7);
  EXPECT_EQ(mpeg.graph().task_count(), fresh.graph.task_count());
  EXPECT_DOUBLE_EQ(mpeg.graph().deadline_ms(), fresh.graph.deadline_ms());
}

TEST(Tenants, MakeTraceFollowsEachSeedsProfile) {
  constexpr std::size_t kInstances = 120;
  const MpegModel mpeg = MakeMpegModel();
  const std::vector<MovieProfile> movies = MpegMovieProfiles();
  const CruiseModel cruise = MakeCruiseModel();
  for (const std::uint64_t seed : {3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // MPEG: the seed picks the movie, the substream reseeds it.
    MovieProfile movie = movies[seed % movies.size()];
    movie.seed = util::Random(11).engine().Next();
    EXPECT_TRUE(SameTrace(
        TenantModel(TenantWorkload::kMpeg, seed)
            .MakeTrace(kInstances, util::Random(11)),
        GenerateMovieTrace(mpeg, movie, kInstances)));
    // Cruise: the seed picks the road sequence.
    EXPECT_TRUE(SameTrace(
        TenantModel(TenantWorkload::kCruise, seed)
            .MakeTrace(kInstances, util::Random(11)),
        GenerateRoadTrace(cruise, 1 + static_cast<int>(seed % 3), kInstances,
                          util::Random(11).engine().Next())));
  }
  // One shared model, two seeds, two different traces.
  EXPECT_FALSE(SameTrace(
      TenantModel(TenantWorkload::kMpeg, 3).MakeTrace(kInstances,
                                                      util::Random(11)),
      TenantModel(TenantWorkload::kMpeg, 4).MakeTrace(kInstances,
                                                      util::Random(11))));
}

TEST(Tenants, RandomModelsOfDifferentSeedsShareNothing) {
  for (const TenantWorkload workload :
       {TenantWorkload::kRandomForkJoin, TenantWorkload::kRandomFlat}) {
    SCOPED_TRACE(std::string(TenantWorkloadName(workload)));
    const TenantModel a(workload, 1);
    const TenantModel b(workload, 2);
    EXPECT_NE(&a.graph(), &b.graph());
    EXPECT_NE(&a.analysis(), &b.analysis());
    EXPECT_NE(&a.platform(), &b.platform());
    EXPECT_EQ(&a.analysis().graph(), &a.graph());
    EXPECT_EQ(&b.analysis().graph(), &b.graph());
    // Equal pairs still build equal models.
    const TenantModel again(workload, 1);
    EXPECT_EQ(again.graph().task_count(), a.graph().task_count());
    EXPECT_EQ(again.platform().pe_count(), a.platform().pe_count());
    EXPECT_TRUE(SameTrace(a.MakeTrace(30, util::Random(5)),
                          again.MakeTrace(30, util::Random(5))));
  }
}

}  // namespace
}  // namespace actg::apps
