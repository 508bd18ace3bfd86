#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "apps/common.h"
#include "apps/fig1_example.h"
#include "apps/tenants.h"
#include "check/fuzz.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace actg::trace {
namespace {

class TraceFixture : public ::testing::Test {
 protected:
  TraceFixture() : ex_(apps::MakeFig1Example()) {}
  TaskId ForkA() const { return ex_.tau(3); }
  TaskId ForkB() const { return ex_.tau(5); }

  ctg::BranchAssignment Assign(int a, int b) const {
    ctg::BranchAssignment asg(ex_.graph.task_count());
    if (a >= 0) asg.Set(ForkA(), a);
    if (b >= 0) asg.Set(ForkB(), b);
    return asg;
  }

  apps::Fig1Example ex_;
};

TEST_F(TraceFixture, AppendAndAccess) {
  BranchTrace t(ex_.graph.task_count());
  EXPECT_TRUE(t.empty());
  t.Append(Assign(0, -1));
  t.Append(Assign(1, 0));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.At(1).Get(ForkA()), 1);
  EXPECT_THROW(t.At(2), InvalidArgument);
}

TEST(BranchTraceBytes, AtReproducesEveryAppendedAssignment) {
  // One byte per decision: unset (-1) and the largest storable outcome
  // (254) must both survive the round trip.
  constexpr std::size_t kTasks = 7;
  util::Random rng(17);
  std::vector<ctg::BranchAssignment> appended;
  BranchTrace t(kTasks);
  int unset = 0;
  int largest = 0;
  for (int i = 0; i < 50; ++i) {
    ctg::BranchAssignment asg(kTasks);
    for (std::size_t task = 0; task < kTasks; ++task) {
      const int pick = rng.UniformInt(-1, 4);
      if (pick < 0) {
        ++unset;
        continue;
      }
      const int outcome = pick == 4 ? 254 : pick;
      if (outcome == 254) ++largest;
      asg.Set(TaskId{static_cast<int>(task)}, outcome);
    }
    t.Append(asg);
    appended.push_back(asg);
  }
  ASSERT_GT(unset, 0);
  ASSERT_GT(largest, 0);
  ASSERT_EQ(t.size(), appended.size());
  for (std::size_t i = 0; i < appended.size(); ++i) {
    const ctg::BranchAssignment back = t.At(i);
    ASSERT_EQ(back.size(), kTasks);
    for (std::size_t task = 0; task < kTasks; ++task) {
      const TaskId id{static_cast<int>(task)};
      EXPECT_EQ(back.Get(id), appended[i].Get(id)) << i << " " << task;
    }
  }
  // Slices copy the same bytes.
  const BranchTrace tail = t.Slice(45, 50);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    for (std::size_t task = 0; task < kTasks; ++task) {
      const TaskId id{static_cast<int>(task)};
      EXPECT_EQ(tail.At(i).Get(id), appended[45 + i].Get(id));
    }
  }
}

TEST(BranchTraceBytes, OutcomeThatDoesNotFitAByteIsRejected) {
  BranchTrace t(3);
  ctg::BranchAssignment fits(3);
  fits.Set(TaskId{1}, 254);
  t.Append(fits);
  ctg::BranchAssignment too_big(3);
  too_big.Set(TaskId{0}, 2);
  too_big.Set(TaskId{2}, 255);
  EXPECT_THROW(t.Append(too_big), InvalidArgument);
  // The rejected append left the trace as it was.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.At(0).Get(TaskId{0}), -1);
  EXPECT_EQ(t.At(0).Get(TaskId{1}), 254);
  t.Append(fits);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.At(1).Get(TaskId{1}), 254);
  EXPECT_EQ(t.At(1).Get(TaskId{2}), -1);
}

TEST_F(TraceFixture, SizeMismatchRejected) {
  BranchTrace t(4);
  EXPECT_THROW(t.Append(Assign(0, 0)), InvalidArgument);
}

TEST_F(TraceFixture, EmpiricalProbabilityCountsResolvedOnly) {
  BranchTrace t(ex_.graph.task_count());
  t.Append(Assign(0, -1));
  t.Append(Assign(0, -1));
  t.Append(Assign(1, 0));
  t.Append(Assign(1, 1));
  EXPECT_DOUBLE_EQ(t.EmpiricalProbability(ForkA(), 0), 0.5);
  // Fork B resolved in only 2 of 4 instances.
  EXPECT_DOUBLE_EQ(t.EmpiricalProbability(ForkB(), 0), 0.5);
  EXPECT_DOUBLE_EQ(t.EmpiricalProbability(ForkA(), 1, 0, 2), 0.0);
}

TEST_F(TraceFixture, SliceIsHalfOpen) {
  BranchTrace t(ex_.graph.task_count());
  for (int i = 0; i < 6; ++i) t.Append(Assign(i % 2, -1));
  const BranchTrace mid = t.Slice(2, 5);
  EXPECT_EQ(mid.size(), 3u);
  EXPECT_EQ(mid.At(0).Get(ForkA()), 0);
  EXPECT_THROW(t.Slice(4, 2), InvalidArgument);
  EXPECT_THROW(t.Slice(0, 9), InvalidArgument);
}

TEST_F(TraceFixture, ProfiledProbabilitiesMatchCounts) {
  BranchTrace t(ex_.graph.task_count());
  for (int i = 0; i < 10; ++i) t.Append(Assign(i < 7 ? 0 : 1, -1));
  const auto probs = t.ProfiledProbabilities(ex_.graph);
  EXPECT_NEAR(probs.Outcome(ForkA(), 0), 0.7, 1e-12);
  // Fork B never resolved -> uniform prior.
  EXPECT_NEAR(probs.Outcome(ForkB(), 0), 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Fork columns against the per-task store they replaced

/// The per-task store BranchTrace kept before it learned its columns:
/// one byte per task per instance. Kept as the reference the column
/// store must answer exactly like.
class PerTaskTrace {
 public:
  explicit PerTaskTrace(std::size_t task_count) : task_count_(task_count) {}

  void Append(const ctg::BranchAssignment& assignment) {
    const std::size_t row = outcomes_.size();
    outcomes_.resize(row + task_count_, kUnset);
    for (std::size_t t = 0; t < task_count_; ++t) {
      const int outcome = assignment.Get(TaskId{static_cast<int>(t)});
      if (outcome >= 0) outcomes_[row + t] = static_cast<std::uint8_t>(outcome);
    }
    ++size_;
  }

  ctg::BranchAssignment At(std::size_t i) const {
    ctg::BranchAssignment assignment(task_count_);
    for (std::size_t t = 0; t < task_count_; ++t) {
      const std::uint8_t outcome = outcomes_[i * task_count_ + t];
      if (outcome != kUnset) {
        assignment.Set(TaskId{static_cast<int>(t)}, outcome);
      }
    }
    return assignment;
  }

  double EmpiricalProbability(TaskId fork, int outcome, std::size_t begin,
                              std::size_t end) const {
    std::size_t resolved = 0;
    std::size_t hits = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint8_t selected = outcomes_[i * task_count_ + fork.index()];
      if (selected == kUnset) continue;
      ++resolved;
      if (selected == outcome) ++hits;
    }
    if (resolved == 0) return 0.0;
    return static_cast<double>(hits) / static_cast<double>(resolved);
  }

  PerTaskTrace Slice(std::size_t begin, std::size_t end) const {
    PerTaskTrace out(task_count_);
    for (std::size_t i = begin; i < end; ++i) out.Append(At(i));
    return out;
  }

  ctg::BranchProbabilities ProfiledProbabilities(const ctg::Ctg& graph) const {
    ctg::BranchProbabilities probs(task_count_);
    for (TaskId fork : graph.ForkIds()) {
      const int arity = graph.OutcomeCount(fork);
      std::vector<double> dist(static_cast<std::size_t>(arity), 0.0);
      std::size_t resolved = 0;
      for (std::size_t i = 0; i < size_; ++i) {
        const std::uint8_t selected =
            outcomes_[i * task_count_ + fork.index()];
        if (selected == kUnset) continue;
        ++resolved;
        dist[selected] += 1.0;
      }
      for (double& p : dist) {
        p = resolved == 0 ? 1.0 / static_cast<double>(arity)
                          : p / static_cast<double>(resolved);
      }
      probs.Set(fork, std::move(dist));
    }
    return probs;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint8_t kUnset = 0xFF;
  std::size_t task_count_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> outcomes_;
};

/// The reference holding the decisions of \p trace, read through At().
PerTaskTrace ReferenceOf(const BranchTrace& trace) {
  PerTaskTrace reference(trace.task_count());
  for (std::size_t i = 0; i < trace.size(); ++i) reference.Append(trace.At(i));
  return reference;
}

/// Every instance, every fork's empirical probability over the whole
/// trace and two sub-ranges, and the profiled probabilities of
/// \p graph equal the reference's, bit for bit.
void ExpectAnswersLike(const BranchTrace& trace, const PerTaskTrace& reference,
                       const ctg::Ctg& graph) {
  ASSERT_EQ(trace.size(), reference.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ctg::BranchAssignment got = trace.At(i);
    const ctg::BranchAssignment want = reference.At(i);
    for (TaskId task : graph.TaskIds()) {
      ASSERT_EQ(got.Get(task), want.Get(task)) << i << " " << task.value;
    }
  }
  const std::size_t n = trace.size();
  const std::size_t ranges[][2] = {{0, n}, {n / 3, n / 2}, {n / 2, n / 2}};
  for (TaskId fork : graph.ForkIds()) {
    for (int o = 0; o < graph.OutcomeCount(fork); ++o) {
      for (const auto& range : ranges) {
        EXPECT_EQ(trace.EmpiricalProbability(fork, o, range[0], range[1]),
                  reference.EmpiricalProbability(fork, o, range[0], range[1]))
            << fork.value << " " << o;
      }
    }
  }
  const ctg::BranchProbabilities got = trace.ProfiledProbabilities(graph);
  const ctg::BranchProbabilities want = reference.ProfiledProbabilities(graph);
  for (TaskId fork : graph.ForkIds()) {
    for (int o = 0; o < graph.OutcomeCount(fork); ++o) {
      EXPECT_EQ(got.Outcome(fork, o), want.Outcome(fork, o));
    }
  }
}

/// ExpectAnswersLike on the whole trace and on three slices of it.
void ExpectMatchesPerTaskStore(const BranchTrace& trace,
                               const ctg::Ctg& graph) {
  const PerTaskTrace reference = ReferenceOf(trace);
  ExpectAnswersLike(trace, reference, graph);
  const std::size_t n = trace.size();
  const std::size_t slices[][2] = {{0, n / 2}, {n / 4, n}, {n, n}};
  for (const auto& slice : slices) {
    ExpectAnswersLike(trace.Slice(slice[0], slice[1]),
                      reference.Slice(slice[0], slice[1]), graph);
  }
}

/// The generators decide every fork in every instance, so the trace
/// keeps exactly one column per fork.
void ExpectOneColumnPerFork(const BranchTrace& trace, const ctg::Ctg& graph) {
  std::vector<TaskId> columns(trace.deciding_tasks().begin(),
                              trace.deciding_tasks().end());
  std::sort(columns.begin(), columns.end());
  std::vector<TaskId> forks = graph.ForkIds();
  std::sort(forks.begin(), forks.end());
  EXPECT_EQ(columns, forks);
  EXPECT_EQ(trace.stored_bytes(), trace.size() * forks.size());
}

TEST(BranchTraceColumns, TenantTracesMatchThePerTaskStore) {
  // Movie, road and random-walk traces of all four workloads.
  for (apps::TenantWorkload workload :
       {apps::TenantWorkload::kMpeg, apps::TenantWorkload::kCruise,
        apps::TenantWorkload::kRandomForkJoin,
        apps::TenantWorkload::kRandomFlat}) {
    const apps::TenantModel model(workload, 11);
    const BranchTrace trace = model.MakeTrace(96, util::Random(5));
    SCOPED_TRACE(std::string(apps::TenantWorkloadName(workload)));
    ASSERT_EQ(trace.size(), 96u);
    ExpectOneColumnPerFork(trace, model.graph());
    ExpectMatchesPerTaskStore(trace, model.graph());
    if (workload == apps::TenantWorkload::kMpeg) {
      EXPECT_EQ(trace.stored_bytes(), 96u * 9u);  // 40 tasks, 9 forks
    }
    if (workload == apps::TenantWorkload::kCruise) {
      EXPECT_EQ(trace.stored_bytes(), 96u * 2u);  // 32 tasks, 2 forks
    }
  }
}

TEST_F(TraceFixture, GeneratorAndFuzzTracesMatchThePerTaskStore) {
  TraceGenerator gen(ex_.graph);
  gen.SetProcess(ForkA(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.3, 0.7}));
  gen.SetProcess(ForkB(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.6, 0.4}));
  util::Random rng(21);
  const BranchTrace generated = gen.Generate(200, rng);
  ExpectOneColumnPerFork(generated, ex_.graph);
  ExpectMatchesPerTaskStore(generated, ex_.graph);

  const BranchTrace sampled = check::SampleTrace(
      ex_.graph, apps::UniformProbabilities(ex_.graph), 150, 9);
  ExpectOneColumnPerFork(sampled, ex_.graph);
  ExpectMatchesPerTaskStore(sampled, ex_.graph);
}

TEST_F(TraceFixture, NestedForkUnsetEarlyReadsUnsetAfterItsColumnArrives) {
  // Fork B lies under a2: it decides only from instance 4 on, so its
  // column is learned late and the earlier instances must read unset.
  BranchTrace t(ex_.graph.task_count());
  PerTaskTrace reference(ex_.graph.task_count());
  t.Reserve(10);
  for (int i = 0; i < 10; ++i) {
    const ctg::BranchAssignment asg =
        i < 4 ? Assign(0, -1) : Assign(1, i % 2);
    t.Append(asg);
    reference.Append(asg);
    EXPECT_EQ(t.deciding_tasks().size(), i < 4 ? 1u : 2u);
    EXPECT_EQ(t.stored_bytes(), t.size() * t.deciding_tasks().size());
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t.At(i).Get(ForkB()), -1);
  EXPECT_EQ(t.At(4).Get(ForkB()), 0);
  EXPECT_EQ(t.At(5).Get(ForkB()), 1);
  EXPECT_DOUBLE_EQ(t.EmpiricalProbability(ForkB(), 0), 0.5);
  EXPECT_EQ(t.EmpiricalProbability(ForkB(), 0, 0, 4), 0.0);
  ExpectAnswersLike(t, reference, ex_.graph);
  // A slice before the fork decides keeps no column for it.
  const BranchTrace early = t.Slice(0, 4);
  EXPECT_EQ(early.deciding_tasks().size(), 1u);
  EXPECT_EQ(early.stored_bytes(), 4u);
  ExpectAnswersLike(early, reference.Slice(0, 4), ex_.graph);
}

TEST(BranchTraceColumns, RejectedAppendLeavesSizeColumnsAndBytes) {
  BranchTrace t(4);
  ctg::BranchAssignment first(4);
  first.Set(TaskId{1}, 3);
  t.Append(first);
  // Task 2 would be a new column, but task 3's outcome does not fit.
  ctg::BranchAssignment rejected(4);
  rejected.Set(TaskId{1}, 0);
  rejected.Set(TaskId{2}, 1);
  rejected.Set(TaskId{3}, 255);
  EXPECT_THROW(t.Append(rejected), InvalidArgument);
  ASSERT_EQ(t.size(), 1u);
  ASSERT_EQ(t.deciding_tasks().size(), 1u);
  EXPECT_EQ(t.deciding_tasks()[0], TaskId{1});
  EXPECT_EQ(t.stored_bytes(), 1u);
  EXPECT_EQ(t.At(0).Get(TaskId{1}), 3);
  EXPECT_EQ(t.At(0).Get(TaskId{2}), -1);
  rejected.Set(TaskId{3}, 254);
  t.Append(rejected);
  EXPECT_EQ(t.deciding_tasks().size(), 3u);
  EXPECT_EQ(t.stored_bytes(), 6u);
  EXPECT_EQ(t.At(0).Get(TaskId{3}), -1);
  EXPECT_EQ(t.At(1).Get(TaskId{3}), 254);
}

// ---------------------------------------------------------------------------
// Probability processes

TEST(ConstantProcess, AlwaysSameDistribution) {
  util::Random rng(1);
  ConstantProcess p({0.3, 0.7});
  for (int i = 0; i < 5; ++i) {
    const auto d = p.Step(rng);
    EXPECT_DOUBLE_EQ(d[0], 0.3);
    EXPECT_DOUBLE_EQ(d[1], 0.7);
  }
  EXPECT_EQ(p.outcome_count(), 2);
}

TEST(ConstantProcess, ValidatesDistribution) {
  EXPECT_THROW(ConstantProcess({1.0}), InvalidArgument);
  EXPECT_THROW(ConstantProcess({0.6, 0.6}), InvalidArgument);
}

TEST(RandomWalkProcess, StaysNormalizedAndBounded) {
  util::Random rng(2);
  RandomWalkProcess::Params params;
  params.initial_weights = {0.5, 0.5};
  params.step_sigma = 0.1;
  params.jump_probability = 0.05;
  RandomWalkProcess p(params);
  for (int i = 0; i < 2000; ++i) {
    const auto d = p.Step(rng);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_NEAR(d[0] + d[1], 1.0, 1e-12);
    EXPECT_GT(d[0], 0.0);
    EXPECT_LT(d[0], 1.0);
  }
}

TEST(RandomWalkProcess, ZeroSigmaNoJumpIsConstant) {
  util::Random rng(3);
  RandomWalkProcess::Params params;
  params.initial_weights = {0.4, 0.8};
  params.step_sigma = 0.0;
  RandomWalkProcess p(params);
  const auto first = p.Step(rng);
  const auto later = p.Step(rng);
  EXPECT_DOUBLE_EQ(first[0], later[0]);
  EXPECT_NEAR(first[0], 0.4 / 1.2, 1e-12);
}

TEST(RandomWalkProcess, ValidatesParams) {
  RandomWalkProcess::Params params;
  params.initial_weights = {0.5, 0.5};
  params.floor = 0.0;
  EXPECT_THROW((RandomWalkProcess{params}), InvalidArgument);
  params.floor = 0.05;
  params.initial_weights = {0.01, 0.5};  // below floor
  EXPECT_THROW((RandomWalkProcess{params}), InvalidArgument);
}

TEST(PiecewiseProcess, CyclesThroughRegimes) {
  util::Random rng(4);
  PiecewiseProcess p({{{0.9, 0.1}, 2}, {{0.2, 0.8}, 1}});
  EXPECT_DOUBLE_EQ(p.Step(rng)[0], 0.9);
  EXPECT_DOUBLE_EQ(p.Step(rng)[0], 0.9);
  EXPECT_DOUBLE_EQ(p.Step(rng)[0], 0.2);
  EXPECT_DOUBLE_EQ(p.Step(rng)[0], 0.9);  // wraps around
}

TEST(PiecewiseProcess, ValidatesRegimes) {
  EXPECT_THROW(PiecewiseProcess({}), InvalidArgument);
  EXPECT_THROW(PiecewiseProcess({{{0.9, 0.1}, 0}}), InvalidArgument);
  EXPECT_THROW(PiecewiseProcess({{{0.9, 0.1}, 1}, {{0.2, 0.3, 0.5}, 1}}),
               InvalidArgument);
}

TEST(SinusoidProcess, OscillatesAroundCenterWithAmplitude) {
  util::Random rng(5);
  SinusoidProcess::Params params;
  params.center = 0.5;
  params.amplitude = 0.3;
  params.period = 40.0;
  SinusoidProcess p(params);
  util::RunningStats stats;
  for (int i = 0; i < 400; ++i) stats.Add(p.Step(rng)[0]);
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.max(), 0.8, 0.01);
  EXPECT_NEAR(stats.min(), 0.2, 0.01);
}

TEST(SinusoidProcess, ResidualSplitsAcrossOutcomes) {
  util::Random rng(6);
  SinusoidProcess::Params params;
  params.outcomes = 3;
  params.amplitude = 0.0;
  SinusoidProcess p(params);
  const auto d = p.Step(rng);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_NEAR(d[0], 0.5, 1e-12);
  EXPECT_NEAR(d[1], 0.25, 1e-12);
  EXPECT_NEAR(d[2], 0.25, 1e-12);
}

TEST(SinusoidProcess, ValidatesRange) {
  SinusoidProcess::Params params;
  params.center = 0.5;
  params.amplitude = 0.6;  // would leave [0, 1]
  EXPECT_THROW((SinusoidProcess{params}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// TraceGenerator

TEST_F(TraceFixture, GeneratorRequiresAllForks) {
  TraceGenerator gen(ex_.graph);
  EXPECT_FALSE(gen.Complete());
  gen.SetProcess(ForkA(),
                 std::make_unique<ConstantProcess>(
                     std::vector<double>{0.5, 0.5}));
  EXPECT_FALSE(gen.Complete());
  util::Random rng(7);
  EXPECT_THROW(gen.Generate(10, rng), InvalidArgument);
  gen.SetProcess(ForkB(),
                 std::make_unique<ConstantProcess>(
                     std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(gen.Complete());
  EXPECT_EQ(gen.Generate(10, rng).size(), 10u);
}

TEST_F(TraceFixture, GeneratorRejectsArityMismatch) {
  TraceGenerator gen(ex_.graph);
  EXPECT_THROW(
      gen.SetProcess(ForkA(), std::make_unique<ConstantProcess>(
                                  std::vector<double>{0.2, 0.3, 0.5})),
      InvalidArgument);
  EXPECT_THROW(
      gen.SetProcess(ex_.tau(1), std::make_unique<ConstantProcess>(
                                     std::vector<double>{0.5, 0.5})),
      InvalidArgument);
}

TEST_F(TraceFixture, GeneratedFrequenciesMatchProcess) {
  TraceGenerator gen(ex_.graph);
  gen.SetProcess(ForkA(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.8, 0.2}));
  gen.SetProcess(ForkB(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.3, 0.7}));
  util::Random rng(8);
  const BranchTrace t = gen.Generate(20000, rng);
  EXPECT_NEAR(t.EmpiricalProbability(ForkA(), 0), 0.8, 0.01);
  EXPECT_NEAR(t.EmpiricalProbability(ForkB(), 0), 0.3, 0.01);
}

TEST_F(TraceFixture, TrueProbabilityHistoryRecorded) {
  TraceGenerator gen(ex_.graph);
  gen.SetProcess(ForkA(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.8, 0.2}));
  gen.SetProcess(ForkB(), std::make_unique<ConstantProcess>(
                              std::vector<double>{0.3, 0.7}));
  util::Random rng(9);
  gen.Generate(50, rng);
  const auto& history = gen.TrueProbabilityHistory(ForkA());
  ASSERT_EQ(history.size(), 50u);
  EXPECT_DOUBLE_EQ(history[0], 0.8);
  EXPECT_DOUBLE_EQ(history[49], 0.8);
}

TEST_F(TraceFixture, GenerationIsDeterministicInSeed) {
  auto make = [&](std::uint64_t seed) {
    TraceGenerator gen(ex_.graph);
    RandomWalkProcess::Params params;
    params.initial_weights = {0.5, 0.5};
    params.step_sigma = 0.05;
    gen.SetProcess(ForkA(),
                   std::make_unique<RandomWalkProcess>(params));
    gen.SetProcess(ForkB(),
                   std::make_unique<RandomWalkProcess>(params));
    util::Random rng(seed);
    return gen.Generate(200, rng);
  };
  const BranchTrace a = make(42), b = make(42), c = make(43);
  int diff_ab = 0, diff_ac = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.At(i).Get(ForkA()) != b.At(i).Get(ForkA())) ++diff_ab;
    if (a.At(i).Get(ForkA()) != c.At(i).Get(ForkA())) ++diff_ac;
  }
  EXPECT_EQ(diff_ab, 0);
  EXPECT_GT(diff_ac, 0);
}


TEST(MarkovProcess, ValidatesInputs) {
  MarkovProcess::Params params;
  params.state_dists = {{0.9, 0.1}, {0.2, 0.8}};
  params.transitions = {{0.95, 0.05}, {0.1, 0.9}};
  EXPECT_NO_THROW((MarkovProcess{params}));
  params.transitions = {{0.95, 0.05}};
  EXPECT_THROW((MarkovProcess{params}), InvalidArgument);
  params.transitions = {{0.95, 0.15}, {0.1, 0.9}};  // row sums to 1.1
  EXPECT_THROW((MarkovProcess{params}), InvalidArgument);
  params.transitions = {{0.95, 0.05}, {0.1, 0.9}};
  params.initial_state = 5;
  EXPECT_THROW((MarkovProcess{params}), InvalidArgument);
  params.initial_state = 0;
  params.state_dists = {{0.9, 0.1}, {0.2, 0.3, 0.5}};  // arity mismatch
  EXPECT_THROW((MarkovProcess{params}), InvalidArgument);
}

TEST(MarkovProcess, StationaryMixMatchesChain) {
  // Two-state chain with stationary distribution (2/3, 1/3):
  // transitions 0->1 at 0.1, 1->0 at 0.2.
  MarkovProcess::Params params;
  params.state_dists = {{0.9, 0.1}, {0.2, 0.8}};
  params.transitions = {{0.9, 0.1}, {0.2, 0.8}};
  MarkovProcess p(params);
  util::Random rng(17);
  double mean_p0 = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) mean_p0 += p.Step(rng)[0];
  mean_p0 /= n;
  // E[p0] = (2/3)*0.9 + (1/3)*0.2 = 0.6667.
  EXPECT_NEAR(mean_p0, 2.0 / 3.0 * 0.9 + 1.0 / 3.0 * 0.2, 0.02);
}

TEST(MarkovProcess, DwellTimesAreGeometric) {
  MarkovProcess::Params params;
  params.state_dists = {{0.9, 0.1}, {0.2, 0.8}};
  params.transitions = {{0.95, 0.05}, {0.05, 0.95}};
  MarkovProcess p(params);
  util::Random rng(18);
  // Measure average run length of the hidden state; for stay-prob 0.95
  // the mean dwell is 1/0.05 = 20.
  int runs = 0, steps = 20000;
  std::size_t last = p.state();
  for (int i = 0; i < steps; ++i) {
    p.Step(rng);
    if (p.state() != last) {
      ++runs;
      last = p.state();
    }
  }
  const double mean_dwell = static_cast<double>(steps) / (runs + 1);
  EXPECT_NEAR(mean_dwell, 20.0, 4.0);
}

TEST_F(TraceFixture, MarkovProcessDrivesGenerator) {
  TraceGenerator gen(ex_.graph);
  MarkovProcess::Params params;
  params.state_dists = {{0.9, 0.1}, {0.1, 0.9}};
  params.transitions = {{0.98, 0.02}, {0.02, 0.98}};
  gen.SetProcess(ForkA(), std::make_unique<MarkovProcess>(params));
  gen.SetProcess(ForkB(), std::make_unique<MarkovProcess>(params));
  util::Random rng(19);
  const BranchTrace t = gen.Generate(2000, rng);
  // Long-run average near 0.5 (symmetric chain), but windows cluster at
  // the two modes.
  EXPECT_NEAR(t.EmpiricalProbability(ForkA(), 0), 0.5, 0.15);
  int extreme_windows = 0;
  for (std::size_t begin = 0; begin + 100 <= t.size(); begin += 100) {
    const double p = t.EmpiricalProbability(ForkA(), 0, begin, begin + 100);
    if (p < 0.25 || p > 0.75) ++extreme_windows;
  }
  EXPECT_GT(extreme_windows, 5);
}

}  // namespace
}  // namespace actg::trace


// ---------------------------------------------------------------------------
// Structured tracing (src/obs): span lifecycle, export determinism and
// the disabled fast path.
// ---------------------------------------------------------------------------

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "dvfs/algorithms.h"
#include "golden_file.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"

namespace actg::obs {
namespace {

TraceOptions Deterministic() {
  TraceOptions options;
  options.deterministic_clock = true;
  return options;
}

/// Event key ignoring timestamps and thread ids: the part of the trace
/// the determinism contract covers.
std::vector<std::string> ContentKeys(const std::vector<TraceEvent>& events) {
  std::vector<std::string> keys;
  keys.reserve(events.size());
  for (const TraceEvent& e : events) {
    std::string key;
    key += static_cast<char>(e.phase);
    key += '|';
    key += e.name;
    key += '|';
    key += e.category;
    for (const TraceArg& arg : e.args) {
      key += '|';
      key += arg.key;
      key += '=';
      key += arg.value;
    }
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Pipeline options that record into \p session.
dvfs::PolicyRunOptions Traced(TraceSession* session) {
  dvfs::PolicyRunOptions options;
  options.trace = session;
  return options;
}

/// A Fig. 1 controller recording into \p session only, driven through
/// \p instances vectors whose branch probabilities swing sinusoidally,
/// drawn with \p seed.
void RunFig1Controller(TraceSession* session, std::size_t instances,
                       std::uint64_t seed) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  trace::TraceGenerator gen(ex.graph);
  double period = 60.0;
  for (TaskId fork : ex.graph.ForkIds()) {
    trace::SinusoidProcess::Params params;
    params.amplitude = 0.45;
    params.period = period;
    period += 30.0;
    gen.SetProcess(fork, std::make_unique<trace::SinusoidProcess>(params));
  }
  util::Random rng(seed);
  const trace::BranchTrace vectors = gen.Generate(instances, rng);
  adaptive::AdaptiveOptions options;
  options.threshold = 0.1;
  options.trace = session;
  adaptive::AdaptiveController controller(
      ex.graph, analysis, ex.platform,
      apps::UniformProbabilities(ex.graph), options);
  adaptive::RunAdaptive(controller, vectors);
}

#ifndef ACTG_OBS_DISABLED

/// Begin-event counts by name: which layers recorded, how often.
std::map<std::string, int> SpanCounts(const std::vector<TraceEvent>& events) {
  std::map<std::string, int> counts;
  for (const TraceEvent& e : events) {
    if (e.phase == EventPhase::kBegin) ++counts[e.name];
  }
  return counts;
}

TEST(ObsTrace, SpanNestingAndLifecycle) {
  TraceSession session(Deterministic());
  {
    ScopedSpan outer(&session, "outer", "test");
    ASSERT_TRUE(outer.enabled());
    outer.AddArg(IntArg("tasks", 7));
    {
      ScopedSpan inner(&session, "inner", "test");
      inner.AddArg(StrArg("policy", "online"));
      inner.AddArg(NumArg("ratio", 0.5));
    }
    session.Counter("calls", "test", 3.0);
    session.Instant("tick", "test", {IntArg("i", 1)});
  }

  const std::vector<TraceEvent> events = session.Events();
  ASSERT_EQ(events.size(), 6u);
  // outer B, inner B, inner E, counter, instant, outer E — strictly
  // nested, sequence-numbered timestamps.
  EXPECT_EQ(events[0].phase, EventPhase::kBegin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].phase, EventPhase::kBegin);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, EventPhase::kEnd);
  EXPECT_EQ(events[2].name, "inner");
  ASSERT_EQ(events[2].args.size(), 2u);
  EXPECT_EQ(events[2].args[0].key, "policy");
  EXPECT_EQ(events[2].args[0].value, "online");
  EXPECT_TRUE(events[2].args[0].quoted);
  EXPECT_EQ(events[2].args[1].value, "0.5");
  EXPECT_EQ(events[3].phase, EventPhase::kCounter);
  EXPECT_EQ(events[4].phase, EventPhase::kInstant);
  EXPECT_EQ(events[5].phase, EventPhase::kEnd);
  EXPECT_EQ(events[5].name, "outer");
  ASSERT_EQ(events[5].args.size(), 1u);
  EXPECT_EQ(events[5].args[0].value, "7");
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, i) << "deterministic clock = sequence";
    EXPECT_EQ(events[i].tid, 0);
  }
}

TEST(ObsTrace, NullSessionRecordsNothing) {
  // Instrumentation handed no session must not touch any session.
  ScopedSpan span(nullptr, "orphan", "test");
  EXPECT_FALSE(span.enabled());

  TraceSession bystander(Deterministic());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  dvfs::RunWithPolicy("online", ex.graph, analysis, ex.platform, probs);
  RunFig1Controller(nullptr, 50, 3);
  EXPECT_TRUE(bystander.Events().empty());
  EXPECT_TRUE(bystander.Timeline().empty());
}

TEST(ObsTrace, PipelineSpansBalanceAndNest) {
  TraceSession session(Deterministic());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  dvfs::RunWithPolicy("online", ex.graph, analysis, ex.platform, probs,
                      Traced(&session));
  const std::vector<TraceEvent> events = session.Events();
  ASSERT_FALSE(events.empty());
  // The pipeline records the scheduler, the path enumeration and the
  // stretch policy.
  auto has = [&](const std::string& name) {
    return std::any_of(events.begin(), events.end(),
                       [&](const TraceEvent& e) { return e.name == name; });
  };
  EXPECT_TRUE(has("sched.dls"));
  EXPECT_TRUE(has("dvfs.enumerate"));
  EXPECT_TRUE(has("dvfs.stretch"));
  // Begin/End balance per thread, never closing an unopened span.
  std::map<int, int> depth;
  for (const TraceEvent& e : events) {
    if (e.phase == EventPhase::kBegin) ++depth[e.tid];
    if (e.phase == EventPhase::kEnd) {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(ObsTrace, GoldenChromeTraceFig1) {
  // Byte-exact export of the online pipeline on the paper's Fig. 1
  // example under the deterministic clock. Regenerate with
  //   ACTG_REGOLDEN=1 ./test_trace --gtest_filter='*GoldenChromeTrace*'
  TraceSession session(Deterministic());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  dvfs::RunWithPolicy("online", ex.graph, analysis, ex.platform, probs,
                      Traced(&session));
  std::ostringstream out;
  WriteChromeTrace(out, session);
  actg::golden::ExpectMatches(out.str(), "fig1_trace.json");
}

TEST(ObsTrace, ChromeExportEscapesJson) {
  TraceSession session(Deterministic());
  session.Instant("quote\"back\\slash", "test",
                  {StrArg("k", "line\nbreak\ttab")});
  std::ostringstream out;
  WriteChromeTrace(out, session);
  const std::string json = out.str();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak\\ttab"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(ObsTrace, JobsOneVersusFourSameContent) {
  // The determinism contract: worker count changes timestamps and
  // thread ids, never the multiset of recorded span contents.
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  auto run = [&](std::size_t jobs) {
    TraceSession session;
    runtime::Pool pool(jobs, &session);
    runtime::ParallelMap(pool, 6, [&](std::size_t) {
      dvfs::RunWithPolicy("online", ex.graph, analysis, ex.platform, probs,
                          Traced(&session));
      return 0;
    });
    const std::vector<TraceEvent> events = session.Events();
    EXPECT_EQ(SpanCounts(events).at("pool.job"), 6);
    return ContentKeys(events);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ObsTrace, AdaptiveControllerEmitsTimeline) {
  TraceSession session(Deterministic());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  adaptive::AdaptiveOptions options;
  options.trace = &session;
  adaptive::AdaptiveController controller(ex.graph, analysis, ex.platform,
                                          probs, options);
  ctg::BranchAssignment assignment(ex.graph.task_count());
  for (TaskId fork : ex.graph.ForkIds()) assignment.Set(fork, 0);
  const std::size_t instances = 3;
  for (std::size_t i = 0; i < instances; ++i) {
    controller.ProcessInstance(assignment);
  }

  const std::vector<TimelineRow> rows = session.Timeline();
  const std::size_t pes = ex.platform.pe_count();
  ASSERT_EQ(rows.size(), instances * pes);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].unit, rows[0].unit);
    EXPECT_EQ(rows[i].iteration, i / pes);
    EXPECT_EQ(rows[i].pe, static_cast<int>(i % pes));
    EXPECT_GE(rows[i].mean_speed_ratio, 0.0);
    EXPECT_LE(rows[i].mean_speed_ratio, 1.0 + 1e-9);
  }

  std::ostringstream csv;
  WriteTimelineCsv(csv, session);
  std::istringstream lines(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "unit,iteration,pe,active_tasks,busy_ms,mean_speed_ratio,"
            "reschedules");
  std::size_t body = 0;
  for (std::string line; std::getline(lines, line);) ++body;
  EXPECT_EQ(body, rows.size());

  // The controller also spans every instance and counts reschedules.
  const auto events = session.Events();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const TraceEvent& e) {
                            return e.name == "adaptive.instance";
                          }));
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const TraceEvent& e) {
                            return e.phase == EventPhase::kCounter &&
                                   e.name == "adaptive.reschedule_calls";
                          }));
}

TEST(ObsTrace, ControllerSessionReceivesEveryLayer) {
  // A controller given only AdaptiveOptions::trace records every layer
  // it drives into that session, not only its own spans: the initial
  // reschedule's DLS, enumeration and stretch, and each instance.
  TraceSession session(Deterministic());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  adaptive::AdaptiveOptions options;
  options.trace = &session;
  adaptive::AdaptiveController controller(
      ex.graph, analysis, ex.platform, apps::UniformProbabilities(ex.graph),
      options);
  ctg::BranchAssignment assignment(ex.graph.task_count());
  for (TaskId fork : ex.graph.ForkIds()) assignment.Set(fork, 0);
  for (int i = 0; i < 3; ++i) controller.ProcessInstance(assignment);

  const std::map<std::string, int> expected = {
      {"adaptive.instance", 3}, {"adaptive.reschedule", 1},
      {"dvfs.enumerate", 1},    {"dvfs.stretch", 1},
      {"sched.dls", 1},         {"sim.instance", 3}};
  EXPECT_EQ(SpanCounts(session.Events()), expected);
}

TEST(ObsTrace, ConcurrentControllersKeepTheirSessionsApart) {
  // Two controllers on two workers, each with its own session: each
  // session holds exactly what its controller records when run alone.
  const std::uint64_t seeds[2] = {11, 12};
  std::vector<std::string> alone[2];
  for (int c = 0; c < 2; ++c) {
    TraceSession session;
    RunFig1Controller(&session, 400, seeds[c]);
    alone[c] = ContentKeys(session.Events());
  }
  ASSERT_NE(alone[0], alone[1]) << "the two runs must be told apart";

  TraceSession sessions[2];
  runtime::Pool pool(2);
  pool.ParallelFor(2, [&](std::size_t c) {
    RunFig1Controller(&sessions[c], 400, seeds[c]);
  });
  for (int c = 0; c < 2; ++c) {
    const std::vector<TraceEvent> events = sessions[c].Events();
    EXPECT_EQ(ContentKeys(events), alone[c]) << "controller " << c;
    EXPECT_GT(SpanCounts(events)["adaptive.reschedule"], 1)
        << "the drive must reschedule, or the check proves little";
  }
}

#else  // ACTG_OBS_DISABLED

TEST(ObsTrace, DisabledBuildIgnoresAnInjectedSession) {
  TraceSession session;
  {
    const ScopedSpan span(&session, "any", "test");
    EXPECT_FALSE(span.enabled());
    runtime::Metrics metrics;
    const runtime::StageProbe probe(&metrics, &session, "stage", "test");
    EXPECT_FALSE(probe.tracing());
  }
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const auto probs = apps::UniformProbabilities(ex.graph);
  runtime::Pool pool(2, &session);
  pool.ParallelFor(2, [&](std::size_t) {
    dvfs::RunWithPolicy("online", ex.graph, analysis, ex.platform, probs,
                        Traced(&session));
  });
  RunFig1Controller(&session, 50, 3);
  EXPECT_TRUE(session.Events().empty());
  EXPECT_TRUE(session.Timeline().empty());
}

#endif  // ACTG_OBS_DISABLED

}  // namespace
}  // namespace actg::obs
