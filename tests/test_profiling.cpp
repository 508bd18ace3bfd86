#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "ctg/graph.h"
#include "profiling/window.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::profiling {
namespace {

class WindowFixture : public ::testing::Test {
 protected:
  WindowFixture() : ex_(apps::MakeFig1Example()), analysis_(ex_.graph) {}
  TaskId ForkA() const { return ex_.tau(3); }
  TaskId ForkB() const { return ex_.tau(5); }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
};

TEST_F(WindowFixture, EmptyBuffersInitially) {
  SlidingWindowProfiler profiler(ex_.graph, 4);
  EXPECT_EQ(profiler.Count(ForkA()), 0u);
  EXPECT_FALSE(profiler.Full(ForkA()));
  EXPECT_THROW(profiler.WindowedDistribution(ForkA()), InvalidArgument);
}

TEST_F(WindowFixture, ObserveFillsAndEvictsFifo) {
  SlidingWindowProfiler profiler(ex_.graph, 3);
  profiler.Observe(ForkA(), 0);
  profiler.Observe(ForkA(), 0);
  profiler.Observe(ForkA(), 1);
  EXPECT_TRUE(profiler.Full(ForkA()));
  EXPECT_NEAR(profiler.WindowedProbability(ForkA(), 0), 2.0 / 3.0, 1e-12);
  // Shifting in another '1' evicts the oldest '0'.
  profiler.Observe(ForkA(), 1);
  EXPECT_EQ(profiler.Count(ForkA()), 3u);
  EXPECT_NEAR(profiler.WindowedProbability(ForkA(), 0), 1.0 / 3.0, 1e-12);
}

TEST_F(WindowFixture, WindowedDistributionSumsToOne) {
  SlidingWindowProfiler profiler(ex_.graph, 8);
  for (int i = 0; i < 8; ++i) profiler.Observe(ForkA(), i % 2);
  const auto dist = profiler.WindowedDistribution(ForkA());
  EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-12);
  EXPECT_NEAR(dist[0], 0.5, 1e-12);
}

TEST_F(WindowFixture, ObserveValidatesInput) {
  SlidingWindowProfiler profiler(ex_.graph, 4);
  EXPECT_THROW(profiler.Observe(ex_.tau(1), 0), InvalidArgument);
  EXPECT_THROW(profiler.Observe(ForkA(), 5), InvalidArgument);
  EXPECT_THROW(profiler.Observe(ForkA(), -1), InvalidArgument);
  EXPECT_THROW(SlidingWindowProfiler(ex_.graph, 0), InvalidArgument);
}

TEST_F(WindowFixture, ObserveInstanceSkipsInactiveForks) {
  SlidingWindowProfiler profiler(ex_.graph, 4);
  ctg::BranchAssignment asg(ex_.graph.task_count());
  asg.Set(ForkA(), 0);  // a1 -> fork B never executes
  asg.Set(ForkB(), 1);  // decision recorded in the vector but unused
  profiler.ObserveInstance(analysis_, asg);
  EXPECT_EQ(profiler.Count(ForkA()), 1u);
  EXPECT_EQ(profiler.Count(ForkB()), 0u);

  asg.Set(ForkA(), 1);  // a2 -> fork B executes
  profiler.ObserveInstance(analysis_, asg);
  EXPECT_EQ(profiler.Count(ForkA()), 2u);
  EXPECT_EQ(profiler.Count(ForkB()), 1u);
}

TEST_F(WindowFixture, ResetClearsEverything) {
  SlidingWindowProfiler profiler(ex_.graph, 4);
  profiler.Observe(ForkA(), 0);
  profiler.Observe(ForkB(), 1);
  profiler.Reset();
  EXPECT_EQ(profiler.Count(ForkA()), 0u);
  EXPECT_EQ(profiler.Count(ForkB()), 0u);
}

TEST_F(WindowFixture, WindowTracksDriftWithBoundedLag) {
  // Feed 0s then 1s; after a full window of 1s the estimate must be 1.
  SlidingWindowProfiler profiler(ex_.graph, 10);
  for (int i = 0; i < 50; ++i) profiler.Observe(ForkA(), 0);
  EXPECT_NEAR(profiler.WindowedProbability(ForkA(), 1), 0.0, 1e-12);
  for (int i = 0; i < 10; ++i) profiler.Observe(ForkA(), 1);
  EXPECT_NEAR(profiler.WindowedProbability(ForkA(), 1), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Differential: the per-fork rings against a std::deque per task that sums
// 1.0 per buffered decision.

/// The reference formulation: one deque per task, the distribution
/// summed entry by entry.
class DequeProfiler {
 public:
  DequeProfiler(const ctg::Ctg& graph, std::size_t window)
      : graph_(&graph), window_(window), buffers_(graph.task_count()) {}

  void Observe(TaskId fork, int outcome) {
    auto& buffer = buffers_[fork.index()];
    buffer.push_back(outcome);
    if (buffer.size() > window_) buffer.pop_front();
  }

  std::size_t Count(TaskId fork) const {
    return buffers_[fork.index()].size();
  }

  std::vector<double> WindowedDistribution(TaskId fork) const {
    const auto& buffer = buffers_[fork.index()];
    std::vector<double> dist(
        static_cast<std::size_t>(graph_->OutcomeCount(fork)), 0.0);
    for (int outcome : buffer) {
      dist[static_cast<std::size_t>(outcome)] += 1.0;
    }
    for (double& p : dist) p /= static_cast<double>(buffer.size());
    return dist;
  }

  void Reset() {
    for (auto& buffer : buffers_) buffer.clear();
  }

 private:
  const ctg::Ctg* graph_;
  std::size_t window_;
  std::vector<std::deque<int>> buffers_;
};

/// Three forks in sequence with 2, 3 and 4 outcomes, each closed by an
/// or-node join.
ctg::Ctg ArityChain() {
  ctg::CtgBuilder builder;
  TaskId prev = builder.AddTask("src");
  for (int arity = 2; arity <= 4; ++arity) {
    const std::string tag = std::to_string(arity);
    const TaskId fork = builder.AddTask("fork" + tag);
    builder.AddEdge(prev, fork);
    const TaskId join = builder.AddOrTask("join" + tag);
    for (int o = 0; o < arity; ++o) {
      const TaskId branch =
          builder.AddTask("b" + tag + "_" + std::to_string(o));
      builder.AddConditionalEdge(fork, branch, o);
      builder.AddEdge(branch, join);
    }
    prev = join;
  }
  builder.SetDeadline(100.0);
  return std::move(builder).Build();
}

TEST(WindowDifferential, RingsMatchDequeReferenceBitForBit) {
  const ctg::Ctg graph = ArityChain();
  const std::vector<TaskId>& forks = graph.ForkIds();
  ASSERT_EQ(forks.size(), 3u);
  // The last window outlasts the stream: memory follows the decisions
  // seen, not the window length.
  for (const std::size_t window : {std::size_t{1}, std::size_t{7},
                                   std::size_t{20}, std::size_t{1} << 40}) {
    SCOPED_TRACE("window " + std::to_string(window));
    SlidingWindowProfiler profiler(graph, window);
    DequeProfiler reference(graph, window);
    util::Random rng(40 + window);
    std::size_t resets = 0;
    for (int step = 0; step < 3000; ++step) {
      if (rng.Bernoulli(0.005)) {
        profiler.Reset();
        reference.Reset();
        ++resets;
      } else {
        const TaskId fork = forks[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(forks.size()) - 1))];
        // Skewed outcomes so the windowed counts really move.
        const int last = graph.OutcomeCount(fork) - 1;
        const int outcome =
            rng.Bernoulli(0.6) ? rng.UniformInt(0, last) : last;
        profiler.Observe(fork, outcome);
        reference.Observe(fork, outcome);
      }
      for (TaskId fork : forks) {
        ASSERT_EQ(profiler.Count(fork), reference.Count(fork));
        EXPECT_EQ(profiler.Full(fork), reference.Count(fork) >= window);
        if (reference.Count(fork) == 0) continue;
        const std::vector<double> got = profiler.WindowedDistribution(fork);
        const std::vector<double> want =
            reference.WindowedDistribution(fork);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t o = 0; o < got.size(); ++o) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[o]),
                    std::bit_cast<std::uint64_t>(want[o]))
              << "step " << step << " fork " << fork.value << " outcome "
              << o;
          EXPECT_EQ(profiler.WindowedProbability(fork, static_cast<int>(o)),
                    got[o]);
        }
      }
    }
    EXPECT_GT(resets, 0u);
  }
}

TEST(WindowDifferential, ChecksStillGuardForksAndOutcomes) {
  const ctg::Ctg graph = ArityChain();
  SlidingWindowProfiler profiler(graph, 5);
  const TaskId four_way = graph.ForkIds().back();
  ASSERT_EQ(graph.OutcomeCount(four_way), 4);
  profiler.Observe(four_way, 3);
  EXPECT_THROW(profiler.Observe(four_way, 4), InvalidArgument);
  EXPECT_THROW(profiler.Observe(TaskId{0}, 0), InvalidArgument);
  EXPECT_THROW(profiler.Count(TaskId{0}), InvalidArgument);
  EXPECT_THROW(profiler.WindowedDistribution(TaskId{0}), InvalidArgument);
  EXPECT_THROW(profiler.WindowedProbability(four_way, 4), InvalidArgument);
  EXPECT_THROW(profiler.WindowedDistribution(graph.ForkIds().front()),
               InvalidArgument);
}

TEST(DistributionDistance, MaxAbsDifference) {
  EXPECT_DOUBLE_EQ(DistributionDistance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(DistributionDistance({0.9, 0.1}, {0.5, 0.5}), 0.4);
  EXPECT_DOUBLE_EQ(DistributionDistance({0.2, 0.3, 0.5}, {0.2, 0.5, 0.3}),
                   0.2);
  EXPECT_THROW(DistributionDistance({0.5, 0.5}, {1.0}), InvalidArgument);
}

TEST(DistributionDistance, ThresholdSemanticsOfThePaper) {
  // Fig. 4: the filtered probability updates when the windowed value
  // moves by more than 0.1 from the value in use.
  EXPECT_GT(DistributionDistance({0.62, 0.38}, {0.50, 0.50}), 0.1);
  EXPECT_LT(DistributionDistance({0.58, 0.42}, {0.50, 0.50}), 0.1);
}

}  // namespace
}  // namespace actg::profiling
