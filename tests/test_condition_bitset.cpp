/// \file test_condition_bitset.cpp
/// Differential tests of the bitset condition algebra against the DNF
/// algebra and against brute-force ground truth (full enumeration of
/// the assignment space). The bitset layer only ever answers
/// form-independent predicates — evaluation, satisfiability,
/// compatibility — so those must agree with the DNF algebra on every
/// input; the randomized sweep below checks ~10k seeded cases.

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "ctg/graph.h"
#include "dvfs/engine_pool.h"
#include "dvfs/path_engine.h"
#include "runtime/metrics.h"

namespace actg::ctg {
namespace {

/// Small random universe: forks TaskId{0..n-1} with arities 2..4, so
/// the full assignment space stays enumerable (<= 256 assignments).
struct Universe {
  std::vector<TaskId> forks;
  std::vector<int> arities;
  ConditionSpace space;

  Universe(std::mt19937_64& rng) {
    std::uniform_int_distribution<int> fork_count(1, 4);
    std::uniform_int_distribution<int> arity(2, 4);
    const int n = fork_count(rng);
    for (int i = 0; i < n; ++i) {
      forks.push_back(TaskId{i});
      arities.push_back(arity(rng));
    }
    space = ConditionSpace(forks, arities);
  }

  Guard::ForkArity ArityFn() const {
    return [this](TaskId fork) {
      return fork.index() < arities.size()
                 ? arities[fork.index()]
                 : 0;
    };
  }

  /// All full branch assignments of the universe.
  std::vector<BranchAssignment> AllAssignments() const {
    std::vector<BranchAssignment> all;
    std::vector<int> pick(forks.size(), 0);
    for (;;) {
      BranchAssignment a(forks.size());
      for (std::size_t f = 0; f < forks.size(); ++f) {
        a.Set(forks[f], pick[f]);
      }
      all.push_back(std::move(a));
      std::size_t f = 0;
      for (; f < forks.size(); ++f) {
        if (++pick[f] < arities[f]) break;
        pick[f] = 0;
      }
      if (f == forks.size()) break;
    }
    return all;
  }

  Minterm RandomMinterm(std::mt19937_64& rng) const {
    std::vector<Condition> conditions;
    for (std::size_t f = 0; f < forks.size(); ++f) {
      if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) continue;
      const int outcome =
          std::uniform_int_distribution<int>(0, arities[f] - 1)(rng);
      conditions.push_back(Condition{forks[f], outcome});
    }
    return *Minterm::FromConditions(std::move(conditions));
  }

  Guard RandomGuard(std::mt19937_64& rng) const {
    Guard g;
    const int terms = std::uniform_int_distribution<int>(0, 3)(rng);
    for (int t = 0; t < terms; ++t) {
      g = g.Or(Guard::Of(RandomMinterm(rng)), ArityFn());
    }
    return g;
  }
};

BitMinterm EncodeM(const ConditionSpace& space, const Minterm& m) {
  BitMinterm out;
  EXPECT_TRUE(space.Encode(m, out));
  return out;
}

BitGuard EncodeG(const ConditionSpace& space, const Guard& g) {
  BitGuard out;
  EXPECT_TRUE(space.Encode(g, out));
  return out;
}

/// Evaluates a bit guard under a full assignment: with every fork
/// constrained, "compatible" collapses to "holds".
bool EvalBit(const ConditionSpace& space, const BitGuard& g,
             const BranchAssignment& a) {
  BitMinterm full;
  EXPECT_TRUE(space.EncodeAssignment(a, full));
  return g.CompatibleWith(full);
}

TEST(BitsetDifferential, MintermOpsMatchDnfAcross10kCases) {
  std::mt19937_64 rng(20240807);
  for (int iter = 0; iter < 10000; ++iter) {
    const Universe u(rng);
    ASSERT_TRUE(u.space.valid());
    const Minterm m1 = u.RandomMinterm(rng);
    const Minterm m2 = u.RandomMinterm(rng);
    const BitMinterm b1 = EncodeM(u.space, m1);
    const BitMinterm b2 = EncodeM(u.space, m2);

    EXPECT_EQ(b1.CompatibleWith(b2), m1.CompatibleWith(m2));
    EXPECT_EQ(b1.Implies(b2), m1.Implies(m2));
    EXPECT_EQ(b2.Implies(b1), m2.Implies(m1));
    EXPECT_EQ(b1.IsTrue(), m1.IsTrue());

    if (m1.CompatibleWith(m2)) {
      BitMinterm conjoined = b1;
      conjoined.ConjoinWith(b2);
      EXPECT_EQ(conjoined, EncodeM(u.space, *m1.Conjoin(m2)));
    }
  }
}

TEST(BitsetDifferential, GuardPredicatesMatchDnfAndGroundTruth) {
  std::mt19937_64 rng(424242);
  for (int iter = 0; iter < 2000; ++iter) {
    const Universe u(rng);
    const auto arity = u.ArityFn();
    const auto assignments = u.AllAssignments();
    const Guard g1 = u.RandomGuard(rng);
    const Guard g2 = u.RandomGuard(rng);
    const Minterm m = u.RandomMinterm(rng);
    const BitGuard bg1 = EncodeG(u.space, g1);
    const BitGuard bg2 = EncodeG(u.space, g2);
    const BitMinterm bm = EncodeM(u.space, m);

    // Point-wise evaluation must agree everywhere.
    bool any1 = false, any2 = false, both = false, with_m = false;
    bool implies_semantically = true;
    for (const BranchAssignment& a : assignments) {
      const bool e1 = g1.Evaluate(a);
      const bool e2 = g2.Evaluate(a);
      EXPECT_EQ(EvalBit(u.space, bg1, a), e1);
      EXPECT_EQ(EvalBit(u.space, bg2, a), e2);
      any1 |= e1;
      any2 |= e2;
      both |= e1 && e2;
      with_m |= e1 && m.Evaluate(a);
      implies_semantically &= !e1 || e2;
    }

    // Emptiness == unsatisfiability (both representations drop
    // contradictory minterms).
    EXPECT_EQ(bg1.IsFalse(), !any1);
    EXPECT_EQ(g1.IsFalse(), !any1);

    // Compatibility == joint satisfiability.
    EXPECT_EQ(bg1.CompatibleWith(bg2), both);
    EXPECT_EQ(g1.CompatibleWith(g2), both);
    EXPECT_EQ(bg1.CompatibleWith(bm), with_m);
    EXPECT_EQ(g1.CompatibleWith(m), with_m);

    // Syntactic implication is sound in both representations.
    if (bg1.Implies(bg2)) {
      EXPECT_TRUE(implies_semantically);
    }
    if (g1.Implies(g2)) {
      EXPECT_TRUE(implies_semantically);
    }

    // Conjunction and disjunction, rebuilt both ways, must evaluate
    // identically to the DNF results.
    BitGuard band = bg1;
    BitGuard scratch;
    band.AndWith(bg2, scratch);
    BitGuard bor = bg1;
    bor.OrWith(bg2);
    BitGuard bandm = bg1;
    bandm.AndWithMinterm(bm);
    const Guard gand = g1.And(g2, arity);
    const Guard gor = g1.Or(g2, arity);
    for (const BranchAssignment& a : assignments) {
      const bool e1 = g1.Evaluate(a);
      EXPECT_EQ(EvalBit(u.space, band, a), gand.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, band, a), e1 && g2.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, bor, a), gor.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, bandm, a), e1 && m.Evaluate(a));
    }
  }
}

TEST(ConditionSpace, SingleOverwideForkFallsBackToDnf) {
  // One fork with more outcomes than the packed width can hold: the
  // space must report invalid (a defined fallback, never UB) and every
  // encode must fail.
  const std::vector<TaskId> forks{TaskId{0}};
  const std::vector<int> arities{
      static_cast<int>(ConditionSpace::kMaxBits) + 44};
  const ConditionSpace space(forks, arities);
  EXPECT_FALSE(space.valid());
  EXPECT_EQ(space.bit_count(), 0u);
  BitMinterm out;
  EXPECT_FALSE(space.Encode(Condition{TaskId{0}, 0}, out));
}

TEST(ConditionSpace, PackedWidthOverflowFallsBackToDnf) {
  // Five 64-outcome forks need 320 bits > kMaxBits == 256.
  std::vector<TaskId> forks;
  std::vector<int> arities;
  for (int f = 0; f < 5; ++f) {
    forks.push_back(TaskId{f});
    arities.push_back(64);
  }
  EXPECT_FALSE(ConditionSpace(forks, arities).valid());

  // Four of them exactly fill the words: still representable.
  forks.pop_back();
  arities.pop_back();
  const ConditionSpace fits(forks, arities);
  EXPECT_TRUE(fits.valid());
  EXPECT_EQ(fits.bit_count(), ConditionSpace::kMaxBits);
  BitMinterm out;
  EXPECT_TRUE(fits.Encode(Condition{TaskId{3}, 63}, out));
  EXPECT_EQ(out.bits[3], 1ull << 63);
}

TEST(ConditionSpace, ActivationAnalysisFallbackCountsMetric) {
  // End-to-end: a graph whose forks exceed the packed width must make
  // ActivationAnalysis retire its bitset layer (an invalid space()), a
  // PathEngine over it count "guard.dnf_fallbacks" in its registry, and
  // every query still be answered through the DNF algebra.
  CtgBuilder builder;
  const TaskId source = builder.AddTask("src");
  TaskId prev = source;
  constexpr int kForks = 3;
  constexpr int kOutcomes = 100;  // 3 * 100 = 300 bits > 256
  std::vector<TaskId> first_branches;  // branch 0 and 1 of each fork
  std::vector<TaskId> second_branches;
  for (int f = 0; f < kForks; ++f) {
    const TaskId fork = builder.AddOrTask("fork" + std::to_string(f));
    builder.AddEdge(prev, fork);
    const TaskId join = builder.AddOrTask("join" + std::to_string(f));
    for (int o = 0; o < kOutcomes; ++o) {
      // Appended: GCC 12.2 flags "b" + std::to_string(f) with a false
      // -Wrestrict.
      std::string name = "b";
      name += std::to_string(f) + "_" + std::to_string(o);
      const TaskId branch = builder.AddTask(name);
      builder.AddConditionalEdge(fork, branch, o);
      builder.AddEdge(branch, join);
      if (o == 0) first_branches.push_back(branch);
      if (o == 1) second_branches.push_back(branch);
    }
    prev = join;
  }
  builder.SetDeadline(1000.0);
  const Ctg graph = std::move(builder).Build();

  const ActivationAnalysis analysis(graph);
  EXPECT_FALSE(analysis.space().valid());
  EXPECT_FALSE(analysis.bit_edge_conditions());

  arch::PlatformBuilder platform_builder(graph.task_count(), 1);
  for (TaskId task : graph.TaskIds()) {
    platform_builder.SetTaskCost(task, PeId{0}, 1.0, 1.0);
  }
  const arch::Platform platform = std::move(platform_builder).Build();
  runtime::Metrics metrics;
  const dvfs::PathEngine engine(graph, analysis, platform,
                                dvfs::PathEngineOptions{.metrics = &metrics});
  EXPECT_FALSE(engine.using_bitset());
  EXPECT_EQ(metrics.counter("guard.dnf_fallbacks"), 1u);

  // A Rescheduler counts it once, at construction, whether it never
  // leases an engine (every request a cache hit) or leases one per
  // computed reschedule. Nominal-floor requests lease without
  // enumerating the million paths of this graph.
  runtime::Metrics facade_metrics;
  dvfs::EnginePool pool;
  adaptive::ReschedulerConfig config;
  config.engines = &pool;
  config.metrics = &facade_metrics;
  adaptive::Rescheduler facade(graph, analysis, platform, config);
  EXPECT_EQ(facade_metrics.counter("guard.dnf_fallbacks"), 1u);
  const BranchProbabilities probs = apps::UniformProbabilities(graph);
  for (int i = 0; i < 2; ++i) {
    facade.Reschedule(probs, adaptive::RescheduleRequest{
                                 config.dls.available_pes, 1.0, "test"});
  }
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(facade_metrics.counter("dvfs.stretch.calls"), 2u);
  EXPECT_EQ(facade_metrics.counter("guard.dnf_fallbacks"), 1u);

  // The DNF algebra still answers every query: two branches of one
  // fork are mutually exclusive, branches of different forks are not.
  EXPECT_TRUE(
      analysis.MutuallyExclusive(first_branches[0], second_branches[0]));
  EXPECT_FALSE(
      analysis.MutuallyExclusive(first_branches[0], first_branches[1]));
}

}  // namespace
}  // namespace actg::ctg
