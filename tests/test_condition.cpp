#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ctg/condition.h"
#include "util/error.h"

namespace actg::ctg {
namespace {

const TaskId kForkA{3};  // two outcomes a1/a2 (paper Fig. 1: τ3)
const TaskId kForkB{5};  // two outcomes b1/b2 (paper Fig. 1: τ5)
const TaskId kForkC{9};  // three outcomes

Guard::ForkArity Arity() {
  return [](TaskId fork) {
    if (fork == kForkA || fork == kForkB) return 2;
    if (fork == kForkC) return 3;
    return 0;
  };
}

/// "f<id>", the fork names of the ToString tests. Appended: GCC 12.2
/// flags `"f" + std::to_string(id)` with a false -Wrestrict.
std::string ForkName(TaskId t) {
  std::string name = "f";
  name += std::to_string(t.value);
  return name;
}

Condition A(int o) { return Condition{kForkA, o}; }
Condition B(int o) { return Condition{kForkB, o}; }
Condition C(int o) { return Condition{kForkC, o}; }

BranchProbabilities MakeProbs(double pa1, double pb1) {
  BranchProbabilities probs(16);
  probs.Set(kForkA, {pa1, 1.0 - pa1});
  probs.Set(kForkB, {pb1, 1.0 - pb1});
  probs.Set(kForkC, {0.2, 0.3, 0.5});
  return probs;
}

// ---------------------------------------------------------------------------
// BranchAssignment / BranchProbabilities

TEST(BranchAssignment, SetAndGet) {
  BranchAssignment a(16);
  EXPECT_EQ(a.Get(kForkA), -1);
  a.Set(kForkA, 1);
  EXPECT_EQ(a.Get(kForkA), 1);
}

TEST(BranchAssignment, RangeChecks) {
  BranchAssignment a(4);
  EXPECT_THROW(a.Set(TaskId{9}, 0), InvalidArgument);
  EXPECT_THROW(a.Set(TaskId{1}, -1), InvalidArgument);
  EXPECT_THROW(a.Get(TaskId{-1}), InvalidArgument);
}

TEST(BranchProbabilities, ValidatesDistribution) {
  BranchProbabilities p(8);
  EXPECT_THROW(p.Set(kForkA, {0.5}), InvalidArgument);          // arity 1
  EXPECT_THROW(p.Set(kForkA, {0.5, 0.6}), InvalidArgument);     // sum != 1
  EXPECT_THROW(p.Set(kForkA, {-0.2, 1.2}), InvalidArgument);    // negative
  EXPECT_NO_THROW(p.Set(kForkA, {0.25, 0.75}));
  EXPECT_TRUE(p.Has(kForkA));
  EXPECT_FALSE(p.Has(kForkB));
  EXPECT_DOUBLE_EQ(p.Outcome(kForkA, 1), 0.75);
  EXPECT_EQ(p.OutcomeCount(kForkA), 2);
}

TEST(BranchProbabilities, QueryingUnsetForkThrows) {
  BranchProbabilities p(8);
  EXPECT_THROW(p.Outcome(kForkA, 0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Minterm

TEST(Minterm, TrueMintermProperties) {
  Minterm m;
  EXPECT_TRUE(m.IsTrue());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_DOUBLE_EQ(m.Probability(MakeProbs(0.3, 0.5)), 1.0);
}

TEST(Minterm, FromConditionsSortsAndDeduplicates) {
  const auto m = Minterm::FromConditions({B(0), A(1), A(1)});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size(), 2u);
  EXPECT_EQ(m->conditions()[0].fork, kForkA);
  EXPECT_EQ(m->conditions()[1].fork, kForkB);
}

TEST(Minterm, FromConditionsRejectsContradiction) {
  EXPECT_FALSE(Minterm::FromConditions({A(0), A(1)}).has_value());
}

TEST(Minterm, CompatibilityRules) {
  const Minterm a1(A(0)), a2(A(1)), b1(B(0));
  EXPECT_FALSE(a1.CompatibleWith(a2));
  EXPECT_TRUE(a1.CompatibleWith(b1));
  EXPECT_TRUE(a1.CompatibleWith(Minterm()));
  EXPECT_TRUE(Minterm().CompatibleWith(a2));
}

TEST(Minterm, ConjoinMergesSortedConditions) {
  const auto ab = Minterm(A(1)).Conjoin(Minterm(B(0)));
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->size(), 2u);
  EXPECT_EQ(ab->OutcomeOf(kForkA), 1);
  EXPECT_EQ(ab->OutcomeOf(kForkB), 0);
  EXPECT_FALSE(ab->OutcomeOf(kForkC).has_value());
}

TEST(Minterm, ConjoinContradictionIsNull) {
  EXPECT_FALSE(Minterm(A(0)).Conjoin(Minterm(A(1))).has_value());
}

TEST(Minterm, ImpliesIsSupersetOfConditions) {
  const auto ab = *Minterm(A(1)).Conjoin(Minterm(B(0)));
  EXPECT_TRUE(ab.Implies(Minterm(A(1))));
  EXPECT_TRUE(ab.Implies(Minterm()));
  EXPECT_FALSE(Minterm(A(1)).Implies(ab));
  EXPECT_FALSE(ab.Implies(Minterm(B(1))));
}

TEST(Minterm, EvaluateAgainstAssignment) {
  BranchAssignment asg(16);
  asg.Set(kForkA, 1);
  asg.Set(kForkB, 0);
  const auto ab = *Minterm(A(1)).Conjoin(Minterm(B(0)));
  EXPECT_TRUE(ab.Evaluate(asg));
  EXPECT_FALSE(Minterm(A(0)).Evaluate(asg));
  EXPECT_TRUE(Minterm().Evaluate(asg));
}

TEST(Minterm, UnresolvedForkEvaluatesFalse) {
  BranchAssignment asg(16);  // nothing resolved
  EXPECT_FALSE(Minterm(A(0)).Evaluate(asg));
}

TEST(Minterm, ProbabilityIsProductOfConditions) {
  const auto probs = MakeProbs(0.4, 0.5);
  const auto ab = *Minterm(A(1)).Conjoin(Minterm(B(0)));
  EXPECT_NEAR(ab.Probability(probs), 0.6 * 0.5, 1e-12);
}

TEST(Minterm, WithoutRemovesOneFork) {
  const auto ab = *Minterm(A(1)).Conjoin(Minterm(B(0)));
  const Minterm only_b = ab.Without(kForkA);
  EXPECT_EQ(only_b, Minterm(B(0)));
  EXPECT_EQ(ab.Without(kForkC), ab);
}

TEST(Minterm, ToStringForms) {
  const auto name = ForkName;
  EXPECT_EQ(Minterm().ToString(name), "1");
  const auto ab = *Minterm(A(1)).Conjoin(Minterm(B(0)));
  EXPECT_EQ(ab.ToString(name), "f3=1&f5=0");
}

// ---------------------------------------------------------------------------
// Guard

TEST(Guard, ConstantsBehave) {
  EXPECT_TRUE(Guard::False().IsFalse());
  EXPECT_TRUE(Guard::True().IsTrue());
  EXPECT_FALSE(Guard::True().IsFalse());
  EXPECT_DOUBLE_EQ(Guard::False().Probability(MakeProbs(0.3, 0.6)), 0.0);
  EXPECT_DOUBLE_EQ(Guard::True().Probability(MakeProbs(0.3, 0.6)), 1.0);
}

TEST(Guard, AbsorptionDropsMoreSpecificMinterm) {
  // a1 | a1&b0  ==  a1
  const Guard g = Guard::Of(Minterm(A(1)))
                      .Or(Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0)))),
                          Arity());
  EXPECT_EQ(g.minterms().size(), 1u);
  EXPECT_EQ(g.minterms()[0], Minterm(A(1)));
}

TEST(Guard, ComplementaryMergeTwoWay) {
  // a0 | a1 == true
  const Guard g =
      Guard::Of(Minterm(A(0))).Or(Guard::Of(Minterm(A(1))), Arity());
  EXPECT_TRUE(g.IsTrue());
}

TEST(Guard, ComplementaryMergeThreeWay) {
  // c0 | c1 | c2 == true (fork C has three outcomes)
  Guard g = Guard::Of(Minterm(C(0)))
                .Or(Guard::Of(Minterm(C(1))), Arity())
                .Or(Guard::Of(Minterm(C(2))), Arity());
  EXPECT_TRUE(g.IsTrue());
}

TEST(Guard, PartialThreeWayDoesNotMerge) {
  Guard g = Guard::Of(Minterm(C(0))).Or(Guard::Of(Minterm(C(1))), Arity());
  EXPECT_FALSE(g.IsTrue());
  EXPECT_EQ(g.minterms().size(), 2u);
}

TEST(Guard, NestedComplementaryMerge) {
  // a1&b0 | a1&b1 == a1
  const Guard g =
      Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0))))
          .Or(Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(1)))), Arity());
  ASSERT_EQ(g.minterms().size(), 1u);
  EXPECT_EQ(g.minterms()[0], Minterm(A(1)));
}

TEST(Guard, PaperFig1Or8Guard) {
  // X(τ8) = 1 | a1 (or-node with an unconditional and an a1 alternative)
  // which simplifies to true by absorption.
  const Guard g =
      Guard::True().Or(Guard::Of(Minterm(A(0))), Arity());
  EXPECT_TRUE(g.IsTrue());
}

TEST(Guard, AndDistributesAndDropsContradictions) {
  // (a0 | a1&b0) & a1  ==  a1&b0
  const Guard left = Guard::Of(Minterm(A(0)))
                         .Or(Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0)))),
                             Arity());
  const Guard result = left.And(Guard::Of(Minterm(A(1))), Arity());
  ASSERT_EQ(result.minterms().size(), 1u);
  EXPECT_EQ(result.minterms()[0],
            *Minterm(A(1)).Conjoin(Minterm(B(0))));
}

TEST(Guard, AndWithFalseIsFalse) {
  EXPECT_TRUE(
      Guard::True().And(Guard::False(), Arity()).IsFalse());
}

TEST(Guard, CompatibleWithDetectsMutualExclusion) {
  const Guard a0 = Guard::Of(Minterm(A(0)));
  const Guard a1b = Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0))));
  EXPECT_FALSE(a0.CompatibleWith(a1b));
  EXPECT_TRUE(a0.CompatibleWith(Guard::True()));
  EXPECT_TRUE(Guard::Of(Minterm(B(0))).CompatibleWith(a0));
}

TEST(Guard, ImpliesRules) {
  const Guard a1 = Guard::Of(Minterm(A(1)));
  const Guard a1b0 = Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0))));
  EXPECT_TRUE(a1b0.Implies(a1));
  EXPECT_FALSE(a1.Implies(a1b0));
  EXPECT_TRUE(a1.Implies(Guard::True()));
  EXPECT_TRUE(Guard::False().Implies(a1));
}

TEST(Guard, ProbabilityOfDisjointUnionAdds) {
  const auto probs = MakeProbs(0.4, 0.5);
  // a0 | a1&b0: disjoint -> 0.4 + 0.6*0.5 = 0.7
  const Guard g = Guard::Of(Minterm(A(0)))
                      .Or(Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0)))),
                          Arity());
  EXPECT_NEAR(g.Probability(probs), 0.7, 1e-12);
}

TEST(Guard, ProbabilityOfOverlappingUnionIsExact) {
  const auto probs = MakeProbs(0.4, 0.5);
  // a0 | b0 overlap: P = 0.4 + 0.5 - 0.2 = 0.7 (inclusion-exclusion)
  const Guard g =
      Guard::Of(Minterm(A(0))).Or(Guard::Of(Minterm(B(0))), Arity());
  EXPECT_NEAR(g.Probability(probs), 0.7, 1e-12);
}

TEST(Guard, ProbabilityThreeWayFork) {
  const auto probs = MakeProbs(0.4, 0.5);
  const Guard g =
      Guard::Of(Minterm(C(0))).Or(Guard::Of(Minterm(C(2))), Arity());
  EXPECT_NEAR(g.Probability(probs), 0.2 + 0.5, 1e-12);
}

TEST(Guard, EvaluateMatchesAnyMinterm) {
  BranchAssignment asg(16);
  asg.Set(kForkA, 0);
  const Guard g = Guard::Of(Minterm(A(1))).Or(Guard::Of(Minterm(A(0))),
                                              Arity());
  EXPECT_TRUE(g.Evaluate(asg));
  EXPECT_FALSE(Guard::Of(Minterm(A(1))).Evaluate(asg));
  EXPECT_FALSE(Guard::False().Evaluate(asg));
}

TEST(Guard, SupportListsDistinctForks) {
  const Guard g = Guard::Of(*Minterm(A(1)).Conjoin(Minterm(B(0))))
                      .Or(Guard::Of(Minterm(B(1))), Arity());
  const auto support = g.Support();
  ASSERT_EQ(support.size(), 2u);
  EXPECT_EQ(support[0], kForkA);
  EXPECT_EQ(support[1], kForkB);
}

TEST(Guard, ToStringForms) {
  const auto name = ForkName;
  EXPECT_EQ(Guard::False().ToString(name), "0");
  EXPECT_EQ(Guard::True().ToString(name), "1");
  const Guard g = Guard::Of(Minterm(A(0)));
  EXPECT_EQ(g.ToString(name), "f3=0");
}

// Idempotence / commutativity sweeps over small random guards.
class GuardAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(GuardAlgebra, OrAndAreCommutativeAndProbabilityConsistent) {
  const int seed = GetParam();
  // Build two pseudo-random guards from the seed.
  auto pick = [&](int salt) {
    Guard g = Guard::False();
    // Unsigned LCG: wraps without overflow, and every outcome drawn
    // from it is in range.
    std::uint32_t state = static_cast<std::uint32_t>(seed * 37 + salt);
    for (int i = 0; i < 3; ++i) {
      state = state * 1103515245u + 12345u;
      const auto bits = [&](int shift, std::uint32_t mod) {
        return static_cast<int>((state >> shift) % mod);
      };
      const int which = bits(8, 4);
      Minterm m = which == 0   ? Minterm(A(bits(4, 2)))
                  : which == 1 ? Minterm(B(bits(5, 2)))
                  : which == 2 ? Minterm(C(bits(6, 3)))
                               : *Minterm(A(bits(4, 2)))
                                      .Conjoin(Minterm(B(bits(5, 2))));
      g = g.Or(Guard::Of(m), Arity());
    }
    return g;
  };
  const Guard x = pick(1), y = pick(2);
  const auto probs = MakeProbs(0.35, 0.6);
  EXPECT_NEAR(x.Or(y, Arity()).Probability(probs),
              y.Or(x, Arity()).Probability(probs), 1e-12);
  EXPECT_NEAR(x.And(y, Arity()).Probability(probs),
              y.And(x, Arity()).Probability(probs), 1e-12);
  // P(x) + P(y) = P(x|y) + P(x&y)
  EXPECT_NEAR(x.Probability(probs) + y.Probability(probs),
              x.Or(y, Arity()).Probability(probs) +
                  x.And(y, Arity()).Probability(probs),
              1e-12);
  // Idempotence.
  EXPECT_NEAR(x.Or(x, Arity()).Probability(probs), x.Probability(probs),
              1e-12);
  EXPECT_NEAR(x.And(x, Arity()).Probability(probs), x.Probability(probs),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardAlgebra, ::testing::Range(0, 25));

}  // namespace
}  // namespace actg::ctg
