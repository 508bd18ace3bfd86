/// \file activation.h
/// Activation analysis of a CTG (paper Section II).
///
/// Computes, for every task τ, the activation condition X(τ) as a guard
/// (DNF of minterms), the associated minterm set Γ(τ), the pairwise
/// mutual-exclusion relation, the implied dependencies between or-nodes
/// and the branch fork nodes that decide their activating alternative
/// (paper Example 1), and the set of execution *scenarios* (maximal
/// consistent fork-outcome assignments, e.g. {a1, a2b1, a2b2} for the
/// paper's Figure 1).

#ifndef ACTG_CTG_ACTIVATION_H
#define ACTG_CTG_ACTIVATION_H

#include <cstdint>
#include <limits>
#include <vector>

#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "ctg/graph.h"

namespace actg::ctg {

/// A maximal consistent assignment of outcomes to the forks that are
/// active under that assignment, with its probability under a given
/// branch distribution.
struct Scenario {
  Minterm assignment;
  double probability = 0.0;
};

/// One evaluation of every activation and edge guard under one branch
/// distribution (ActivationAnalysis::Evaluate): P(X(τ)) per task and
/// P(X(src) ∧ X(dst) ∧ C(e)) per edge. Every energy sum over the same
/// distribution reads it instead of re-expanding the guards.
class ActivationProbabilities {
 public:
  /// P(X(τ)): probability that task \p id is activated.
  double task(TaskId id) const { return task_[id.index()]; }

  /// Probability that edge \p id transfers data (its
  /// ActivationAnalysis::EdgeGuard).
  double edge(EdgeId id) const { return edge_[id.index()]; }

  std::size_t task_count() const { return task_.size(); }
  std::size_t edge_count() const { return edge_.size(); }

 private:
  friend class ActivationAnalysis;

  std::vector<double> task_;
  std::vector<double> edge_;
};

/// Immutable analysis result bound to one Ctg. The Ctg must outlive the
/// analysis.
///
/// Task and edge guards are stored once per distinct DNF (Guard's
/// operator==): the structured graphs repeat few guards (MPEG's 104
/// task and edge guards are 19 distinct ones), so Evaluate expands each
/// distinct guard once per distribution. The compiled forms are stored
/// once too: one BitGuard per distinct task guard, which every task
/// sharing that DNF reads, and one BitMinterm per conditional edge.
class ActivationAnalysis {
 public:
  /// Runs the analysis (single topological pass plus pairwise mutex
  /// computation).
  explicit ActivationAnalysis(const Ctg& graph);

  const Ctg& graph() const { return *graph_; }

  /// Activation condition X(τ).
  const Guard& ActivationGuard(TaskId task) const {
    return guards_[task_slots_.at(task.index())];
  }

  /// Guard of the event "edge e transfers data": X(src) ∧ X(dst) ∧ C(e)
  /// (C(e) only for a conditional edge), built once at construction.
  const Guard& EdgeGuard(EdgeId edge) const {
    return guards_[edge_slots_.at(edge.index())];
  }

  /// Number of distinct DNFs among the task and edge guards: the
  /// Guard::Probability expansions one Evaluate runs.
  std::size_t distinct_guard_count() const { return guards_.size(); }

  /// Γ(τ): the minterms of X(τ).
  const std::vector<Minterm>& Gamma(TaskId task) const {
    return ActivationGuard(task).minterms();
  }

  /// Bit layout over the graph's forks. Invalid (valid() == false) when
  /// the graph does not fit the fixed width; callers must then stay on
  /// the DNF algebra.
  const ConditionSpace& space() const { return space_; }

  /// Compiled form of X(τ). Meaningful only when space().valid(); the
  /// compiled guards answer exactly the form-independent predicates
  /// (satisfiability, emptiness, evaluation) of the DNF guard. Tasks
  /// whose DNFs are equal share one object. Unchecked: \p task must be
  /// a task of the graph (the path DFS reads it once per arc).
  const BitGuard& BitActivationGuard(TaskId task) const {
    return bit_guards_[task_slots_[task.index()]];
  }

  /// True when edge \p edge carries a branch condition C(e). Unchecked:
  /// \p edge must be an edge of the graph.
  bool HasEdgeCondition(EdgeId edge) const {
    return edge_cond_slot_[edge.index()] != kNoCondition;
  }

  /// True when space() is valid and every edge condition compiled into
  /// it. When false, path guards must stay on the DNF algebra even if
  /// the task guards compiled.
  bool bit_edge_conditions() const { return bit_edge_conditions_; }

  /// Compiled C(e) of a conditional edge. Unchecked; meaningful only
  /// when bit_edge_conditions() and HasEdgeCondition(edge).
  const BitMinterm& BitEdgeCondition(EdgeId edge) const {
    return edge_cond_bits_[edge_cond_slot_[edge.index()]];
  }

  /// True when the two tasks can never be active in the same instance
  /// (X(τi) ∧ X(τj) = 0). Throws actg::InvalidArgument when either id
  /// is not a task of the graph.
  bool MutuallyExclusive(TaskId a, TaskId b) const;

  /// Probability that \p task is activated, P(X(τ)), under \p probs.
  double ActivationProbability(TaskId task,
                               const BranchProbabilities& probs) const;

  /// Every task's and edge's guard probability under \p probs, running
  /// Guard::Probability once per distinct guard. Each entry is
  /// bit-identical to Probability of the corresponding guard (equal
  /// DNFs expand through the same arithmetic).
  ActivationProbabilities Evaluate(const BranchProbabilities& probs) const;

  /// True when \p task is activated by the given full branch assignment.
  bool IsActive(TaskId task, const BranchAssignment& assignment) const;

  /// Every task's activity under \p assignment, one flag per task
  /// (1 = active). Evaluates each distinct activation guard once, so
  /// entry τ equals IsActive(τ, assignment).
  std::vector<char> ActiveTasks(const BranchAssignment& assignment) const;

  /// True when \p task is active under a scenario minterm: some minterm
  /// of Γ(τ) is implied by the scenario assignment.
  bool IsActive(TaskId task, const Minterm& scenario) const;

  /// Implied control dependencies: pairs (fork, or_node) meaning the
  /// or-node cannot start before the fork resolves, even along
  /// alternatives that do not pass through the fork (paper Example 1:
  /// τ8 must wait for τ3 in every case). Direct unconditional edges
  /// fork -> or_node are omitted (the dependency already exists).
  const std::vector<std::pair<TaskId, TaskId>>& ImpliedForkDependencies()
      const {
    return implied_deps_;
  }

  /// Enumerates all execution scenarios with their probabilities under
  /// \p probs. Probabilities sum to 1.
  std::vector<Scenario> EnumerateScenarios(
      const BranchProbabilities& probs) const;

  /// Enumerates scenario assignments only (no probabilities).
  std::vector<Minterm> EnumerateScenarioAssignments() const;

  /// The set M of all distinct minterms appearing in any Γ(τ),
  /// including the constant-true minterm when some task is unconditional.
  std::vector<Minterm> AllMinterms() const;

 private:
  void ComputeGuards();
  std::size_t Intern(Guard guard);
  void CompileBitGuards();
  void CompileEdgeConditions();
  void ComputeMutex();
  void ComputeImpliedDeps();
  void EnumerateScenariosRec(const Minterm& current, double prob,
                             std::size_t fork_pos,
                             const BranchProbabilities* probs,
                             std::vector<Scenario>& out) const;

  /// edge_cond_slot_ entry of an unconditional edge.
  static constexpr std::uint32_t kNoCondition =
      std::numeric_limits<std::uint32_t>::max();

  const Ctg* graph_;
  std::vector<Guard> guards_;             // distinct task and edge guards
  std::size_t task_guard_count_ = 0;      // task guards: guards_[0, count)
  std::vector<std::size_t> task_slots_;   // task index -> guards_ index
  std::vector<std::size_t> edge_slots_;   // edge index -> guards_ index
  ConditionSpace space_;
  /// guards_[k] compiled, for every task slot k < task_guard_count_;
  /// empty when !space_.valid().
  std::vector<BitGuard> bit_guards_;
  /// By edge index: the edge's entry in edge_cond_bits_, or kNoCondition.
  std::vector<std::uint32_t> edge_cond_slot_;
  bool bit_edge_conditions_ = false;
  /// One per conditional edge, in edge order; empty unless the above.
  std::vector<BitMinterm> edge_cond_bits_;
  /// n×n bit matrix, row-major: bit a·n + b is MutuallyExclusive(a, b).
  std::vector<bool> mutex_;
  std::vector<std::pair<TaskId, TaskId>> implied_deps_;
};

}  // namespace actg::ctg

#endif  // ACTG_CTG_ACTIVATION_H
