#include "ctg/activation.h"

#include <algorithm>

#include "util/error.h"

namespace actg::ctg {

ActivationAnalysis::ActivationAnalysis(const Ctg& graph) : graph_(&graph) {
  ComputeGuards();
  CompileBitGuards();
  CompileEdgeConditions();
  ComputeMutex();
  ComputeImpliedDeps();
}

void ActivationAnalysis::ComputeGuards() {
  const Ctg& g = *graph_;
  const auto arity = g.ArityFn();
  std::vector<Guard> task_guards(g.task_count(), Guard::False());

  for (TaskId id : g.TopologicalOrder()) {
    const auto& in_edges = g.InEdges(id);
    if (in_edges.empty()) {
      // Entry tasks are activated in every instance.
      task_guards[id.index()] = Guard::True();
      continue;
    }
    Guard acc;
    bool first = true;
    for (EdgeId eid : in_edges) {
      const Edge& e = g.edge(eid);
      Guard alternative = task_guards[e.src.index()];
      if (e.condition.has_value()) {
        alternative = alternative.AndCondition(*e.condition, arity);
      }
      if (first) {
        acc = std::move(alternative);
        first = false;
      } else if (g.task(id).join == JoinType::kAnd) {
        acc = acc.And(alternative, arity);
      } else {
        acc = acc.Or(alternative, arity);
      }
    }
    task_guards[id.index()] = std::move(acc);
  }

  task_slots_.reserve(task_guards.size());
  for (Guard& guard : task_guards) {
    task_slots_.push_back(Intern(std::move(guard)));
  }
  task_guard_count_ = guards_.size();
  // Edge guards in exactly this call sequence: Simplify is not a
  // canonical form, so conjoining in another order could yield a
  // different (equivalent) DNF and round its Shannon expansion
  // differently.
  edge_slots_.reserve(g.edge_count());
  for (EdgeId eid : g.EdgeIds()) {
    const Edge& e = g.edge(eid);
    Guard guard = ActivationGuard(e.src).And(ActivationGuard(e.dst), arity);
    if (e.condition.has_value()) {
      guard = guard.AndCondition(*e.condition, arity);
    }
    edge_slots_.push_back(Intern(std::move(guard)));
  }
}

std::size_t ActivationAnalysis::Intern(Guard guard) {
  const auto it = std::find(guards_.begin(), guards_.end(), guard);
  if (it != guards_.end()) {
    return static_cast<std::size_t>(it - guards_.begin());
  }
  guards_.push_back(std::move(guard));
  return guards_.size() - 1;
}

void ActivationAnalysis::CompileBitGuards() {
  const Ctg& g = *graph_;
  std::vector<int> arities;
  arities.reserve(g.ForkIds().size());
  for (TaskId fork : g.ForkIds()) arities.push_back(g.OutcomeCount(fork));
  space_ = ConditionSpace(g.ForkIds(), arities);
  if (!space_.valid()) return;
  // Task slots are the first task_guard_count_ interned guards.
  bit_guards_.resize(task_guard_count_);
  for (std::size_t k = 0; k < task_guard_count_; ++k) {
    if (!space_.Encode(guards_[k], bit_guards_[k])) {
      // A guard the space cannot express; retire the whole compiled
      // layer so every caller consistently uses the DNF algebra.
      space_ = ConditionSpace();
      bit_guards_.clear();
      return;
    }
  }
}

void ActivationAnalysis::CompileEdgeConditions() {
  const Ctg& g = *graph_;
  edge_cond_slot_.assign(g.edge_count(), kNoCondition);
  std::uint32_t conditional = 0;
  for (EdgeId eid : g.EdgeIds()) {
    if (g.edge(eid).condition.has_value()) {
      edge_cond_slot_[eid.index()] = conditional++;
    }
  }
  if (!space_.valid()) return;
  edge_cond_bits_.resize(conditional);
  for (EdgeId eid : g.EdgeIds()) {
    const auto& cond = g.edge(eid).condition;
    if (cond.has_value() &&
        !space_.Encode(*cond,
                       edge_cond_bits_[edge_cond_slot_[eid.index()]])) {
      // A condition the space cannot express: path guards then stay on
      // the DNF algebra, while the task guards keep their compiled form.
      edge_cond_bits_.clear();
      return;
    }
  }
  bit_edge_conditions_ = true;
}

void ActivationAnalysis::ComputeMutex() {
  const std::size_t n = graph_->task_count();
  mutex_.assign(n * n, false);
  const bool use_bits = space_.valid();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Mutual exclusion is unsatisfiability of X(τi) ∧ X(τj) — a
      // form-independent predicate, so the compiled guards give the
      // same answer as the DNF walk.
      const std::size_t a = task_slots_[i];
      const std::size_t b = task_slots_[j];
      const bool exclusive =
          use_bits ? !bit_guards_[a].CompatibleWith(bit_guards_[b])
                   : !guards_[a].CompatibleWith(guards_[b]);
      mutex_[i * n + j] = exclusive;
      mutex_[j * n + i] = exclusive;
    }
  }
}

void ActivationAnalysis::ComputeImpliedDeps() {
  const Ctg& g = *graph_;
  const auto arity = g.ArityFn();
  for (TaskId id : g.TopologicalOrder()) {
    if (g.task(id).join != JoinType::kOr) continue;
    // The or-node cannot start before it knows which alternative
    // activates it: every fork mentioned by any incoming alternative's
    // guard must have resolved.
    std::vector<TaskId> forks;
    for (EdgeId eid : g.InEdges(id)) {
      const Edge& e = g.edge(eid);
      Guard alternative = ActivationGuard(e.src);
      if (e.condition.has_value()) {
        alternative = alternative.AndCondition(*e.condition, arity);
      }
      for (TaskId fork : alternative.Support()) forks.push_back(fork);
    }
    std::sort(forks.begin(), forks.end());
    forks.erase(std::unique(forks.begin(), forks.end()), forks.end());
    for (TaskId fork : forks) {
      if (fork == id) continue;
      bool direct_unconditional = false;
      for (EdgeId eid : g.InEdges(id)) {
        const Edge& e = g.edge(eid);
        if (e.src == fork && !e.condition.has_value()) {
          direct_unconditional = true;
          break;
        }
      }
      if (!direct_unconditional) implied_deps_.emplace_back(fork, id);
    }
  }
}

bool ActivationAnalysis::MutuallyExclusive(TaskId a, TaskId b) const {
  const std::size_t n = graph_->task_count();
  ACTG_CHECK(a.index() < n && b.index() < n,
             "MutuallyExclusive: task id out of range");
  return mutex_[a.index() * n + b.index()];
}

double ActivationAnalysis::ActivationProbability(
    TaskId task, const BranchProbabilities& probs) const {
  return ActivationGuard(task).Probability(probs);
}

ActivationProbabilities ActivationAnalysis::Evaluate(
    const BranchProbabilities& probs) const {
  std::vector<double> distinct;
  distinct.reserve(guards_.size());
  for (const Guard& guard : guards_) {
    distinct.push_back(guard.Probability(probs));
  }
  ActivationProbabilities out;
  out.task_.reserve(task_slots_.size());
  for (std::size_t slot : task_slots_) out.task_.push_back(distinct[slot]);
  out.edge_.reserve(edge_slots_.size());
  for (std::size_t slot : edge_slots_) out.edge_.push_back(distinct[slot]);
  return out;
}

bool ActivationAnalysis::IsActive(TaskId task,
                                  const BranchAssignment& assignment) const {
  return ActivationGuard(task).Evaluate(assignment);
}

std::vector<char> ActivationAnalysis::ActiveTasks(
    const BranchAssignment& assignment) const {
  // One allocation: the task flags, then one value per distinct task
  // guard (interned first, so they are guards_[0, task_guard_count_)),
  // which the final resize drops.
  const std::size_t n = task_slots_.size();
  std::vector<char> active(n + task_guard_count_);
  char* const value = active.data() + n;
  for (std::size_t k = 0; k < task_guard_count_; ++k) {
    value[k] = guards_[k].Evaluate(assignment) ? 1 : 0;
  }
  for (std::size_t t = 0; t < n; ++t) active[t] = value[task_slots_[t]];
  active.resize(n);
  return active;
}

bool ActivationAnalysis::IsActive(TaskId task,
                                  const Minterm& scenario) const {
  for (const Minterm& m : Gamma(task)) {
    if (scenario.Implies(m)) return true;
  }
  return false;
}

void ActivationAnalysis::EnumerateScenariosRec(
    const Minterm& current, double prob, std::size_t fork_pos,
    const BranchProbabilities* probs, std::vector<Scenario>& out) const {
  const Ctg& g = *graph_;
  const auto& forks = g.ForkIds();
  // Find the next fork (in topological order) that is active under the
  // partial assignment built so far. Guards of a fork only mention
  // strictly earlier forks, so activity is fully determined.
  for (std::size_t pos = fork_pos; pos < forks.size(); ++pos) {
    const TaskId fork = forks[pos];
    if (!IsActive(fork, current)) continue;
    for (int outcome = 0; outcome < g.OutcomeCount(fork); ++outcome) {
      const double p =
          probs != nullptr ? probs->Outcome(fork, outcome) : 1.0;
      if (probs != nullptr && p == 0.0) continue;
      auto extended = current.With(Condition{fork, outcome});
      ACTG_ASSERT(extended.has_value(),
                  "scenario enumeration produced a contradiction");
      EnumerateScenariosRec(*extended, prob * p, pos + 1, probs, out);
    }
    return;
  }
  out.push_back(Scenario{current, prob});
}

std::vector<Scenario> ActivationAnalysis::EnumerateScenarios(
    const BranchProbabilities& probs) const {
  std::vector<Scenario> out;
  EnumerateScenariosRec(Minterm(), 1.0, 0, &probs, out);
  return out;
}

std::vector<Minterm> ActivationAnalysis::EnumerateScenarioAssignments()
    const {
  std::vector<Scenario> scenarios;
  EnumerateScenariosRec(Minterm(), 1.0, 0, nullptr, scenarios);
  std::vector<Minterm> out;
  out.reserve(scenarios.size());
  for (auto& s : scenarios) out.push_back(std::move(s.assignment));
  return out;
}

std::vector<Minterm> ActivationAnalysis::AllMinterms() const {
  std::vector<Minterm> all;
  for (std::size_t slot : task_slots_) {
    for (const Minterm& m : guards_[slot].minterms()) {
      if (std::find(all.begin(), all.end(), m) == all.end()) {
        all.push_back(m);
      }
    }
  }
  return all;
}

}  // namespace actg::ctg
