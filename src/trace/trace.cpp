#include "trace/trace.h"

#include <string>

#include "util/error.h"

namespace actg::trace {

void BranchTrace::Append(const ctg::BranchAssignment& assignment) {
  ACTG_CHECK(assignment.size() == task_count_,
             "Assignment size does not match the trace's task count");
  const std::size_t row = outcomes_.size();
  outcomes_.resize(row + task_count_, kUnset);
  for (std::size_t t = 0; t < task_count_; ++t) {
    const int outcome = assignment.Get(TaskId{static_cast<int>(t)});
    if (outcome < 0) continue;
    if (outcome >= kUnset) {
      outcomes_.resize(row);
      throw InvalidArgument(
          "BranchTrace::Append: outcome " + std::to_string(outcome) +
          " does not fit the trace's one byte per decision (max 254)");
    }
    outcomes_[row + t] = static_cast<std::uint8_t>(outcome);
  }
  ++size_;
}

ctg::BranchAssignment BranchTrace::At(std::size_t i) const {
  ACTG_CHECK(i < size_, "Trace instance index out of range");
  ctg::BranchAssignment assignment(task_count_);
  const std::uint8_t* row = outcomes_.data() + i * task_count_;
  for (std::size_t t = 0; t < task_count_; ++t) {
    if (row[t] != kUnset) assignment.Set(TaskId{static_cast<int>(t)}, row[t]);
  }
  return assignment;
}

int BranchTrace::OutcomeAt(std::size_t i, TaskId fork) const {
  ACTG_CHECK(fork.valid() && fork.index() < task_count_,
             "BranchTrace: fork id out of range");
  const std::uint8_t outcome = outcomes_[i * task_count_ + fork.index()];
  return outcome == kUnset ? -1 : outcome;
}

double BranchTrace::EmpiricalProbability(TaskId fork, int outcome,
                                         std::size_t begin,
                                         std::size_t end) const {
  ACTG_CHECK(begin <= end && end <= size_, "Invalid trace range");
  std::size_t resolved = 0;
  std::size_t hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const int selected = OutcomeAt(i, fork);
    if (selected < 0) continue;
    ++resolved;
    if (selected == outcome) ++hits;
  }
  if (resolved == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(resolved);
}

BranchTrace BranchTrace::Slice(std::size_t begin, std::size_t end) const {
  ACTG_CHECK(begin <= end && end <= size_, "Invalid trace range");
  BranchTrace out(task_count_);
  out.outcomes_.assign(outcomes_.begin() + begin * task_count_,
                       outcomes_.begin() + end * task_count_);
  out.size_ = end - begin;
  return out;
}

ctg::BranchProbabilities BranchTrace::ProfiledProbabilities(
    const ctg::Ctg& graph) const {
  ACTG_CHECK(graph.task_count() == task_count_,
             "Graph does not match the trace's task count");
  ctg::BranchProbabilities probs(task_count_);
  for (TaskId fork : graph.ForkIds()) {
    const int arity = graph.OutcomeCount(fork);
    std::vector<double> dist(static_cast<std::size_t>(arity), 0.0);
    std::size_t resolved = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const int selected = OutcomeAt(i, fork);
      if (selected < 0) continue;
      ACTG_CHECK(selected < arity, "Trace outcome exceeds fork arity");
      ++resolved;
      dist[static_cast<std::size_t>(selected)] += 1.0;
    }
    if (resolved == 0) {
      // Never observed: fall back to a uniform prior.
      for (double& p : dist) p = 1.0 / static_cast<double>(arity);
    } else {
      for (double& p : dist) p /= static_cast<double>(resolved);
    }
    probs.Set(fork, std::move(dist));
  }
  return probs;
}

}  // namespace actg::trace
