#include "trace/trace.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace actg::trace {

void BranchTrace::Append(const ctg::BranchAssignment& assignment) {
  ACTG_CHECK(assignment.size() == task_count_,
             "Assignment size does not match the trace's task count");
  // Check every outcome and find the new columns before touching the
  // store, so a rejected append leaves size, columns and bytes as they
  // were.
  std::vector<TaskId> added;
  for (std::size_t t = 0; t < task_count_; ++t) {
    const TaskId task{static_cast<int>(t)};
    const int outcome = assignment.Get(task);
    if (outcome < 0) continue;
    if (outcome >= kUnset) {
      throw InvalidArgument(
          "BranchTrace::Append: outcome " + std::to_string(outcome) +
          " does not fit the trace's one byte per decision (max 254)");
    }
    if (ColumnOf(task) == kNoColumn) added.push_back(task);
  }
  if (!added.empty()) AddColumns(added);
  const std::size_t width = columns_.size();
  const std::size_t row = outcomes_.size();
  outcomes_.resize(row + width);
  for (std::size_t c = 0; c < width; ++c) {
    const int outcome = assignment.Get(columns_[c]);
    outcomes_[row + c] =
        outcome < 0 ? kUnset : static_cast<std::uint8_t>(outcome);
  }
  ++size_;
}

void BranchTrace::AddColumns(const std::vector<TaskId>& added) {
  const std::size_t old_width = columns_.size();
  columns_.insert(columns_.end(), added.begin(), added.end());
  const std::size_t width = columns_.size();
  std::vector<std::uint8_t> grown;
  grown.reserve(std::max(reserved_, size_) * width);
  grown.resize(size_ * width, kUnset);
  for (std::size_t i = 0; i < size_; ++i) {
    std::copy_n(outcomes_.begin() + static_cast<std::ptrdiff_t>(i * old_width),
                old_width,
                grown.begin() + static_cast<std::ptrdiff_t>(i * width));
  }
  outcomes_.swap(grown);
}

void BranchTrace::Reserve(std::size_t instances) {
  reserved_ = instances;
  outcomes_.reserve(instances * columns_.size());
}

ctg::BranchAssignment BranchTrace::At(std::size_t i) const {
  ACTG_CHECK(i < size_, "Trace instance index out of range");
  ctg::BranchAssignment assignment(task_count_);
  const std::size_t width = columns_.size();
  const std::uint8_t* row = outcomes_.data() + i * width;
  for (std::size_t c = 0; c < width; ++c) {
    if (row[c] != kUnset) assignment.Set(columns_[c], row[c]);
  }
  return assignment;
}

std::size_t BranchTrace::ColumnOf(TaskId fork) const {
  ACTG_CHECK(fork.valid() && fork.index() < task_count_,
             "BranchTrace: fork id out of range");
  const auto it = std::find(columns_.begin(), columns_.end(), fork);
  return it == columns_.end() ? kNoColumn
                              : static_cast<std::size_t>(it - columns_.begin());
}

double BranchTrace::EmpiricalProbability(TaskId fork, int outcome,
                                         std::size_t begin,
                                         std::size_t end) const {
  ACTG_CHECK(begin <= end && end <= size_, "Invalid trace range");
  const std::size_t column = ColumnOf(fork);
  if (column == kNoColumn) return 0.0;
  const std::size_t width = columns_.size();
  std::size_t resolved = 0;
  std::size_t hits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t selected = outcomes_[i * width + column];
    if (selected == kUnset) continue;
    ++resolved;
    if (selected == outcome) ++hits;
  }
  if (resolved == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(resolved);
}

BranchTrace BranchTrace::Slice(std::size_t begin, std::size_t end) const {
  ACTG_CHECK(begin <= end && end <= size_, "Invalid trace range");
  BranchTrace out(task_count_);
  out.Reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.Append(At(i));
  return out;
}

ctg::BranchProbabilities BranchTrace::ProfiledProbabilities(
    const ctg::Ctg& graph) const {
  ACTG_CHECK(graph.task_count() == task_count_,
             "Graph does not match the trace's task count");
  ctg::BranchProbabilities probs(task_count_);
  const std::size_t width = columns_.size();
  for (TaskId fork : graph.ForkIds()) {
    const int arity = graph.OutcomeCount(fork);
    std::vector<double> dist(static_cast<std::size_t>(arity), 0.0);
    std::size_t resolved = 0;
    const std::size_t column = ColumnOf(fork);
    for (std::size_t i = 0; column != kNoColumn && i < size_; ++i) {
      const std::uint8_t selected = outcomes_[i * width + column];
      if (selected == kUnset) continue;
      ACTG_CHECK(selected < arity, "Trace outcome exceeds fork arity");
      ++resolved;
      dist[selected] += 1.0;
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
