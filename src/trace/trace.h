/// \file trace.h
/// Branch decision traces (paper Section IV).
///
/// The paper's experiments drive every algorithm with sequences of branch
/// decision vectors: "The decisions of branches a~h are encoded as a
/// vector <x1, x2, ..., xn>. The ith position of such vector indicates
/// the branch decision for the ith branching node in the graph."
/// A BranchTrace stores one decision vector per CTG instance, one byte
/// per deciding fork: its columns are the tasks that decide in some
/// instance (MPEG 9 of 40 tasks, cruise 2 of 32), learned on Append.
/// A serve tenant or campaign instance holds its whole trace for its
/// lifetime, so the bytes, not the BranchAssignment objects At()
/// rebuilds from them, are what a fleet keeps.

#ifndef ACTG_TRACE_TRACE_H
#define ACTG_TRACE_TRACE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ctg/condition.h"
#include "ctg/graph.h"

namespace actg::trace {

/// A sequence of branch decision vectors, one per CTG instance.
class BranchTrace {
 public:
  BranchTrace() = default;

  /// Creates an empty trace whose assignments cover \p task_count tasks.
  explicit BranchTrace(std::size_t task_count) : task_count_(task_count) {}

  /// Appends the decision vector of one CTG instance. A task that
  /// decides for the first time becomes a column, unset (-1) in every
  /// earlier instance. Throws actg::InvalidArgument, leaving the trace
  /// unchanged, when its size is not task_count() or an outcome does
  /// not fit a byte (>= 255).
  void Append(const ctg::BranchAssignment& assignment);

  /// Decision vector of instance \p i, rebuilt from its bytes: equal to
  /// the appended assignment, unset (-1) entries included.
  ctg::BranchAssignment At(std::size_t i) const;

  /// Reserves storage for \p instances instances in total, so a trace
  /// of known length holds no growth slack once its columns are known
  /// (a column learned later re-reserves for the same length).
  void Reserve(std::size_t instances);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t task_count() const { return task_count_; }

  /// The tasks that decide in some instance, one byte column each, in
  /// the order they first decided.
  std::span<const TaskId> deciding_tasks() const { return columns_; }

  /// Decision bytes held: size() × deciding_tasks().size().
  std::size_t stored_bytes() const { return outcomes_.size(); }

  /// Empirical probability that \p fork selected \p outcome over the
  /// instance range [begin, end). Instances where the fork is unresolved
  /// (outcome -1) are excluded from the denominator; returns 0 when no
  /// instance resolves the fork.
  double EmpiricalProbability(TaskId fork, int outcome, std::size_t begin,
                              std::size_t end) const;

  /// Empirical probability over the whole trace.
  double EmpiricalProbability(TaskId fork, int outcome) const {
    return EmpiricalProbability(fork, outcome, 0, size());
  }

  /// Sub-trace [begin, end); its columns are the tasks that decide in
  /// that range.
  BranchTrace Slice(std::size_t begin, std::size_t end) const;

  /// Branch probabilities profiled from the whole trace for every fork
  /// of \p graph (the paper's "profiled average branch probability").
  /// Forks never resolved in the trace get a uniform distribution.
  ctg::BranchProbabilities ProfiledProbabilities(
      const ctg::Ctg& graph) const;

 private:
  /// Byte that stores an unset (-1) outcome.
  static constexpr std::uint8_t kUnset = 0xFF;
  /// ColumnOf() of a task that never decides.
  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

  /// Column of \p fork, or kNoColumn; throws when the id is not a task.
  std::size_t ColumnOf(TaskId fork) const;
  /// Appends the columns \p added, unset in every stored instance.
  void AddColumns(const std::vector<TaskId>& added);

  std::size_t task_count_ = 0;
  std::size_t size_ = 0;
  /// Instances Reserve() asked room for.
  std::size_t reserved_ = 0;
  std::vector<TaskId> columns_;
  /// size_ × columns_.size() outcomes, row-major by instance.
  std::vector<std::uint8_t> outcomes_;
};

}  // namespace actg::trace

#endif  // ACTG_TRACE_TRACE_H
