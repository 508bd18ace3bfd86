/// \file trace.h
/// Branch decision traces (paper Section IV).
///
/// The paper's experiments drive every algorithm with sequences of branch
/// decision vectors: "The decisions of branches a~h are encoded as a
/// vector <x1, x2, ..., xn>. The ith position of such vector indicates
/// the branch decision for the ith branching node in the graph."
/// A BranchTrace stores one decision vector per CTG instance, one byte
/// per task: a serve tenant or campaign instance holds its whole trace
/// for its lifetime, so the bytes, not the BranchAssignment objects
/// At() rebuilds from them, are what a fleet keeps.

#ifndef ACTG_TRACE_TRACE_H
#define ACTG_TRACE_TRACE_H

#include <cstddef>
#include <cstdint>
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

  /// Appends the decision vector of one CTG instance. Throws
  /// actg::InvalidArgument, leaving the trace unchanged, when its size
  /// is not task_count() or an outcome does not fit a byte (>= 255).
  void Append(const ctg::BranchAssignment& assignment);

  /// Decision vector of instance \p i, rebuilt from its bytes: equal to
  /// the appended assignment, unset (-1) entries included.
  ctg::BranchAssignment At(std::size_t i) const;

  /// Reserves storage for \p instances instances in total, so a trace
  /// of known length holds no growth slack.
  void Reserve(std::size_t instances) {
    outcomes_.reserve(instances * task_count_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t task_count() const { return task_count_; }

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

  /// Sub-trace [begin, end).
  BranchTrace Slice(std::size_t begin, std::size_t end) const;

  /// Branch probabilities profiled from the whole trace for every fork
  /// of \p graph (the paper's "profiled average branch probability").
  /// Forks never resolved in the trace get a uniform distribution.
  ctg::BranchProbabilities ProfiledProbabilities(
      const ctg::Ctg& graph) const;

 private:
  /// Byte that stores an unset (-1) outcome.
  static constexpr std::uint8_t kUnset = 0xFF;

  /// Outcome of \p fork in instance \p i; -1 when unset.
  int OutcomeAt(std::size_t i, TaskId fork) const;

  std::size_t task_count_ = 0;
  std::size_t size_ = 0;
  /// size_ × task_count_ outcomes, row-major by instance.
  std::vector<std::uint8_t> outcomes_;
};

}  // namespace actg::trace

#endif  // ACTG_TRACE_TRACE_H
