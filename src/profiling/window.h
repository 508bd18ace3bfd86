/// \file window.h
/// Sliding-window branch probability profiling (paper Section III.B).
///
/// "For each branch fork task, a fixed length buffer/window is maintained
/// that stores the most recent L branch decisions pertaining to L
/// instances of the CTG. Each time after a branch fork task is executed,
/// a new branch decision is shifted into the buffer. The branch
/// probabilities are then recalculated."

#ifndef ACTG_PROFILING_WINDOW_H
#define ACTG_PROFILING_WINDOW_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"

namespace actg::profiling {

/// Per-fork circular buffers of the most recent branch decisions.
///
/// Storage covers the forks only: one ring of up to L slots per fork
/// plus a count per outcome of how often it occurs in that ring, in
/// three flat arrays. Non-fork tasks cost nothing. The rings start
/// empty and double (all together) up to L as decisions arrive, so a
/// window longer than the run costs only the decisions seen.
class SlidingWindowProfiler {
 public:
  /// Creates buffers of length \p window for every fork of \p graph.
  /// The graph must outlive the profiler.
  SlidingWindowProfiler(const ctg::Ctg& graph, std::size_t window);

  std::size_t window() const { return window_; }

  /// Shifts one decision of \p fork into its buffer.
  void Observe(TaskId fork, int outcome);

  /// Observes every fork that \p analysis reports active under
  /// \p assignment (inactive forks make no decision and record nothing).
  void ObserveInstance(const ctg::ActivationAnalysis& analysis,
                       const ctg::BranchAssignment& assignment);

  /// Number of decisions currently buffered for \p fork.
  std::size_t Count(TaskId fork) const;

  /// True once the buffer of \p fork holds a full window.
  bool Full(TaskId fork) const { return Count(fork) >= window_; }

  /// Windowed probability of one outcome of \p fork. Requires at least
  /// one buffered decision.
  double WindowedProbability(TaskId fork, int outcome) const;

  /// Windowed distribution over all outcomes of \p fork: each outcome's
  /// count over the buffered size. Requires at least one buffered
  /// decision.
  std::vector<double> WindowedDistribution(TaskId fork) const;

  /// Drops all buffered decisions.
  void Reset();

 private:
  /// One fork's window: the fork's ring holds its last `size`
  /// decisions, counts_[count_begin, + arity) how often each outcome
  /// occurs among them.
  struct ForkWindow {
    TaskId fork;
    std::size_t count_begin = 0;
    /// Ring slot the next decision goes to: `size` until the ring holds
    /// a full window, then the oldest decision.
    std::size_t head = 0;
    std::size_t size = 0;
  };

  /// Index of \p fork's window; throws, naming \p op, unless it is a
  /// fork.
  std::size_t IndexOf(TaskId fork, const char* op) const;
  /// Doubles every ring's capacity, capped at the window. Only rings
  /// that are not full exist below the cap, and those have not wrapped,
  /// so each keeps its first `size` slots.
  void Grow();

  const ctg::Ctg* graph_;
  std::size_t window_;
  std::vector<ForkWindow> windows_;  // sorted by fork id
  /// Slots per ring: window k's ring is ring_[k * capacity_, +capacity_).
  std::size_t capacity_ = 0;
  std::vector<int> ring_;
  std::vector<std::uint32_t> counts_;
};

/// Largest per-outcome absolute difference between two distributions of
/// the same arity — "the difference between the new distribution and
/// the old distribution" that triggers re-scheduling when it exceeds
/// the threshold (paper Section III.B). For a two-way branch this is
/// |Δp|, matching the paper's Fig. 4 illustration where the filtered
/// probability updates when the windowed value moves by more than 0.1.
double DistributionDistance(const std::vector<double>& a,
                            const std::vector<double>& b);

}  // namespace actg::profiling

#endif  // ACTG_PROFILING_WINDOW_H
