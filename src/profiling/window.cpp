#include "profiling/window.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.h"

namespace actg::profiling {

SlidingWindowProfiler::SlidingWindowProfiler(const ctg::Ctg& graph,
                                             std::size_t window)
    : graph_(&graph), window_(window) {
  ACTG_CHECK(window_ >= 1, "Window length must be >= 1");
  std::vector<TaskId> forks = graph.ForkIds();
  std::sort(forks.begin(), forks.end());
  windows_.reserve(forks.size());
  std::size_t outcomes = 0;
  for (TaskId fork : forks) {
    windows_.push_back(ForkWindow{fork, outcomes, 0, 0});
    outcomes += static_cast<std::size_t>(graph.OutcomeCount(fork));
  }
  counts_.assign(outcomes, 0);
}

std::size_t SlidingWindowProfiler::IndexOf(TaskId fork,
                                          const char* op) const {
  ACTG_CHECK(graph_->IsFork(fork), std::string(op) + ": task is not a fork");
  return static_cast<std::size_t>(
      std::lower_bound(
          windows_.begin(), windows_.end(), fork,
          [](const ForkWindow& w, TaskId id) { return w.fork < id; }) -
      windows_.begin());
}

void SlidingWindowProfiler::Grow() {
  const std::size_t grown = std::min(window_, 2 * capacity_ + 1);
  std::vector<int> ring(windows_.size() * grown);
  for (std::size_t k = 0; k < windows_.size(); ++k) {
    std::copy_n(ring_.begin() + static_cast<std::ptrdiff_t>(k * capacity_),
                windows_[k].size,
                ring.begin() + static_cast<std::ptrdiff_t>(k * grown));
  }
  ring_ = std::move(ring);
  capacity_ = grown;
}

void SlidingWindowProfiler::Observe(TaskId fork, int outcome) {
  const std::size_t k = IndexOf(fork, "Observe");
  ACTG_CHECK(outcome >= 0 && outcome < graph_->OutcomeCount(fork),
             "Observe: outcome out of range");
  ForkWindow& w = windows_[k];
  if (w.size == capacity_ && capacity_ < window_) Grow();
  int& slot = ring_[k * capacity_ + w.head];
  if (w.size == window_) {
    --counts_[w.count_begin + static_cast<std::size_t>(slot)];
  } else {
    ++w.size;
  }
  slot = outcome;
  ++counts_[w.count_begin + static_cast<std::size_t>(outcome)];
  w.head = w.head + 1 == window_ ? 0 : w.head + 1;
}

void SlidingWindowProfiler::ObserveInstance(
    const ctg::ActivationAnalysis& analysis,
    const ctg::BranchAssignment& assignment) {
  for (TaskId fork : graph_->ForkIds()) {
    if (!analysis.IsActive(fork, assignment)) continue;
    const int outcome = assignment.Get(fork);
    if (outcome >= 0) Observe(fork, outcome);
  }
}

std::size_t SlidingWindowProfiler::Count(TaskId fork) const {
  return windows_[IndexOf(fork, "Count")].size;
}

double SlidingWindowProfiler::WindowedProbability(TaskId fork,
                                                  int outcome) const {
  const auto dist = WindowedDistribution(fork);
  ACTG_CHECK(outcome >= 0 &&
                 static_cast<std::size_t>(outcome) < dist.size(),
             "WindowedProbability: outcome out of range");
  return dist[static_cast<std::size_t>(outcome)];
}

std::vector<double> SlidingWindowProfiler::WindowedDistribution(
    TaskId fork) const {
  const ForkWindow& w =
      windows_[IndexOf(fork, "WindowedDistribution")];
  ACTG_CHECK(w.size > 0,
             "WindowedDistribution: no decisions buffered yet");
  // A count of whole decisions is the exact sum of 1.0 per buffered
  // entry, so the quotient equals the per-entry summation bit for bit.
  std::vector<double> dist(
      static_cast<std::size_t>(graph_->OutcomeCount(fork)));
  for (std::size_t o = 0; o < dist.size(); ++o) {
    dist[o] = static_cast<double>(counts_[w.count_begin + o]) /
              static_cast<double>(w.size);
  }
  return dist;
}

void SlidingWindowProfiler::Reset() {
  for (ForkWindow& w : windows_) w.head = w.size = 0;
  std::fill(counts_.begin(), counts_.end(), 0);
}

double DistributionDistance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  ACTG_CHECK(a.size() == b.size(),
             "DistributionDistance: arity mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace actg::profiling
