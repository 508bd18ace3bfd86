#include "trace/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.h"

namespace actg::trace {

namespace {

void CheckDistribution(const std::vector<double>& dist) {
  ACTG_CHECK(dist.size() >= 2, "A fork distribution needs >= 2 outcomes");
  double total = 0.0;
  for (double p : dist) {
    ACTG_CHECK(p >= 0.0, "Probabilities must be non-negative");
    total += p;
  }
  ACTG_CHECK(std::abs(total - 1.0) < 1e-6, "Probabilities must sum to 1");
}

std::vector<double> Normalized(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  ACTG_ASSERT(total > 0.0, "weight vector must have positive mass");
  std::vector<double> dist(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    dist[i] = weights[i] / total;
  }
  return dist;
}

/// Reflects \p x into [lo, hi].
double Reflect(double x, double lo, double hi) {
  ACTG_ASSERT(hi > lo, "reflection interval must be non-degenerate");
  const double span = hi - lo;
  double offset = std::fmod(x - lo, 2.0 * span);
  if (offset < 0.0) offset += 2.0 * span;
  return lo + (offset <= span ? offset : 2.0 * span - offset);
}

}  // namespace

// ---------------------------------------------------------------------------
// ConstantProcess

ConstantProcess::ConstantProcess(std::vector<double> dist)
    : dist_(std::move(dist)) {
  CheckDistribution(dist_);
}

std::vector<double> ConstantProcess::Step(util::Random&) { return dist_; }

// ---------------------------------------------------------------------------
// RandomWalkProcess

RandomWalkProcess::RandomWalkProcess(Params params)
    : params_(std::move(params)), weights_(params_.initial_weights) {
  ACTG_CHECK(weights_.size() >= 2,
             "RandomWalkProcess needs >= 2 outcome weights");
  ACTG_CHECK(params_.floor > 0.0 && params_.floor < 1.0,
             "Weight floor must lie in (0, 1)");
  for (double w : weights_) {
    ACTG_CHECK(w >= params_.floor && w <= 1.0,
               "Initial weights must lie in [floor, 1]");
  }
  ACTG_CHECK(params_.step_sigma >= 0.0, "Step sigma must be >= 0");
  ACTG_CHECK(params_.jump_probability >= 0.0 &&
                 params_.jump_probability <= 1.0,
             "Jump probability must lie in [0, 1]");
}

std::vector<double> RandomWalkProcess::Step(util::Random& rng) {
  if (rng.Bernoulli(params_.jump_probability)) {
    for (double& w : weights_) w = rng.Uniform(params_.floor, 1.0);
  } else {
    for (double& w : weights_) {
      w = Reflect(w + rng.Normal(0.0, params_.step_sigma), params_.floor,
                  1.0);
    }
  }
  return Normalized(weights_);
}

// ---------------------------------------------------------------------------
// PiecewiseProcess

PiecewiseProcess::PiecewiseProcess(std::vector<Regime> regimes)
    : regimes_(std::move(regimes)) {
  ACTG_CHECK(!regimes_.empty(), "PiecewiseProcess needs >= 1 regime");
  const std::size_t outcomes = regimes_.front().dist.size();
  for (const Regime& r : regimes_) {
    CheckDistribution(r.dist);
    ACTG_CHECK(r.dist.size() == outcomes,
               "All regimes must have the same number of outcomes");
    ACTG_CHECK(r.length >= 1, "Regime length must be >= 1");
  }
}

std::vector<double> PiecewiseProcess::Step(util::Random&) {
  const Regime& r = regimes_[regime_];
  std::vector<double> dist = r.dist;
  if (++step_in_regime_ >= r.length) {
    step_in_regime_ = 0;
    regime_ = (regime_ + 1) % regimes_.size();
  }
  return dist;
}

int PiecewiseProcess::outcome_count() const {
  return static_cast<int>(regimes_.front().dist.size());
}

// ---------------------------------------------------------------------------
// SinusoidProcess

SinusoidProcess::SinusoidProcess(Params params) : params_(params) {
  ACTG_CHECK(params_.outcomes >= 2, "SinusoidProcess needs >= 2 outcomes");
  ACTG_CHECK(params_.period > 0.0, "Period must be positive");
  ACTG_CHECK(params_.center > 0.0 && params_.center < 1.0,
             "Center must lie in (0, 1)");
  ACTG_CHECK(params_.center - params_.amplitude >= 0.0 &&
                 params_.center + params_.amplitude <= 1.0,
             "Oscillation must stay within [0, 1]");
}

std::vector<double> SinusoidProcess::Step(util::Random&) {
  const double p0 =
      params_.center +
      params_.amplitude *
          std::sin(2.0 * std::numbers::pi *
                       static_cast<double>(t_) / params_.period +
                   params_.phase);
  ++t_;
  std::vector<double> dist(static_cast<std::size_t>(params_.outcomes));
  dist[0] = p0;
  // Remaining outcomes split the residual mass evenly.
  const double rest =
      (1.0 - p0) / static_cast<double>(params_.outcomes - 1);
  for (std::size_t i = 1; i < dist.size(); ++i) dist[i] = rest;
  return dist;
}

// ---------------------------------------------------------------------------
// MarkovProcess

MarkovProcess::MarkovProcess(Params params)
    : params_(std::move(params)), state_(params_.initial_state) {
  ACTG_CHECK(!params_.state_dists.empty(),
             "MarkovProcess needs at least one state");
  const std::size_t states = params_.state_dists.size();
  const std::size_t outcomes = params_.state_dists.front().size();
  for (const auto& dist : params_.state_dists) {
    CheckDistribution(dist);
    ACTG_CHECK(dist.size() == outcomes,
               "All states must have the same number of outcomes");
  }
  ACTG_CHECK(params_.transitions.size() == states,
             "Transition matrix must be square in the state count");
  for (const auto& row : params_.transitions) {
    ACTG_CHECK(row.size() == states,
               "Transition matrix must be square in the state count");
    double total = 0.0;
    for (double p : row) {
      ACTG_CHECK(p >= 0.0, "Transition probabilities must be >= 0");
      total += p;
    }
    ACTG_CHECK(std::abs(total - 1.0) < 1e-6,
               "Transition rows must sum to 1");
  }
  ACTG_CHECK(params_.initial_state < states,
             "Initial state out of range");
}

std::vector<double> MarkovProcess::Step(util::Random& rng) {
  state_ = rng.Categorical(params_.transitions[state_]);
  return params_.state_dists[state_];
}

int MarkovProcess::outcome_count() const {
  return static_cast<int>(params_.state_dists.front().size());
}

// ---------------------------------------------------------------------------
// TraceGenerator

TraceGenerator::TraceGenerator(const ctg::Ctg& graph)
    : graph_(&graph),
      processes_(graph.task_count()),
      prob_history_(graph.task_count()) {}

void TraceGenerator::SetProcess(TaskId fork,
                                std::unique_ptr<ProbabilityProcess> process) {
  ACTG_CHECK(graph_->IsFork(fork),
             "SetProcess: task is not a branch fork node");
  ACTG_CHECK(process != nullptr, "SetProcess: null process");
  ACTG_CHECK(process->outcome_count() == graph_->OutcomeCount(fork),
             "Process outcome count does not match the fork arity");
  processes_[fork.index()] = std::move(process);
}

bool TraceGenerator::Complete() const {
  for (TaskId fork : graph_->ForkIds()) {
    if (processes_[fork.index()] == nullptr) return false;
  }
  return true;
}

BranchTrace TraceGenerator::Generate(std::size_t instances,
                                     util::Random& rng) {
  ACTG_CHECK(Complete(), "Every fork needs a probability process");
  for (auto& history : prob_history_) history.clear();
  BranchTrace trace(graph_->task_count());
  trace.Reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    ctg::BranchAssignment assignment(graph_->task_count());
    for (TaskId fork : graph_->ForkIds()) {
      auto& process = *processes_[fork.index()];
      const std::vector<double> dist = process.Step(rng);
      prob_history_[fork.index()].push_back(dist[0]);
      assignment.Set(fork,
                     static_cast<int>(rng.Categorical(dist)));
    }
    trace.Append(assignment);
  }
  return trace;
}

const std::vector<double>& TraceGenerator::TrueProbabilityHistory(
    TaskId fork) const {
  ACTG_CHECK(graph_->IsFork(fork), "Task is not a branch fork node");
  return prob_history_[fork.index()];
}

}  // namespace actg::trace
