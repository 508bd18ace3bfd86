/// \file experiments.h
/// Shared experiment definitions for the bench harnesses.
///
/// Every table and figure of the paper's Section IV is regenerated by a
/// binary in this directory; the common workload definitions (the random
/// CTG test cases, the biased profiles, the fluctuating test vectors)
/// live here so that Tables 4, 5 and Figure 6 — which the paper runs on
/// the same vector sets — really do share their inputs.

#ifndef ACTG_BENCH_EXPERIMENTS_H
#define ACTG_BENCH_EXPERIMENTS_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "obs/trace.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "sched/schedule.h"
#include "tgff/random_ctg.h"
#include "trace/trace.h"

namespace actg::bench {

/// One random-CTG test case with the paper's (a/b/c) designation.
struct TestCase {
  std::string label;    ///< e.g. "25/3/3"
  tgff::RandomCase rc;  ///< graph + platform, deadline already assigned
};

/// The five Table 1 test cases (all Category 1, as the paper's Table 1
/// predates the category split).
std::vector<TestCase> MakeTable1Cases();

/// The ten Table 4/5/Fig. 6 test cases: graphs 1-5 are Category 1
/// (fork-join, nested branches), graphs 6-10 Category 2.
std::vector<TestCase> MakeTable45Cases();

/// Equal-average fluctuating test vectors for one case (paper: "the
/// average probabilities of all branches of any branching node for the
/// entire set of vectors were equal", fluctuation like the MPEG
/// observation, i.e. swings of 0.4-0.5 around the mean).
trace::BranchTrace MakeFluctuatingVectors(const ctg::Ctg& graph,
                                          std::size_t instances,
                                          std::uint64_t seed);

/// Profiled probabilities biased toward one extreme scenario: the
/// minterm whose instance energy under a nominal schedule is lowest
/// (\p lowest = true, Table 4) or highest (false, Table 5) gets weight
/// \p bias at every fork it constrains; unconstrained forks stay uniform.
ctg::BranchProbabilities BiasedProfile(
    const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
    const arch::Platform& platform, bool lowest, double bias = 0.95);

class ExperimentSpec;

/// Product of ExperimentSpec::BuildAdaptive(): the adaptive controller
/// together with the schedule cache it memoizes through (when enabled).
/// The cache must outlive the controller, so they travel as one movable
/// unit; everything the spec borrowed (graph, analysis, platform,
/// profile) must outlive the harness.
class AdaptiveHarness {
 public:
  adaptive::AdaptiveController& controller() { return *controller_; }
  const adaptive::AdaptiveController& controller() const {
    return *controller_;
  }

  /// Feeds every instance of \p vectors through the controller.
  sim::RunSummary Run(const trace::BranchTrace& vectors);

  /// Run() under fault injection (see adaptive::RunAdaptiveWithFaults).
  sim::RunSummary RunWithFaults(const trace::BranchTrace& vectors,
                                const faults::Injector& injector);

  std::size_t reschedule_count() const {
    return controller_->reschedule_count();
  }

 private:
  friend class ExperimentSpec;
  AdaptiveHarness() = default;

  std::unique_ptr<runtime::ScheduleCache> cache_;  // may be null
  std::unique_ptr<adaptive::AdaptiveController> controller_;
};

/// Builder for one experiment run: which graph/platform it drives, the
/// adaptive knobs (window, threshold, schedule cache), the worker pool
/// for independent sub-runs and the metrics sink. Every bench target and
/// the CLI construct their online schedules and adaptive controllers
/// through this spec, so the setup conventions (window 20, cache wiring,
/// global metrics) live in exactly one place.
///
/// The spec only borrows its inputs — keep them alive until the built
/// schedules/harnesses are dropped. Copies are cheap; sub-runs that vary
/// one knob (e.g. the threshold) copy the spec and override it.
class ExperimentSpec {
 public:
  ExperimentSpec(const ctg::Ctg& graph,
                 const ctg::ActivationAnalysis& analysis,
                 const arch::Platform& platform)
      : graph_(&graph), analysis_(&analysis), platform_(&platform) {}

  /// Branch-probability profile used for the online schedule and as the
  /// adaptive controller's initial in-use distribution. Required.
  ExperimentSpec& WithProfile(const ctg::BranchProbabilities& profile) {
    profile_ = &profile;
    return *this;
  }
  ExperimentSpec& WithWindow(std::size_t window_length) {
    window_length_ = window_length;
    return *this;
  }
  ExperimentSpec& WithThreshold(double threshold) {
    threshold_ = threshold;
    return *this;
  }
  /// Stretch policy (dvfs::Policy registry name) used by both the
  /// online schedule and the adaptive controller. Default "online".
  ExperimentSpec& WithPolicy(std::string policy) {
    policy_ = std::move(policy);
    return *this;
  }
  /// Explicit trace session for the built controllers (default: they
  /// follow the process-wide obs::TraceSession::Current()).
  ExperimentSpec& WithTrace(obs::TraceSession* trace) {
    trace_ = trace;
    return *this;
  }
  /// Memoize the controller's re-schedules through a per-harness LRU
  /// schedule cache (exact-match lookups — never changes results).
  ExperimentSpec& WithScheduleCache(bool enabled = true) {
    use_cache_ = enabled;
    return *this;
  }
  /// Reschedule mode of the built controllers (full recompute by
  /// default; see adaptive::RescheduleMode).
  ExperimentSpec& WithRescheduleMode(adaptive::RescheduleMode mode) {
    reschedule_mode_ = mode;
    return *this;
  }
  /// Worker pool for independent sub-runs (CompareAdaptive's jobs).
  ExperimentSpec& WithPool(runtime::Pool* pool) {
    pool_ = pool;
    return *this;
  }
  /// Metrics registry the schedule cache reports into (default: the
  /// global registry that WriteMetricsReport dumps at exit).
  ExperimentSpec& WithMetrics(runtime::Metrics* metrics) {
    metrics_ = metrics;
    return *this;
  }
  /// Degradation-ladder configuration for the built controllers
  /// (default: disabled, see adaptive::DegradeOptions).
  ExperimentSpec& WithDegrade(const adaptive::DegradeOptions& degrade) {
    degrade_ = degrade;
    return *this;
  }

  runtime::Pool* pool() const { return pool_; }

  /// The non-adaptive baseline: modified DLS + online stretching under
  /// the spec's profile.
  sched::Schedule BuildOnlineSchedule() const;

  /// Constructs the adaptive controller (and its cache, when enabled)
  /// from the spec's knobs.
  AdaptiveHarness BuildAdaptive() const;

 private:
  const ctg::Ctg* graph_;
  const ctg::ActivationAnalysis* analysis_;
  const arch::Platform* platform_;
  const ctg::BranchProbabilities* profile_ = nullptr;
  std::size_t window_length_ = 20;
  double threshold_ = 0.5;
  std::string policy_ = "online";
  bool use_cache_ = false;
  adaptive::RescheduleMode reschedule_mode_ = adaptive::RescheduleMode::kFull;
  adaptive::DegradeOptions degrade_;
  runtime::Pool* pool_ = nullptr;
  runtime::Metrics* metrics_ = &runtime::Metrics::Global();
  obs::TraceSession* trace_ = nullptr;
};

/// Result of one online-vs-adaptive comparison run.
struct AdaptiveComparison {
  double online_energy = 0.0;
  double adaptive_energy_t05 = 0.0;
  std::size_t calls_t05 = 0;
  double adaptive_energy_t01 = 0.0;
  std::size_t calls_t01 = 0;
};

/// Runs the spec's non-adaptive online schedule and its adaptive
/// controller at thresholds 0.5 and 0.1 (overriding the spec's
/// threshold; the paper's Tables 4/5 protocol) over the same test
/// vectors. The three runs are independent Monte-Carlo loops; when the
/// spec has a pool they execute through it (a nested call from inside
/// an outer ParallelMap job runs inline).
AdaptiveComparison CompareAdaptive(const ExperimentSpec& spec,
                                   const trace::BranchTrace& vectors);

}  // namespace actg::bench

#endif  // ACTG_BENCH_EXPERIMENTS_H
