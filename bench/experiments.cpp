#include "experiments.h"

#include <limits>
#include <memory>

#include "apps/common.h"
#include "dvfs/algorithms.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "trace/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::bench {

namespace {

/// Deadline tightness used for every random-CTG experiment (calibrated
/// so that the Table 1 normalized energies land in the paper's bands;
/// the paper itself does not state its deadlines).
constexpr double kDeadlineFactor = 1.3;

TestCase MakeCase(int tasks, int pes, int forks, tgff::Category category,
                  std::uint64_t seed, obs::TraceSession* trace) {
  tgff::RandomCtgParams params;
  params.task_count = tasks;
  params.pe_count = pes;
  params.fork_count = forks;
  params.category = category;
  params.seed = seed;
  TestCase test{std::to_string(tasks) + "/" + std::to_string(pes) + "/" +
                    std::to_string(forks),
                tgff::MakeRandomCtg(params).value()};
  apps::AssignDeadline(test.rc.graph, test.rc.platform, kDeadlineFactor,
                       trace);
  return test;
}

}  // namespace

std::vector<TestCase> MakeTable1Cases(obs::TraceSession* trace) {
  std::vector<TestCase> cases;
  cases.push_back(MakeCase(25, 3, 3, tgff::Category::kForkJoin, 1000, trace));
  cases.push_back(MakeCase(16, 3, 1, tgff::Category::kForkJoin, 1001, trace));
  cases.push_back(MakeCase(15, 4, 2, tgff::Category::kForkJoin, 1002, trace));
  cases.push_back(MakeCase(15, 4, 2, tgff::Category::kForkJoin, 1003, trace));
  cases.push_back(MakeCase(25, 4, 3, tgff::Category::kForkJoin, 1004, trace));
  return cases;
}

std::vector<TestCase> MakeTable45Cases(obs::TraceSession* trace) {
  std::vector<TestCase> cases;
  cases.push_back(MakeCase(25, 3, 3, tgff::Category::kForkJoin, 2000, trace));
  cases.push_back(MakeCase(16, 3, 1, tgff::Category::kForkJoin, 2001, trace));
  cases.push_back(MakeCase(15, 4, 2, tgff::Category::kForkJoin, 2002, trace));
  cases.push_back(MakeCase(15, 4, 1, tgff::Category::kForkJoin, 2003, trace));
  cases.push_back(MakeCase(25, 4, 3, tgff::Category::kForkJoin, 2004, trace));
  cases.push_back(MakeCase(25, 3, 3, tgff::Category::kFlat, 2005, trace));
  cases.push_back(MakeCase(16, 3, 1, tgff::Category::kFlat, 2006, trace));
  cases.push_back(MakeCase(15, 4, 2, tgff::Category::kFlat, 2007, trace));
  cases.push_back(MakeCase(15, 4, 1, tgff::Category::kFlat, 2008, trace));
  cases.push_back(MakeCase(25, 4, 3, tgff::Category::kFlat, 2009, trace));
  return cases;
}

trace::BranchTrace MakeFluctuatingVectors(const ctg::Ctg& graph,
                                          std::size_t instances,
                                          std::uint64_t seed) {
  trace::TraceGenerator gen(graph);
  int k = 0;
  for (TaskId fork : graph.ForkIds()) {
    trace::SinusoidProcess::Params params;
    params.outcomes = graph.OutcomeCount(fork);
    params.center = 0.5;
    // Paper: "the average probability fluctuation per branch was 0.4~0.5
    // during runtime" — swings reach ~0.05/0.95.
    params.amplitude = 0.45;
    params.period = 150.0 + 70.0 * k;
    params.phase = 0.7 * k;
    ++k;
    gen.SetProcess(fork,
                   std::make_unique<trace::SinusoidProcess>(params));
  }
  util::Random rng(seed);
  return gen.Generate(instances, rng);
}

ctg::BranchProbabilities BiasedProfile(
    const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
    const arch::Platform& platform, bool lowest, obs::TraceSession* trace) {
  constexpr double kBias = 0.95;
  const auto uniform = apps::UniformProbabilities(graph);
  sched::DlsWorkspace workspace;
  workspace.trace = trace;
  const sched::Schedule nominal =
      sched::RunDls(graph, analysis, platform, uniform, {}, &workspace);

  ctg::Minterm extreme;
  double extreme_energy =
      lowest ? std::numeric_limits<double>::infinity() : -1.0;
  for (const ctg::Minterm& scenario :
       analysis.EnumerateScenarioAssignments()) {
    const double energy = sim::ScenarioEnergy(nominal, scenario);
    if ((lowest && energy < extreme_energy) ||
        (!lowest && energy > extreme_energy)) {
      extreme_energy = energy;
      extreme = scenario;
    }
  }

  ctg::BranchProbabilities profile(graph.task_count());
  for (TaskId fork : graph.ForkIds()) {
    const int arity = graph.OutcomeCount(fork);
    const auto outcome = extreme.OutcomeOf(fork);
    std::vector<double> dist(
        static_cast<std::size_t>(arity),
        outcome.has_value() ? (1.0 - kBias) / (arity - 1) : 1.0 / arity);
    if (outcome.has_value()) {
      dist[static_cast<std::size_t>(*outcome)] = kBias;
    }
    profile.Set(fork, std::move(dist));
  }
  return profile;
}

sim::RunSummary AdaptiveHarness::Run(const trace::BranchTrace& vectors,
                                     const faults::Injector* injector) {
  return adaptive::RunAdaptive(*controller_, vectors, injector);
}

sched::Schedule ExperimentSpec::BuildOnlineSchedule() const {
  ACTG_CHECK(profile_ != nullptr, "ExperimentSpec: profile not set");
  dvfs::PolicyRunOptions options;
  options.trace = trace_;
  return dvfs::RunWithPolicy(policy_, *graph_, *analysis_, *platform_,
                             *profile_, options);
}

AdaptiveHarness ExperimentSpec::BuildAdaptive() const {
  ACTG_CHECK(profile_ != nullptr, "ExperimentSpec: profile not set");
  AdaptiveHarness harness;
  if (use_cache_) {
    harness.cache_ = std::make_unique<runtime::ScheduleCache>(
        runtime::ScheduleCacheOptions{}, metrics_);
  }
  adaptive::AdaptiveOptions options;
  options.window_length = window_length_;
  options.threshold = threshold_;
  options.policy = policy_;
  options.trace = trace_;
  options.cache = runtime::CacheBinding{harness.cache_.get(), 0};
  options.reschedule.mode = reschedule_mode_;
  options.metrics = metrics_;
  options.degrade = degrade_;
  harness.controller_ = std::make_unique<adaptive::AdaptiveController>(
      *graph_, *analysis_, *platform_, *profile_, options);
  return harness;
}

AdaptiveComparison CompareAdaptive(const ExperimentSpec& spec,
                                   const trace::BranchTrace& vectors) {
  AdaptiveComparison result;

  // The online run and the two adaptive thresholds are independent;
  // job 0 = online, jobs 1/2 = adaptive with thresholds[job - 1].
  const double thresholds[2] = {0.5, 0.1};
  auto run_unit = [&](std::size_t job) {
    if (job == 0) {
      const sched::Schedule online = spec.BuildOnlineSchedule();
      result.online_energy =
          sim::RunTrace(online, vectors, nullptr, spec.trace())
              .total_energy_mj;
      return;
    }
    ExperimentSpec unit = spec;
    AdaptiveHarness harness =
        unit.WithThreshold(thresholds[job - 1]).BuildAdaptive();
    const sim::RunSummary summary = harness.Run(vectors);
    if (job == 1) {
      result.adaptive_energy_t05 = summary.total_energy_mj;
      result.calls_t05 = harness.reschedule_count();
    } else {
      result.adaptive_energy_t01 = summary.total_energy_mj;
      result.calls_t01 = harness.reschedule_count();
    }
  };
  if (spec.pool() != nullptr) {
    runtime::ParallelMap(*spec.pool(), 3, [&](std::size_t job) {
      run_unit(job);
      return 0;
    });
  } else {
    for (std::size_t job = 0; job < 3; ++job) run_unit(job);
  }
  return result;
}

}  // namespace actg::bench
