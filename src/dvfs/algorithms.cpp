#include "dvfs/algorithms.h"

namespace actg::dvfs {

namespace {

sched::Schedule SchedulePipeline(const Policy& policy,
                                 const ctg::Ctg& graph,
                                 const ctg::ActivationAnalysis& analysis,
                                 const arch::Platform& platform,
                                 const ctg::BranchProbabilities& probs,
                                 const PolicyRunOptions& options) {
  PathEngine engine(graph, analysis, platform,
                    PathEngineOptions{.max_paths = options.stretch.max_paths,
                                      .trace = options.trace});
  sched::Schedule schedule =
      sched::RunDls(graph, analysis, platform, probs, options.dls,
                    &engine.dls_workspace());
  PolicyContext ctx;
  ctx.schedule = &schedule;
  ctx.probs = &probs;
  ctx.stretch = options.stretch;
  ctx.nlp = options.nlp;
  policy.Apply(engine, ctx);
  return schedule;
}

}  // namespace

sched::Schedule RunWithPolicy(std::string_view policy,
                              const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const PolicyRunOptions& options) {
  return SchedulePipeline(GetPolicy(policy), graph, analysis, platform,
                          probs, options);
}

sched::Schedule RunOnlineAlgorithm(const ctg::Ctg& graph,
                                   const ctg::ActivationAnalysis& analysis,
                                   const arch::Platform& platform,
                                   const ctg::BranchProbabilities& probs,
                                   obs::TraceSession* trace) {
  PolicyRunOptions options;
  options.trace = trace;
  return RunWithPolicy("online", graph, analysis, platform, probs, options);
}

sched::Schedule RunReference1(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              obs::TraceSession* trace) {
  const std::vector<PeId> mapping = sched::RoundRobinMapping(graph, platform);
  PolicyRunOptions options;
  options.trace = trace;
  options.dls.level_policy = sched::LevelPolicy::kWorstCase;
  options.dls.mutex_aware = false;
  options.dls.fixed_mapping = &mapping;
  return RunWithPolicy("proportional", graph, analysis, platform, probs,
                       options);
}

sched::Schedule RunReference2(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const NlpOptions& options,
                              obs::TraceSession* trace) {
  PolicyRunOptions run_options;
  run_options.trace = trace;
  run_options.stretch = options.stretch;
  run_options.nlp = options;
  return RunWithPolicy("nlp", graph, analysis, platform, probs,
                       run_options);
}

}  // namespace actg::dvfs
