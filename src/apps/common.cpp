#include "apps/common.h"

#include <vector>

#include "sched/dls.h"
#include "util/error.h"

namespace actg::apps {

ctg::BranchProbabilities UniformProbabilities(const ctg::Ctg& graph) {
  ctg::BranchProbabilities probs(graph.task_count());
  for (TaskId fork : graph.ForkIds()) {
    const int arity = graph.OutcomeCount(fork);
    probs.Set(fork,
              std::vector<double>(static_cast<std::size_t>(arity),
                                  1.0 / static_cast<double>(arity)));
  }
  return probs;
}

double AssignDeadline(ctg::Ctg& graph, const arch::Platform& platform,
                      double factor, obs::TraceSession* trace) {
  ACTG_CHECK(factor >= 1.0, "Deadline factor must be >= 1");
  const ctg::ActivationAnalysis analysis(graph);
  const ctg::BranchProbabilities probs = UniformProbabilities(graph);
  sched::DlsWorkspace workspace;
  workspace.trace = trace;
  const sched::Schedule schedule =
      sched::RunDls(graph, analysis, platform, probs, {}, &workspace);
  const double deadline = schedule.Makespan() * factor;
  graph.SetDeadline(deadline);
  return deadline;
}

}  // namespace actg::apps
