#include "sim/energy.h"

#include "util/error.h"

namespace actg::sim {

namespace {

/// An evaluation indexes tasks and edges densely; one taken from another
/// graph's analysis would read past its tables.
void CheckEvaluationFits(const sched::Schedule& schedule,
                         const ctg::ActivationProbabilities& probs) {
  const ctg::Ctg& graph = schedule.graph();
  ACTG_CHECK(probs.task_count() == graph.task_count() &&
                 probs.edge_count() == graph.edge_count(),
             "Activation probabilities were evaluated for another graph");
}

}  // namespace

double ExpectedComputeEnergy(const sched::Schedule& schedule,
                             const ctg::ActivationProbabilities& probs) {
  CheckEvaluationFits(schedule, probs);
  double total = 0.0;
  for (TaskId task : schedule.graph().TaskIds()) {
    total += probs.task(task) * schedule.ScaledEnergy(task);
  }
  return total;
}

double ExpectedComputeEnergy(const sched::Schedule& schedule,
                             const ctg::BranchProbabilities& probs) {
  return ExpectedComputeEnergy(schedule, schedule.analysis().Evaluate(probs));
}

double ExpectedEnergy(const sched::Schedule& schedule,
                      const ctg::ActivationProbabilities& probs) {
  double total = ExpectedComputeEnergy(schedule, probs);
  for (EdgeId eid : schedule.graph().EdgeIds()) {
    const double energy = schedule.EdgeCommEnergy(eid);
    if (energy <= 0.0) continue;
    total += probs.edge(eid) * energy;
  }
  return total;
}

double ExpectedEnergy(const sched::Schedule& schedule,
                      const ctg::BranchProbabilities& probs) {
  return ExpectedEnergy(schedule, schedule.analysis().Evaluate(probs));
}

double ScenarioEnergy(const sched::Schedule& schedule,
                      const ctg::Minterm& scenario) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  double total = 0.0;
  for (TaskId task : graph.TaskIds()) {
    if (analysis.IsActive(task, scenario)) {
      total += schedule.ScaledEnergy(task);
    }
  }
  for (EdgeId eid : graph.EdgeIds()) {
    const double energy = schedule.EdgeCommEnergy(eid);
    if (energy <= 0.0) continue;
    bool active = false;
    for (const ctg::Minterm& m : analysis.EdgeGuard(eid).minterms()) {
      if (scenario.Implies(m)) {
        active = true;
        break;
      }
    }
    if (active) total += energy;
  }
  return total;
}

}  // namespace actg::sim
