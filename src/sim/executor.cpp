#include "sim/executor.h"

#include <algorithm>

#include "util/error.h"

namespace actg::sim {

InstanceResult ExecuteInstance(const sched::Schedule& schedule,
                               const ctg::BranchAssignment& assignment,
                               const faults::InstanceFaults* faults,
                               obs::TraceSession* session) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const std::size_t n = graph.task_count();
  ACTG_CHECK(assignment.size() == n,
             "Assignment size does not match the graph");
  obs::ScopedSpan span(session, "sim.instance", "sim");

  InstanceResult result;
  const std::vector<char> active = analysis.ActiveTasks(assignment);
  result.active_tasks =
      static_cast<std::size_t>(std::count(active.begin(), active.end(), 1));

  const bool faulted = faults != nullptr && faults->any;
  ACTG_CHECK(!faulted || faults->task_time_factor.empty() ||
                 faults->task_time_factor.size() == n,
             "InstanceFaults::task_time_factor needs one entry per task");
  result.faults_injected = faulted;

  // Actual start times: ASAP over the scheduled DAG restricted to active
  // tasks, in the compiled DAG's Kahn order.
  const sched::ScheduledDag& dag = schedule.dag();
  std::vector<double> ready(n, 0.0);
  for (const std::uint32_t index : dag.order()) {
    if (active[index] == 0) continue;
    const TaskId u{static_cast<int>(index)};
    // Fault effects multiply the scheduled execution time: the drawn
    // overrun factor, plus the re-run penalty when the task's PE is in
    // this instance's failed set. Energy scales with the same factor
    // (cycles grow, the voltage of the placement does not).
    double factor = 1.0;
    if (faulted) {
      if (!faults->task_time_factor.empty()) {
        factor = faults->task_time_factor[index];
      }
      if (faults->PeFailed(schedule.placement(u).pe)) {
        factor *= faults->rerun_penalty;
        ++result.failed_pe_hits;
      }
    }
    const double scaled_wcet = schedule.ScaledWcet(u);
    const double finish = ready[index] + scaled_wcet * factor;
    result.energy_mj += schedule.ScaledEnergy(u) * factor;
    if (factor > 1.0) result.overrun_ms += scaled_wcet * (factor - 1.0);
    result.makespan_ms = std::max(result.makespan_ms, finish);
    for (std::uint32_t arc = dag.arc_begin(index); arc < dag.arc_end(index);
         ++arc) {
      const TaskId dst = dag.target(arc);
      if (active[dst.index()] == 0) continue;
      double arrival = finish;
      const EdgeId eid = dag.edge(arc);
      if (eid.valid()) {
        const ctg::Edge& e = graph.edge(eid);
        if (e.condition.has_value() &&
            assignment.Get(e.condition->fork) != e.condition->outcome) {
          continue;  // edge not taken in this instance
        }
        double comm = schedule.EdgeCommTime(eid);
        if (faulted) comm *= faults->comm_time_factor;
        arrival += comm;
        result.energy_mj += schedule.EdgeCommEnergy(eid);
      }
      ready[dst.index()] = std::max(ready[dst.index()], arrival);
    }
  }

  if (graph.deadline_ms() > 0.0) {
    result.deadline_met = result.makespan_ms <= graph.deadline_ms() + 1e-6;
  }
  if (span.enabled()) {
    span.AddArg(obs::IntArg(
        "active", static_cast<std::int64_t>(result.active_tasks)));
  }
  return result;
}

void RunSummary::Add(const InstanceResult& r) {
  ++instances;
  total_energy_mj += r.energy_mj;
  if (!r.deadline_met) ++deadline_misses;
  max_makespan_ms = std::max(max_makespan_ms, r.makespan_ms);
  total_overrun_ms += r.overrun_ms;
  if (r.overrun_ms > 0.0) ++overrun_instances;
  failed_pe_hits += r.failed_pe_hits;
  if (r.faults_injected) ++faulted_instances;
}

RunSummary RunTrace(const sched::Schedule& schedule,
                    const trace::BranchTrace& trace,
                    const faults::Injector* injector,
                    obs::TraceSession* session) {
  obs::ScopedSpan span(session, "sim.run", "sim");
  if (span.enabled()) {
    span.AddArg(obs::IntArg(
        "instances", static_cast<std::int64_t>(trace.size())));
    if (injector != nullptr) span.AddArg(obs::StrArg("faults", "injected"));
  }
  RunSummary summary;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (injector == nullptr) {
      summary.Add(ExecuteInstance(schedule, trace.At(i), nullptr, session));
      continue;
    }
    const faults::InstanceFaults f = injector->ForInstance(i);
    ctg::BranchAssignment assignment = trace.At(i);
    injector->ApplyDrift(i, assignment);
    summary.Add(ExecuteInstance(schedule, assignment, &f, session));
  }
  return summary;
}

ctg::BranchAssignment AssignmentFromScenario(const ctg::Ctg& graph,
                                             const ctg::Minterm& scenario) {
  ctg::BranchAssignment assignment(graph.task_count());
  for (const ctg::Condition& c : scenario.conditions()) {
    assignment.Set(c.fork, c.outcome);
  }
  return assignment;
}

double MaxScenarioMakespan(const sched::Schedule& schedule,
                           obs::TraceSession* session) {
  const ctg::Ctg& graph = schedule.graph();
  double worst = 0.0;
  for (const ctg::Minterm& scenario :
       schedule.analysis().EnumerateScenarioAssignments()) {
    const InstanceResult result =
        ExecuteInstance(schedule, AssignmentFromScenario(graph, scenario),
                        nullptr, session);
    worst = std::max(worst, result.makespan_ms);
  }
  return worst;
}

}  // namespace actg::sim
