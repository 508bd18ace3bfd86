#include "sim/executor.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/error.h"

namespace actg::sim {

InstanceResult ExecuteInstance(const sched::Schedule& schedule,
                               const ctg::BranchAssignment& assignment) {
  return ExecuteInstance(schedule, assignment, nullptr);
}

InstanceResult ExecuteInstance(const sched::Schedule& schedule,
                               const ctg::BranchAssignment& assignment,
                               const faults::InstanceFaults* faults) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const std::size_t n = graph.task_count();
  ACTG_CHECK(assignment.size() == n,
             "Assignment size does not match the graph");
  obs::ScopedSpan span(obs::TraceSession::Current(), "sim.instance",
                       "sim");

  std::vector<bool> active(n, false);
  InstanceResult result;
  for (TaskId task : graph.TaskIds()) {
    active[task.index()] = analysis.IsActive(task, assignment);
    if (active[task.index()]) ++result.active_tasks;
  }

  // Actual start times: ASAP over the scheduled DAG restricted to active
  // tasks. The scheduled DAG is acyclic, so a Kahn pass suffices; we
  // reuse the adjacency built by the schedule.
  const sched::Schedule::DagAdjacency adj = schedule.BuildDagAdjacency();
  std::vector<int> in_degree(n, 0);
  for (const auto& out : adj) {
    for (const auto& [dst, eid] : out) ++in_degree[dst.index()];
  }
  std::vector<TaskId> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) order.push_back(TaskId{static_cast<int>(i)});
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [dst, eid] : adj[order[head].index()]) {
      if (--in_degree[dst.index()] == 0) order.push_back(dst);
    }
  }
  ACTG_ASSERT(order.size() == n, "scheduled DAG contains a cycle");

  const bool faulted = faults != nullptr && faults->any;
  ACTG_CHECK(!faulted || faults->task_time_factor.empty() ||
                 faults->task_time_factor.size() == n,
             "InstanceFaults::task_time_factor needs one entry per task");
  result.faults_injected = faulted;

  std::vector<double> ready(n, 0.0);
  std::vector<double> finish(n, 0.0);
  for (const TaskId u : order) {
    if (!active[u.index()]) continue;
    // Fault effects multiply the scheduled execution time: the drawn
    // overrun factor, plus the re-run penalty when the task's PE is in
    // this instance's failed set. Energy scales with the same factor
    // (cycles grow, the voltage of the placement does not).
    double factor = 1.0;
    if (faulted) {
      if (!faults->task_time_factor.empty()) {
        factor = faults->task_time_factor[u.index()];
      }
      if (faults->PeFailed(schedule.placement(u).pe)) {
        factor *= faults->rerun_penalty;
        ++result.failed_pe_hits;
      }
    }
    const double scaled_wcet = schedule.ScaledWcet(u);
    const double start = ready[u.index()];
    finish[u.index()] = start + scaled_wcet * factor;
    result.energy_mj += schedule.ScaledEnergy(u) * factor;
    if (factor > 1.0) result.overrun_ms += scaled_wcet * (factor - 1.0);
    result.makespan_ms = std::max(result.makespan_ms, finish[u.index()]);
    for (const auto& [dst, eid] : adj[u.index()]) {
      if (!active[dst.index()]) continue;
      double arrival = finish[u.index()];
      if (eid.has_value()) {
        const ctg::Edge& e = graph.edge(*eid);
        if (e.condition.has_value() &&
            assignment.Get(e.condition->fork) != e.condition->outcome) {
          continue;  // edge not taken in this instance
        }
        double comm = schedule.EdgeCommTime(*eid);
        if (faulted) comm *= faults->comm_time_factor;
        arrival += comm;
        result.energy_mj += schedule.EdgeCommEnergy(*eid);
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
                    const trace::BranchTrace& trace) {
  obs::ScopedSpan span(obs::TraceSession::Current(), "sim.run", "sim");
  if (span.enabled()) {
    span.AddArg(obs::IntArg(
        "instances", static_cast<std::int64_t>(trace.size())));
  }
  RunSummary summary;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    summary.Add(ExecuteInstance(schedule, trace.At(i)));
  }
  return summary;
}

RunSummary RunTraceWithFaults(const sched::Schedule& schedule,
                              const trace::BranchTrace& trace,
                              const faults::Injector& injector) {
  obs::ScopedSpan span(obs::TraceSession::Current(), "sim.run", "sim");
  if (span.enabled()) {
    span.AddArg(obs::IntArg(
        "instances", static_cast<std::int64_t>(trace.size())));
    span.AddArg(obs::StrArg("faults", "injected"));
  }
  RunSummary summary;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const faults::InstanceFaults f = injector.ForInstance(i);
    ctg::BranchAssignment assignment = trace.At(i);
    injector.ApplyDrift(i, assignment);
    summary.Add(ExecuteInstance(schedule, assignment, &f));
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

double MaxScenarioMakespan(const sched::Schedule& schedule) {
  const ctg::Ctg& graph = schedule.graph();
  double worst = 0.0;
  for (const ctg::Minterm& scenario :
       schedule.analysis().EnumerateScenarioAssignments()) {
    const InstanceResult result = ExecuteInstance(
        schedule, AssignmentFromScenario(graph, scenario));
    worst = std::max(worst, result.makespan_ms);
  }
  return worst;
}

}  // namespace actg::sim
