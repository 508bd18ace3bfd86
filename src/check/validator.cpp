#include "check/validator.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ctg/activation.h"
#include "ctg/condition_bitset.h"
#include "util/error.h"

namespace actg::check {

namespace {

/// Absolute slack on every time/energy comparison, matching the 1e-5 the
/// rest of the library tolerates, plus a relative term so long schedules
/// do not trip on accumulated rounding.
double Tolerance(double a, double b) {
  return 1e-5 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

bool Close(double a, double b) { return std::abs(a - b) <= Tolerance(a, b); }

/// a >= b up to tolerance.
bool AtLeast(double a, double b) { return a >= b - Tolerance(a, b); }

std::string TaskLabel(const ctg::Ctg& graph, TaskId t) {
  return graph.task(t).name + "(#" + std::to_string(t.index()) + ")";
}

/// The scheduled DAG re-derived from primitives: CTG edges, the implied
/// fork -> or-node dependencies straight from the analysis (not the
/// schedule's recorded copy), and the scheduler's pseudo order edges.
/// Deliberately not the schedule's compiled sched::ScheduledDag: the
/// oracle must not share a bug with the code it checks.
struct OracleDag {
  /// Successor lists: (dst, edge id or nullopt for extra edges).
  std::vector<std::vector<std::pair<TaskId, std::optional<EdgeId>>>> adj;
  /// Kahn order; shorter than task_count when the DAG has a cycle.
  std::vector<TaskId> order;
  bool acyclic = false;
};

OracleDag BuildScheduledDag(const sched::Schedule& schedule) {
  const ctg::Ctg& graph = schedule.graph();
  const std::size_t n = graph.task_count();
  OracleDag dag;
  dag.adj.resize(n);
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    dag.adj[e.src.index()].emplace_back(e.dst, eid);
  }
  for (const auto& [fork, or_node] :
       schedule.analysis().ImpliedForkDependencies()) {
    dag.adj[fork.index()].emplace_back(or_node, std::nullopt);
  }
  for (const sched::ExtraEdge& e : schedule.pseudo_edges()) {
    dag.adj[e.src.index()].emplace_back(e.dst, std::nullopt);
  }

  std::vector<int> in_degree(n, 0);
  for (const auto& out : dag.adj) {
    for (const auto& [dst, eid] : out) ++in_degree[dst.index()];
  }
  dag.order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) dag.order.push_back(TaskId{static_cast<int>(i)});
  }
  for (std::size_t head = 0; head < dag.order.size(); ++head) {
    for (const auto& [dst, eid] : dag.adj[dag.order[head].index()]) {
      if (--in_degree[dst.index()] == 0) dag.order.push_back(dst);
    }
  }
  dag.acyclic = dag.order.size() == n;
  return dag;
}

/// Independently re-derived outcome of one instance. Mirrors the
/// executor's semantics (active predecessors gate starts, or-nodes wait
/// for their deciding forks via the implied dependencies, conditional
/// edges only count when taken) but recomputes every quantity from the
/// platform tables and the DVFS model definitions:
///   time(τ) = WCET(τ, pe) / σ,  energy(τ) = E(τ, pe) · σ²,
///   comm(e) = KB / B(src, dst)  (never voltage-scaled).
struct InstanceEval {
  double makespan_ms = 0.0;
  double energy_mj = 0.0;
  double overrun_ms = 0.0;
  std::size_t active_tasks = 0;
  std::size_t failed_pe_hits = 0;
  bool deadline_met = true;
};

InstanceEval EvalInstance(const sched::Schedule& schedule,
                          const OracleDag& dag,
                          const ctg::BranchAssignment& assignment,
                          const faults::InstanceFaults* faults) {
  const ctg::Ctg& graph = schedule.graph();
  const arch::Platform& platform = schedule.platform();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const std::size_t n = graph.task_count();
  const bool faulted = faults != nullptr && faults->any;
  ACTG_CHECK(!faulted || faults->task_time_factor.empty() ||
                 faults->task_time_factor.size() == n,
             "InstanceFaults::task_time_factor needs one entry per task");

  InstanceEval eval;
  std::vector<bool> active(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t{static_cast<int>(i)};
    active[i] = analysis.ActivationGuard(t).Evaluate(assignment);
    if (active[i]) ++eval.active_tasks;
  }

  std::vector<double> ready(n, 0.0);
  std::vector<double> finish(n, 0.0);
  for (const TaskId u : dag.order) {
    if (!active[u.index()]) continue;
    const sched::TaskPlacement& p = schedule.placement(u);
    double factor = 1.0;
    if (faulted) {
      if (!faults->task_time_factor.empty()) {
        factor = faults->task_time_factor[u.index()];
      }
      if (faults->PeFailed(p.pe)) {
        factor *= faults->rerun_penalty;
        ++eval.failed_pe_hits;
      }
    }
    const double exec_ms =
        platform.Wcet(u, p.pe) / p.speed_ratio;  // time ∝ 1/σ
    finish[u.index()] = ready[u.index()] + exec_ms * factor;
    eval.energy_mj += platform.Energy(u, p.pe) * p.speed_ratio *
                      p.speed_ratio * factor;  // E ∝ σ², cycles ∝ factor
    if (factor > 1.0) eval.overrun_ms += exec_ms * (factor - 1.0);
    eval.makespan_ms = std::max(eval.makespan_ms, finish[u.index()]);
    for (const auto& [dst, eid] : dag.adj[u.index()]) {
      if (!active[dst.index()]) continue;
      double arrival = finish[u.index()];
      if (eid.has_value()) {
        const ctg::Edge& e = graph.edge(*eid);
        if (e.condition.has_value() &&
            assignment.Get(e.condition->fork) != e.condition->outcome) {
          continue;  // edge not taken in this instance
        }
        const PeId src_pe = schedule.placement(e.src).pe;
        const PeId dst_pe = schedule.placement(e.dst).pe;
        if (src_pe != dst_pe) {
          double comm = e.comm_kbytes / platform.Bandwidth(src_pe, dst_pe);
          if (faulted) comm *= faults->comm_time_factor;
          arrival += comm;
          eval.energy_mj +=
              e.comm_kbytes * platform.TxEnergyPerKb(src_pe, dst_pe);
        }
      }
      ready[dst.index()] = std::max(ready[dst.index()], arrival);
    }
  }

  if (graph.deadline_ms() > 0.0) {
    eval.deadline_met = eval.makespan_ms <= graph.deadline_ms() + 1e-6;
  }
  return eval;
}

ctg::BranchAssignment AssignmentOf(const ctg::Ctg& graph,
                                   const ctg::Minterm& scenario) {
  ctg::BranchAssignment assignment(graph.task_count());
  for (const ctg::Condition& c : scenario.conditions()) {
    assignment.Set(c.fork, c.outcome);
  }
  return assignment;
}

void CheckPlacements(const sched::Schedule& schedule,
                     const Expectations& expect, Report& report) {
  const ctg::Ctg& graph = schedule.graph();
  const arch::Platform& platform = schedule.platform();
  const std::size_t n = graph.task_count();
  std::vector<bool> order_seen(n, false);
  for (TaskId t : graph.TaskIds()) {
    const sched::TaskPlacement& p = schedule.placement(t);
    const std::string label = TaskLabel(graph, t);
    if (!p.pe.valid() || p.pe.index() >= platform.pe_count()) {
      report.Add("placement.pe", label + " placed on invalid PE");
      continue;  // every further check dereferences the PE
    }
    if (!expect.available_pes.Contains(p.pe)) {
      report.Add("pe-mask", label + " placed on masked-out PE " +
                                platform.pe(p.pe).name);
    }
    if (p.start_ms < -1e-7) {
      report.Add("placement.start",
                 label + " starts before time zero: " +
                     std::to_string(p.start_ms));
    }
    if (!(p.speed_ratio > 0.0) || p.speed_ratio > 1.0 + 1e-7) {
      report.Add("speed.range", label + " speed ratio " +
                                    std::to_string(p.speed_ratio) +
                                    " outside (0, 1]");
    } else {
      if (p.speed_ratio < platform.pe(p.pe).min_speed_ratio - 1e-7) {
        report.Add("speed.pe-min",
                   label + " speed ratio " + std::to_string(p.speed_ratio) +
                       " below PE minimum " +
                       std::to_string(platform.pe(p.pe).min_speed_ratio));
      }
      if (expect.speed_floor > 0.0 &&
          p.speed_ratio < expect.speed_floor - 1e-7) {
        report.Add("speed.floor",
                   label + " speed ratio " + std::to_string(p.speed_ratio) +
                       " below the imposed floor " +
                       std::to_string(expect.speed_floor));
      }
      const auto& levels = platform.pe(p.pe).speed_levels;
      if (!levels.empty() &&
          std::none_of(levels.begin(), levels.end(), [&](double level) {
            return std::abs(level - p.speed_ratio) < 1e-9;
          })) {
        report.Add("speed.level",
                   label + " speed ratio " + std::to_string(p.speed_ratio) +
                       " is not an available discrete level");
      }
      const double expected =
          p.start_ms + platform.Wcet(t, p.pe) / p.speed_ratio;
      if (!Close(p.finish_ms, expected)) {
        report.Add("placement.finish",
                   label + " finish " + std::to_string(p.finish_ms) +
                       " != start + WCET/σ = " + std::to_string(expected));
      }
    }
    if (p.order_index < 0 || p.order_index >= static_cast<int>(n)) {
      report.Add("order.permutation",
                 label + " commit order index " +
                     std::to_string(p.order_index) + " out of range");
    } else if (order_seen[p.order_index]) {
      report.Add("order.permutation",
                 label + " duplicates commit order index " +
                     std::to_string(p.order_index));
    } else {
      order_seen[p.order_index] = true;
    }
  }
}

void CheckPrecedence(const sched::Schedule& schedule, Report& report) {
  const ctg::Ctg& graph = schedule.graph();
  const arch::Platform& platform = schedule.platform();
  // Data edges: the consumer may not start before the producer's data
  // arrives; cross-PE transfers additionally occupy their link window.
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    const sched::TaskPlacement& src = schedule.placement(e.src);
    const sched::TaskPlacement& dst = schedule.placement(e.dst);
    const sched::CommPlacement& comm = schedule.comm(eid);
    const std::string label = TaskLabel(graph, e.src) + " -> " +
                              TaskLabel(graph, e.dst);
    if (src.pe == dst.pe) {
      if (!Close(comm.finish_ms, comm.start_ms)) {
        report.Add("comm.same-pe",
                   label + " same-PE transfer has nonzero duration " +
                       std::to_string(comm.finish_ms - comm.start_ms));
      }
      if (!AtLeast(dst.start_ms, src.finish_ms)) {
        report.Add("precedence.edge",
                   label + ": consumer starts at " +
                       std::to_string(dst.start_ms) +
                       " before producer finish " +
                       std::to_string(src.finish_ms));
      }
      continue;
    }
    const double required =
        e.comm_kbytes / platform.Bandwidth(src.pe, dst.pe);
    if (comm.finish_ms - comm.start_ms < required - Tolerance(0, required)) {
      report.Add("comm.bandwidth",
                 label + " transfer window " +
                     std::to_string(comm.finish_ms - comm.start_ms) +
                     "ms shorter than " + std::to_string(required) +
                     "ms the link bandwidth requires");
    }
    if (!AtLeast(comm.start_ms, src.finish_ms)) {
      report.Add("comm.producer",
                 label + " transfer starts at " +
                     std::to_string(comm.start_ms) +
                     " before producer finish " +
                     std::to_string(src.finish_ms));
    }
    if (!AtLeast(dst.start_ms, comm.finish_ms)) {
      report.Add("comm.consumer",
                 label + " consumer starts at " +
                     std::to_string(dst.start_ms) +
                     " before transfer finish " +
                     std::to_string(comm.finish_ms));
    }
  }
  // Implied fork -> or-node dependencies, re-derived from the analysis
  // (paper Example 1: the or-node waits for the deciding fork on every
  // alternative).
  for (const auto& [fork, or_node] :
       schedule.analysis().ImpliedForkDependencies()) {
    if (!AtLeast(schedule.placement(or_node).start_ms,
                 schedule.placement(fork).finish_ms)) {
      report.Add("precedence.control",
                 TaskLabel(graph, or_node) + " starts before deciding fork " +
                     TaskLabel(graph, fork) + " finishes");
    }
  }
  // Pseudo order edges the scheduler committed to.
  for (const sched::ExtraEdge& e : schedule.pseudo_edges()) {
    if (!AtLeast(schedule.placement(e.dst).start_ms,
                 schedule.placement(e.src).finish_ms)) {
      report.Add("precedence.pseudo",
                 TaskLabel(graph, e.dst) + " starts before pseudo-order "
                 "predecessor " +
                     TaskLabel(graph, e.src) + " finishes");
    }
  }
}

void CheckExclusion(const sched::Schedule& schedule, Report& report) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const std::size_t n = graph.task_count();
  const ctg::ConditionSpace& space = analysis.space();
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId a{static_cast<int>(i)};
    for (std::size_t j = i + 1; j < n; ++j) {
      const TaskId b{static_cast<int>(j)};
      // Cross-check the three mutual-exclusion answers on every pair,
      // not just overlapping ones: the forms disagreeing is a bug even
      // when the scheduler happened not to exploit it.
      const bool dnf_compatible = analysis.ActivationGuard(a).CompatibleWith(
          analysis.ActivationGuard(b));
      if (analysis.MutuallyExclusive(a, b) == dnf_compatible) {
        report.Add("exclusion.analysis-mismatch",
                   "analysis mutex matrix disagrees with the DNF guard "
                   "algebra for " +
                       TaskLabel(graph, a) + " / " + TaskLabel(graph, b));
      }
      if (space.valid()) {
        const bool bit_compatible =
            analysis.BitActivationGuard(a).CompatibleWith(
                analysis.BitActivationGuard(b));
        if (bit_compatible != dnf_compatible) {
          report.Add("exclusion.form-mismatch",
                     "BitGuard and DNF compatibility disagree for " +
                         TaskLabel(graph, a) + " / " + TaskLabel(graph, b));
        }
      }
      const sched::TaskPlacement& pa = schedule.placement(a);
      const sched::TaskPlacement& pb = schedule.placement(b);
      if (pa.pe != pb.pe) continue;
      const bool disjoint =
          pa.finish_ms <= pb.start_ms + Tolerance(pa.finish_ms, pb.start_ms) ||
          pb.finish_ms <= pa.start_ms + Tolerance(pb.finish_ms, pa.start_ms);
      if (!disjoint && dnf_compatible) {
        report.Add("exclusion.overlap",
                   TaskLabel(graph, a) + " [" + std::to_string(pa.start_ms) +
                       ", " + std::to_string(pa.finish_ms) + "] and " +
                       TaskLabel(graph, b) + " [" +
                       std::to_string(pb.start_ms) + ", " +
                       std::to_string(pb.finish_ms) +
                       "] overlap on one PE without exclusive guards");
      }
    }
  }
}

void CheckDeadline(const sched::Schedule& schedule, const OracleDag& dag,
                   const Expectations& expect, Report& report) {
  const double deadline = expect.deadline_ms > 0.0
                              ? expect.deadline_ms
                              : schedule.graph().deadline_ms();
  if (deadline <= 0.0) {
    report.Add("deadline.feasible",
               "feasibility claimed but no deadline is set");
    return;
  }
  // The guarantee applies per execution scenario, not to the all-tasks
  // static makespan (which superimposes mutually exclusive tasks).
  for (const ctg::Minterm& scenario :
       schedule.analysis().EnumerateScenarioAssignments()) {
    const InstanceEval eval = EvalInstance(
        schedule, dag, AssignmentOf(schedule.graph(), scenario), nullptr);
    if (eval.makespan_ms > deadline + Tolerance(eval.makespan_ms, deadline)) {
      report.Add("deadline.feasible",
                 "scenario " +
                     scenario.ToString([&](TaskId t) {
                       return schedule.graph().TaskName(t);
                     }) +
                     " completes at " + std::to_string(eval.makespan_ms) +
                     "ms past the deadline " + std::to_string(deadline) +
                     "ms despite the feasibility claim");
    }
  }
}

}  // namespace

bool Report::Has(std::string_view rule) const {
  return std::any_of(violations_.begin(), violations_.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

void Report::Add(std::string rule, std::string detail) {
  violations_.push_back(Violation{std::move(rule), std::move(detail)});
}

void Report::Merge(const Report& other) {
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
}

std::string Report::ToString() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << "schedule-invariant violations (" << violations_.size() << "):";
  for (const Violation& v : violations_) {
    os << "\n  [" << v.rule << "] " << v.detail;
  }
  return os.str();
}

Report CheckSchedule(const sched::Schedule& schedule,
                     const Expectations& expect) {
  Report report;
  CheckPlacements(schedule, expect, report);
  if (report.Has("placement.pe")) {
    return report;  // further checks dereference the placement PEs
  }
  const OracleDag dag = BuildScheduledDag(schedule);
  if (!dag.acyclic) {
    report.Add("dag.acyclic", "scheduled DAG contains a cycle");
    return report;  // time/scenario checks assume an order exists
  }
  CheckPrecedence(schedule, report);
  CheckExclusion(schedule, report);
  if (expect.deadline_feasible) {
    CheckDeadline(schedule, dag, expect, report);
  }
  return report;
}

Report CheckInstance(const sched::Schedule& schedule,
                     const ctg::BranchAssignment& assignment,
                     const sim::InstanceResult& result,
                     const faults::InstanceFaults* faults) {
  Report report;
  for (TaskId t : schedule.graph().TaskIds()) {
    const PeId pe = schedule.placement(t).pe;
    if (!pe.valid() || pe.index() >= schedule.platform().pe_count()) {
      report.Add("placement.pe",
                 TaskLabel(schedule.graph(), t) + " placed on invalid PE");
      return report;  // the replay dereferences the placement PEs
    }
  }
  const OracleDag dag = BuildScheduledDag(schedule);
  if (!dag.acyclic) {
    report.Add("dag.acyclic", "scheduled DAG contains a cycle");
    return report;
  }
  const InstanceEval eval = EvalInstance(schedule, dag, assignment, faults);
  if (eval.active_tasks != result.active_tasks) {
    report.Add("instance.active",
               "reported " + std::to_string(result.active_tasks) +
                   " active tasks, guards activate " +
                   std::to_string(eval.active_tasks));
  }
  if (!Close(eval.makespan_ms, result.makespan_ms)) {
    report.Add("instance.makespan",
               "reported completion " + std::to_string(result.makespan_ms) +
                   "ms, independent replay gives " +
                   std::to_string(eval.makespan_ms) + "ms");
  }
  if (!Close(eval.energy_mj, result.energy_mj)) {
    report.Add("instance.energy",
               "reported energy " + std::to_string(result.energy_mj) +
                   "mJ, re-integration under E ∝ σ² gives " +
                   std::to_string(eval.energy_mj) + "mJ");
  }
  if (!Close(eval.overrun_ms, result.overrun_ms)) {
    report.Add("instance.overrun",
               "reported overrun " + std::to_string(result.overrun_ms) +
                   "ms, independent replay gives " +
                   std::to_string(eval.overrun_ms) + "ms");
  }
  if (eval.failed_pe_hits != result.failed_pe_hits) {
    report.Add("instance.failed-pe-hits",
               "reported " + std::to_string(result.failed_pe_hits) +
                   " failed-PE hits, independent replay gives " +
                   std::to_string(eval.failed_pe_hits));
  }
  const double deadline = schedule.graph().deadline_ms();
  // Only flag the deadline verdict when it is not a rounding-boundary
  // call: both evaluations use makespan <= deadline + 1e-6.
  if (eval.deadline_met != result.deadline_met && deadline > 0.0 &&
      std::abs(eval.makespan_ms - deadline) > 1e-4) {
    report.Add("instance.deadline-flag",
               std::string("reported deadline_met=") +
                   (result.deadline_met ? "true" : "false") +
                   " contradicts replayed completion " +
                   std::to_string(eval.makespan_ms) + "ms vs deadline " +
                   std::to_string(deadline) + "ms");
  }
  return report;
}

void Validate(const sched::Schedule& schedule, const Expectations& expect) {
  const Report report = CheckSchedule(schedule, expect);
  if (!report.ok()) throw InternalError(report.ToString());
}

void ValidateInstance(const sched::Schedule& schedule,
                      const ctg::BranchAssignment& assignment,
                      const sim::InstanceResult& result,
                      const faults::InstanceFaults* faults) {
  const Report report = CheckInstance(schedule, assignment, result, faults);
  if (!report.ok()) throw InternalError(report.ToString());
}

}  // namespace actg::check
