/// \file executor.h
/// Instance-level execution of a scheduled CTG.
///
/// Given a schedule and one branch decision vector, determines the active
/// task set, the energy actually consumed at the scheduled speeds, and
/// the actual completion time (tasks start as soon as their *active*
/// scheduled-DAG predecessors finish; or-nodes additionally wait for the
/// forks that decide their activating alternative — paper Example 1).

#ifndef ACTG_SIM_EXECUTOR_H
#define ACTG_SIM_EXECUTOR_H

#include <vector>

#include "ctg/condition.h"
#include "faults/injector.h"
#include "obs/trace.h"
#include "report/fleet_stats.h"
#include "sched/schedule.h"
#include "trace/trace.h"

namespace actg::sim {

/// Outcome of executing one CTG instance.
struct InstanceResult {
  /// Energy consumed by active tasks and transfers, mJ.
  double energy_mj = 0.0;
  /// Completion time of the last active task, ms.
  double makespan_ms = 0.0;
  /// True when makespan <= the graph deadline.
  bool deadline_met = true;
  /// Number of tasks activated by this instance.
  std::size_t active_tasks = 0;
  /// Execution time consumed beyond the scheduled (stretched) WCETs by
  /// injected overruns and re-runs, ms. Zero without fault injection.
  double overrun_ms = 0.0;
  /// Active tasks that executed on a PE flagged as failed (and paid the
  /// re-run penalty) this instance.
  std::size_t failed_pe_hits = 0;
  /// True when any fault effect was applied to this instance.
  bool faults_injected = false;
};

/// Executes one instance of the schedule under \p assignment, with
/// \p faults' effects when given: per-task execution times (and dynamic
/// energy, which scales with cycles at a fixed voltage) are multiplied
/// by the drawn overrun factors, tasks placed on a failed PE pay the
/// re-run penalty, and inter-PE communication is inflated by the
/// link-degradation factor. A null \p faults (or one with no effect)
/// is the fault-free run bit for bit. The instance is one "sim.instance"
/// span on \p session, if given.
InstanceResult ExecuteInstance(const sched::Schedule& schedule,
                               const ctg::BranchAssignment& assignment,
                               const faults::InstanceFaults* faults = nullptr,
                               obs::TraceSession* session = nullptr);

/// Aggregate of a whole trace run. The shared fleet vocabulary
/// (instances / deadline_misses / total_energy_mj / max_makespan_ms /
/// reschedules plus MissRate() and AverageEnergy()) lives in
/// report::FleetStats so the simulator, the serve daemon and the
/// campaign runner name and compute these quantities identically; this
/// summary adds the fault-detection aggregates only the trace
/// simulator produces.
struct RunSummary : report::FleetStats {
  /// Fault-detection aggregates; all stay zero without injection.
  double total_overrun_ms = 0.0;
  std::size_t overrun_instances = 0;
  std::size_t failed_pe_hits = 0;
  std::size_t faulted_instances = 0;

  void Add(const InstanceResult& r);
};

/// Runs every instance of \p trace against a fixed schedule (the
/// non-adaptive / "online" configuration of Section IV). With an
/// \p injector, each instance executes with its effects for that index,
/// after branch-profile drift is applied to a copy of the traced
/// assignment; an empty plan gives the fault-free summary bit for bit.
/// The run is one "sim.run" span, enclosing the instances' spans, on
/// \p session, if given.
RunSummary RunTrace(const sched::Schedule& schedule,
                    const trace::BranchTrace& trace,
                    const faults::Injector* injector = nullptr,
                    obs::TraceSession* session = nullptr);

/// Converts a scenario minterm into a full branch assignment (forks the
/// scenario leaves unresolved stay unset; they are inactive and their
/// outcome can never matter).
ctg::BranchAssignment AssignmentFromScenario(const ctg::Ctg& graph,
                                             const ctg::Minterm& scenario);

/// Worst completion time over every execution scenario of the graph.
/// This — not the all-tasks static makespan, which superimposes
/// mutually exclusive tasks — is the quantity the deadline guarantee of
/// the stretching algorithms applies to. Each scenario is one
/// "sim.instance" span on \p session, if given.
double MaxScenarioMakespan(const sched::Schedule& schedule,
                           obs::TraceSession* session = nullptr);

}  // namespace actg::sim

#endif  // ACTG_SIM_EXECUTOR_H
