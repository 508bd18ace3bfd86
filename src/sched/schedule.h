/// \file schedule.h
/// Static schedule of a CTG on a platform.
///
/// A Schedule records, for every task, its processing element, its
/// (worst-case) start/finish times and its DVFS speed ratio; for every
/// cross-PE edge, the time window of the data transfer on the link; and
/// the *scheduled DAG*: the original CTG edges plus the implied
/// fork -> or-node control dependencies (paper Example 1) plus the
/// pseudo order edges the scheduler introduces between non-mutually-
/// exclusive tasks that share a PE ("we also update the CTG to reflect
/// this change", paper Section III.A).

#ifndef ACTG_SCHED_SCHEDULE_H
#define ACTG_SCHED_SCHEDULE_H

#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/graph.h"
#include "sched/scheduled_dag.h"

namespace actg::sched {

/// Placement of one task.
struct TaskPlacement {
  PeId pe;
  /// Worst-case start time at the current speed assignment, ms.
  double start_ms = 0.0;
  /// Worst-case finish time at the current speed assignment, ms.
  double finish_ms = 0.0;
  /// DVFS speed ratio in (0, 1]; 1 = nominal. Execution time scales by
  /// 1/ratio, energy by ratio² (paper Section IV energy model).
  double speed_ratio = 1.0;
  /// Commit order assigned by the scheduler (the "task order generated
  /// by the ordering algorithm" that the stretching heuristic follows).
  int order_index = -1;
};

/// Placement of one edge's data transfer.
struct CommPlacement {
  /// Transfer window on the point-to-point link between the endpoint
  /// PEs; zero-length (start == finish) for same-PE edges.
  double start_ms = 0.0;
  double finish_ms = 0.0;
};

/// A complete static schedule. Produced by the schedulers in dls.h,
/// consumed by the DVFS stretchers and the simulator. The referenced
/// graph, analysis and platform must outlive the schedule.
class Schedule {
 public:
  Schedule(const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
           const arch::Platform& platform);

  const ctg::Ctg& graph() const { return *graph_; }
  const ctg::ActivationAnalysis& analysis() const { return *analysis_; }
  const arch::Platform& platform() const { return *platform_; }

  const TaskPlacement& placement(TaskId task) const {
    return placements_.at(task.index());
  }
  TaskPlacement& placement(TaskId task) {
    return placements_.at(task.index());
  }

  const CommPlacement& comm(EdgeId edge) const {
    return comms_.at(edge.index());
  }
  CommPlacement& comm(EdgeId edge) { return comms_.at(edge.index()); }

  /// Pseudo order edges between non-mutex tasks sharing a PE.
  const std::vector<ExtraEdge>& pseudo_edges() const {
    return pseudo_edges_;
  }
  /// Adds a pseudo order edge; drops the compiled DAG, which the next
  /// RecomputeTimes() compiles again.
  void AddPseudoEdge(TaskId src, TaskId dst);

  /// Implied fork -> or-node control dependencies (from the analysis).
  const std::vector<ExtraEdge>& control_edges() const {
    return control_edges_;
  }

  /// WCET of \p task on its assigned PE at nominal speed.
  double NominalWcet(TaskId task) const;

  /// Execution time of \p task at its current speed ratio.
  double ScaledWcet(TaskId task) const;

  /// Energy of \p task at its current speed ratio.
  double ScaledEnergy(TaskId task) const;

  /// Communication delay of \p edge given the task placements.
  double EdgeCommTime(EdgeId edge) const;

  /// Communication energy of \p edge given the task placements.
  double EdgeCommEnergy(EdgeId edge) const;

  /// Worst-case makespan (max finish over tasks).
  double Makespan() const;

  /// Recomputes all worst-case start/finish times (and comm windows)
  /// from the scheduled DAG under the current speed ratios, preserving
  /// the DAG structure. Start(τ) = max over scheduled-DAG predecessors
  /// of finish + comm delay. Compiles the scheduled DAG first when the
  /// schedule has none (the scheduler's closing call); later calls
  /// reuse it.
  void RecomputeTimes();

  /// The compiled scheduled DAG, shared by every copy of this schedule.
  /// Throws actg::InternalError when the schedule has none: none before
  /// the first RecomputeTimes() and none after an AddPseudoEdge().
  const ScheduledDag& dag() const;

  /// Validates internal consistency: every precedence constraint of the
  /// scheduled DAG is respected by the recorded times; no two non-mutex
  /// tasks overlap on one PE; speed ratios respect the PE minimum.
  /// Throws actg::InternalError on violation.
  void Validate() const;

 private:
  const ctg::Ctg* graph_;
  const ctg::ActivationAnalysis* analysis_;
  const arch::Platform* platform_;
  std::vector<TaskPlacement> placements_;
  std::vector<CommPlacement> comms_;
  std::vector<ExtraEdge> pseudo_edges_;
  std::vector<ExtraEdge> control_edges_;
  /// Compiled by RecomputeTimes() only, never from a const member, so
  /// schedules shared between threads are read-only.
  ScheduledDag dag_;
};

}  // namespace actg::sched

#endif  // ACTG_SCHED_SCHEDULE_H
