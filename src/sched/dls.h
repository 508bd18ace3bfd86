/// \file dls.h
/// Dynamic-level scheduling of CTGs (paper Section III.A, Eq. 1).
///
/// List scheduler after Sih & Lee [13], modified per the paper (and its
/// companion [17]) to be conditional-task-graph aware:
///   DL(τi, pj) = SL(τi) − AT(τi, pj) + δ(τi, pj)
/// where SL is the (probability-weighted) static level, AT is the first
/// time τi can start on pj given data arrival and the PE timeline, and
/// δ is the difference between τi's PE-average WCET and its WCET on pj.
/// Mutually exclusive tasks are allowed to occupy a PE at the same time
/// ("mutual exclusive task may be able to start on the same processor
/// during the same time").
///
/// The probability-blind, mutual-exclusion-blind configuration of the
/// same machinery is the mapping/ordering stage of Reference Algorithm 1.

#ifndef ACTG_SCHED_DLS_H
#define ACTG_SCHED_DLS_H

#include <cstdint>
#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "sched/schedule.h"
#include "sched/static_level.h"
#include "util/error.h"

namespace actg::sched {

/// Configuration of the DLS machinery.
struct DlsOptions {
  /// SL combination policy at branch forks (probability-weighted for the
  /// modified DLS, worst-case for Reference Algorithm 1).
  LevelPolicy level_policy = LevelPolicy::kProbabilityWeighted;
  /// When true, mutually exclusive tasks may overlap on one PE.
  bool mutex_aware = true;
  /// When set (one PE per task), the mapping is fixed and DLS only
  /// performs the ordering. This models Reference Algorithm 1 [10],
  /// which orders and stretches tasks on a *given* mapping ("tasks that
  /// are mapped to the same processor are ordered for a maximum slack").
  const std::vector<PeId>* fixed_mapping = nullptr;
  /// When set (one entry per task, invalid PeId = unconstrained), tasks
  /// with a valid entry are pinned to that PE while the rest map
  /// freely. This is the warm-start mode of the incremental
  /// rescheduler: clean tasks keep the prior mapping (their candidate
  /// loop collapses from |PEs| evaluations to one), dirty tasks re-map.
  /// Ordering and start times are still computed globally, so the
  /// result is a complete, feasible schedule either way. Ignored when a
  /// fixed_mapping pins every placement; pinned PEs must be available.
  const std::vector<PeId>* pinned_mapping = nullptr;
  /// PE availability: masked-out PEs (e.g. dropped-out ones the
  /// degradation ladder excludes) receive no task. Ignored when a
  /// fixed_mapping pins the placement. Default: every PE available.
  arch::PeMask available_pes;

  /// Ok when the options are usable: a fixed mapping, when given, must
  /// be non-empty and assign only valid PE ids (RunDls additionally
  /// checks it covers every task of the graph it is handed; a pinned
  /// mapping may leave entries invalid but must not be empty), and the
  /// availability mask must not remove every PE RunDls could use.
  util::Error Validate() const;
};

/// A naive mapping for ordering-only baselines: tasks are assigned
/// round-robin over the PEs in topological order (no communication or
/// probability awareness).
std::vector<PeId> RoundRobinMapping(const ctg::Ctg& graph,
                                    const arch::Platform& platform);

/// Reusable scratch buffers for RunDls. A workspace kept alive across
/// reschedules (e.g. inside a dvfs::PathEngine) lets repeated DLS runs
/// on the same graph skip all per-call vector growth; the produced
/// schedules are identical with or without one, and one workspace may
/// serve graphs and platforms of any size. Contents are meaningless
/// between calls.
struct DlsWorkspace {
  /// One committed busy interval of a PE timeline.
  struct Interval {
    double start;
    double finish;
    TaskId task;
  };
  /// One entry of the ready list: a task whose scheduled-DAG
  /// predecessors are all placed, and its PE-average WCET (Eq. 1).
  struct ReadyTask {
    TaskId task;
    double avg_wcet;
  };

  std::vector<double> levels;
  std::vector<int> pending_preds;
  std::vector<std::vector<TaskId>> control_preds;
  std::vector<ReadyTask> ready_list;
  /// AT(task, pe) per ready entry: row r holds the pe_count earliest
  /// starts of ready_list[r] (entries of non-candidate PEs unused).
  std::vector<double> ready_at;
  /// Per-PE committed intervals, sorted by (start, finish).
  std::vector<std::vector<Interval>> timelines;
  /// Ancestor closure of the scheduled DAG: one row of
  /// ceil(task_count / 64) words per task, bit a of row b set when a
  /// reaches b.
  std::vector<std::uint64_t> ancestors;
};

/// Runs DLS and returns the complete schedule (placements, commit order,
/// communication windows, pseudo order edges; all speed ratios 1).
///
/// \p probs must cover every fork of the graph. The referenced objects
/// must outlive the returned schedule. \p workspace, when given,
/// provides reusable scratch storage (see DlsWorkspace).
Schedule RunDls(const ctg::Ctg& graph,
                const ctg::ActivationAnalysis& analysis,
                const arch::Platform& platform,
                const ctg::BranchProbabilities& probs,
                const DlsOptions& options = {},
                DlsWorkspace* workspace = nullptr);

}  // namespace actg::sched

#endif  // ACTG_SCHED_DLS_H
