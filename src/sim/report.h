/// \file report.h
/// Post-scheduling analysis reports: per-PE utilization and energy
/// breakdowns, and per-scenario summaries. Used by the CLI and examples
/// to explain *where* a schedule spends its time and energy.

#ifndef ACTG_SIM_REPORT_H
#define ACTG_SIM_REPORT_H

#include <ostream>
#include <vector>

#include "ctg/condition.h"
#include "runtime/metrics.h"
#include "sched/schedule.h"

namespace actg::sim {

/// Load and energy attributed to one PE.
struct PeReport {
  PeId pe;
  /// Number of tasks mapped to the PE.
  std::size_t task_count = 0;
  /// Expected busy time per instance, ms (activation-probability
  /// weighted scaled execution times).
  double expected_busy_ms = 0.0;
  /// Expected busy time / schedule makespan.
  double expected_utilization = 0.0;
  /// Expected computation energy per instance, mJ.
  double expected_energy_mj = 0.0;
};

/// Whole-schedule report.
struct ScheduleReport {
  double makespan_ms = 0.0;
  double deadline_ms = 0.0;
  /// Expected total energy (computation + communication), mJ.
  double expected_energy_mj = 0.0;
  /// Expected communication energy, mJ.
  double expected_comm_energy_mj = 0.0;
  /// Mean speed ratio over tasks, weighted by activation probability.
  double mean_speed_ratio = 0.0;
  std::vector<PeReport> pes;
};

/// Builds the report for \p schedule under \p probs.
ScheduleReport BuildReport(const sched::Schedule& schedule,
                           const ctg::BranchProbabilities& probs);

/// Renders the report as an aligned table.
void WriteReport(std::ostream& os, const ScheduleReport& report);

/// Renders a runtime metrics registry as an aligned table: counters
/// first, then the per-stage wall-clock timers with mean cost per call.
/// Counter values are deterministic for a fixed workload; timer values
/// are wall-clock and vary run to run (keep them out of outputs that
/// must be reproducible bit-for-bit).
void WriteMetricsReport(std::ostream& os,
                        const runtime::Metrics& metrics);

}  // namespace actg::sim

#endif  // ACTG_SIM_REPORT_H
