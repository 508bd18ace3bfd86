#include "sim/report.h"

#include "sim/energy.h"
#include "util/table.h"

namespace actg::sim {

ScheduleReport BuildReport(const sched::Schedule& schedule,
                           const ctg::BranchProbabilities& probs) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const arch::Platform& platform = schedule.platform();

  const ctg::ActivationProbabilities p = analysis.Evaluate(probs);

  ScheduleReport report;
  report.makespan_ms = schedule.Makespan();
  report.deadline_ms = graph.deadline_ms();
  report.expected_energy_mj = ExpectedEnergy(schedule, p);
  report.expected_comm_energy_mj =
      report.expected_energy_mj - ExpectedComputeEnergy(schedule, p);

  report.pes.reserve(platform.pe_count());
  for (PeId pe : platform.PeIds()) {
    report.pes.push_back(PeReport{pe, 0, 0.0, 0.0, 0.0});
  }

  double weighted_speed = 0.0;
  double weight = 0.0;
  for (TaskId task : graph.TaskIds()) {
    const sched::TaskPlacement& placement = schedule.placement(task);
    const double p_task = p.task(task);
    PeReport& pe_report = report.pes[placement.pe.index()];
    ++pe_report.task_count;
    pe_report.expected_busy_ms += p_task * schedule.ScaledWcet(task);
    pe_report.expected_energy_mj += p_task * schedule.ScaledEnergy(task);
    weighted_speed += p_task * placement.speed_ratio;
    weight += p_task;
  }
  for (PeReport& pe_report : report.pes) {
    pe_report.expected_utilization =
        report.makespan_ms > 0.0
            ? pe_report.expected_busy_ms / report.makespan_ms
            : 0.0;
  }
  report.mean_speed_ratio = weight > 0.0 ? weighted_speed / weight : 1.0;
  return report;
}

void WriteReport(std::ostream& os, const ScheduleReport& report) {
  os << "makespan " << util::TablePrinter::Format(report.makespan_ms, 2)
     << " ms / deadline "
     << util::TablePrinter::Format(report.deadline_ms, 2)
     << " ms; expected energy "
     << util::TablePrinter::Format(report.expected_energy_mj, 2)
     << " mJ (comm "
     << util::TablePrinter::Format(report.expected_comm_energy_mj, 2)
     << " mJ); mean speed ratio "
     << util::TablePrinter::Format(report.mean_speed_ratio, 2) << "\n";
  util::TablePrinter table(
      {"PE", "tasks", "E[busy] ms", "E[util]", "E[energy] mJ"});
  for (const PeReport& pe : report.pes) {
    table.BeginRow()
        .Cell("PE" + std::to_string(pe.pe.value))
        .Cell(pe.task_count)
        .Cell(pe.expected_busy_ms, 2)
        .Cell(util::TablePrinter::Format(100.0 * pe.expected_utilization,
                                         1) +
              "%")
        .Cell(pe.expected_energy_mj, 2);
  }
  table.Print(os);
}

namespace {

/// Counter snapshot with the health counters callers watch for always
/// materialized: guard.dnf_fallbacks stays visible (as 0) even when the
/// bitset guard algebra never fell back, and degrade.escalations (as 0)
/// on clean runs, so their absence is never mistaken for "not
/// measured". Deadline misses, overruns and injected faults live in
/// sim::RunSummary, not in any registry.
std::map<std::string, std::uint64_t> ReportedCounters(
    const runtime::Metrics& metrics) {
  auto counters = metrics.Counters();
  for (const char* name : {"guard.dnf_fallbacks", "degrade.escalations"}) {
    counters.try_emplace(name, metrics.counter(name));
  }
  return counters;
}

}  // namespace

void WriteMetricsReport(std::ostream& os,
                        const runtime::Metrics& metrics) {
  const auto counters = ReportedCounters(metrics);
  const auto timers = metrics.TimersMs();
  if (!counters.empty()) {
    util::TablePrinter table({"counter", "value"});
    for (const auto& [name, value] : counters) {
      table.BeginRow().Cell(name).Cell(value);
    }
    table.Print(os);
  }
  if (!timers.empty()) {
    util::TablePrinter table({"stage", "total ms", "calls", "ms/call"});
    for (const auto& [name, ms] : timers) {
      const std::uint64_t calls = metrics.counter(name + ".calls");
      table.BeginRow()
          .Cell(name)
          .Cell(ms, 2)
          .Cell(calls)
          .Cell(calls == 0 ? 0.0 : ms / static_cast<double>(calls), 4);
    }
    table.Print(os);
  }
}

}  // namespace actg::sim
