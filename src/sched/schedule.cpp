#include "sched/schedule.h"

#include <algorithm>

#include "util/error.h"

namespace actg::sched {

namespace {
constexpr double kTimeEps = 1e-7;
}

Schedule::Schedule(const ctg::Ctg& graph,
                   const ctg::ActivationAnalysis& analysis,
                   const arch::Platform& platform)
    : graph_(&graph), analysis_(&analysis), platform_(&platform) {
  ACTG_CHECK(platform.task_count() == graph.task_count(),
             "Platform and graph disagree on the task count");
  placements_.resize(graph.task_count());
  comms_.resize(graph.edge_count());
  for (const auto& [fork, or_node] : analysis.ImpliedForkDependencies()) {
    control_edges_.push_back(ExtraEdge{fork, or_node});
  }
}

void Schedule::AddPseudoEdge(TaskId src, TaskId dst) {
  ACTG_CHECK(src.valid() && dst.valid() && src != dst,
             "Pseudo edge endpoints must be distinct valid tasks");
  pseudo_edges_.push_back(ExtraEdge{src, dst});
  dag_ = ScheduledDag{};
}

double Schedule::NominalWcet(TaskId task) const {
  return platform_->Wcet(task, placement(task).pe);
}

double Schedule::ScaledWcet(TaskId task) const {
  return arch::dvfs_model::ScaledTime(NominalWcet(task),
                                      placement(task).speed_ratio);
}

double Schedule::ScaledEnergy(TaskId task) const {
  return arch::dvfs_model::ScaledEnergy(
      platform_->Energy(task, placement(task).pe),
      placement(task).speed_ratio);
}

double Schedule::EdgeCommTime(EdgeId edge) const {
  const ctg::Edge& e = graph_->edge(edge);
  return platform_->CommTime(e.comm_kbytes, placement(e.src).pe,
                             placement(e.dst).pe);
}

double Schedule::EdgeCommEnergy(EdgeId edge) const {
  const ctg::Edge& e = graph_->edge(edge);
  return platform_->CommEnergy(e.comm_kbytes, placement(e.src).pe,
                               placement(e.dst).pe);
}

double Schedule::Makespan() const {
  double makespan = 0.0;
  for (const TaskPlacement& p : placements_) {
    makespan = std::max(makespan, p.finish_ms);
  }
  return makespan;
}

const ScheduledDag& Schedule::dag() const {
  ACTG_ASSERT(dag_.compiled(),
              "scheduled DAG not compiled: RecomputeTimes() must follow "
              "the last AddPseudoEdge()");
  return dag_;
}

void Schedule::RecomputeTimes() {
  if (!dag_.compiled()) {
    dag_ = ScheduledDag::Compile(*graph_, control_edges_, pseudo_edges_);
  }
  std::vector<double> ready(graph_->task_count(), 0.0);
  for (const std::uint32_t index : dag_.order()) {
    const TaskId u{static_cast<int>(index)};
    TaskPlacement& p = placements_[index];
    p.start_ms = ready[index];
    p.finish_ms = p.start_ms + ScaledWcet(u);
    for (std::uint32_t arc = dag_.arc_begin(index);
         arc < dag_.arc_end(index); ++arc) {
      const TaskId dst = dag_.target(arc);
      const EdgeId eid = dag_.edge(arc);
      double arrival = p.finish_ms;
      if (eid.valid()) {
        const double comm_time = EdgeCommTime(eid);
        comms_[eid.index()].start_ms = p.finish_ms;
        comms_[eid.index()].finish_ms = p.finish_ms + comm_time;
        arrival += comm_time;
      }
      ready[dst.index()] = std::max(ready[dst.index()], arrival);
    }
  }
}

void Schedule::Validate() const {
  const std::size_t n = graph_->task_count();
  for (std::size_t i = 0; i < n; ++i) {
    const TaskPlacement& p = placements_[i];
    ACTG_ASSERT(p.pe.valid() && p.pe.index() < platform_->pe_count(),
                "task placed on an invalid PE");
    ACTG_ASSERT(p.start_ms >= -kTimeEps, "task starts before time zero");
    const TaskId id{static_cast<int>(i)};
    const double expected = p.start_ms + ScaledWcet(id);
    ACTG_ASSERT(std::abs(p.finish_ms - expected) < 1e-5,
                "task finish is inconsistent with start + scaled WCET");
    ACTG_ASSERT(p.speed_ratio > 0.0 && p.speed_ratio <= 1.0 + kTimeEps,
                "speed ratio out of (0, 1]");
    ACTG_ASSERT(p.speed_ratio >=
                    platform_->pe(p.pe).min_speed_ratio - kTimeEps,
                "speed ratio below the PE minimum");
    const auto& levels = platform_->pe(p.pe).speed_levels;
    if (!levels.empty()) {
      bool on_level = false;
      for (double level : levels) {
        if (std::abs(level - p.speed_ratio) < 1e-9) {
          on_level = true;
          break;
        }
      }
      ACTG_ASSERT(on_level,
                  "speed ratio is not an available discrete level");
    }
  }

  // Every precedence constraint of the scheduled DAG must be respected.
  for (EdgeId eid : graph_->EdgeIds()) {
    const ctg::Edge& e = graph_->edge(eid);
    const double arrival =
        placements_[e.src.index()].finish_ms + EdgeCommTime(eid);
    ACTG_ASSERT(placements_[e.dst.index()].start_ms >= arrival - 1e-5,
                "data dependency violated by the schedule");
  }
  for (const auto* extra : {&control_edges_, &pseudo_edges_}) {
    for (const ExtraEdge& e : *extra) {
      ACTG_ASSERT(placements_[e.dst.index()].start_ms >=
                      placements_[e.src.index()].finish_ms - 1e-5,
                  "order dependency violated by the schedule");
    }
  }

  // Non-mutex tasks sharing a PE must not overlap in time.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (placements_[i].pe != placements_[j].pe) continue;
      const TaskId a{static_cast<int>(i)};
      const TaskId b{static_cast<int>(j)};
      if (analysis_->MutuallyExclusive(a, b)) continue;
      const bool disjoint =
          placements_[i].finish_ms <= placements_[j].start_ms + 1e-5 ||
          placements_[j].finish_ms <= placements_[i].start_ms + 1e-5;
      ACTG_ASSERT(disjoint,
                  "non-mutually-exclusive tasks overlap on one PE");
    }
  }
}

}  // namespace actg::sched
