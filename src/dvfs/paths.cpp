#include "dvfs/paths.h"

#include <algorithm>
#include <functional>

#include "util/error.h"

namespace actg::dvfs {

PathSet::PathSet(const sched::Schedule& schedule, std::size_t max_paths,
                 bool drop_unrealizable)
    : graph_(&schedule.graph()) {
  const ctg::Ctg& graph = *graph_;
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const auto arity = graph.ArityFn();
  const std::size_t n = graph.task_count();
  by_task_.assign(n, {});

  const sched::ScheduledDag& dag = schedule.dag();

  std::vector<TaskId> tasks;
  std::vector<std::optional<EdgeId>> edges;

  const auto emit = [&](const ctg::Guard& guard) {
    ACTG_CHECK(paths_.size() < max_paths,
               "Path enumeration exceeded max_paths");
    Path p;
    p.tasks = tasks;
    p.edges = edges;
    p.guard = guard;
    p.comm_ms = 0.0;
    for (const auto& eid : p.edges) {
      if (eid.has_value()) p.comm_ms += schedule.EdgeCommTime(*eid);
    }
    p.delay_ms = p.comm_ms;
    p.unlocked_ms = 0.0;
    for (TaskId t : p.tasks) {
      const double exec = schedule.ScaledWcet(t);
      p.delay_ms += exec;
      p.unlocked_ms += exec;
    }
    const std::size_t index = paths_.size();
    for (TaskId t : p.tasks) by_task_[t.index()].push_back(index);
    paths_.push_back(std::move(p));
  };

  // Depth-first enumeration. A path ends where no realizable extension
  // exists (for validated structured graphs that is exactly the sinks,
  // but a prefix whose every extension contradicts its guard is still a
  // real execution chain and participates in the slack analysis).
  const std::function<void(TaskId, const ctg::Guard&)> visit =
      [&](TaskId task, const ctg::Guard& guard) {
        tasks.push_back(task);
        bool extended = false;
        for (std::uint32_t arc = dag.arc_begin(task.index());
             arc < dag.arc_end(task.index()); ++arc) {
          const TaskId dst = dag.target(arc);
          std::optional<EdgeId> eid;
          if (dag.edge(arc).valid()) eid = dag.edge(arc);
          ctg::Guard next_guard =
              guard.And(analysis.ActivationGuard(dst), arity);
          if (eid.has_value()) {
            const auto& cond = graph.edge(*eid).condition;
            if (cond.has_value()) {
              next_guard = next_guard.AndCondition(*cond, arity);
            }
          }
          if (drop_unrealizable && next_guard.IsFalse()) continue;
          extended = true;
          edges.push_back(eid);
          visit(dst, next_guard);
          edges.pop_back();
        }
        if (!extended) emit(guard);
        tasks.pop_back();
      };

  for (const std::uint32_t s : dag.sources()) {
    const TaskId source{static_cast<int>(s)};
    const ctg::Guard& guard = analysis.ActivationGuard(source);
    if (!drop_unrealizable || !guard.IsFalse()) visit(source, guard);
  }
}

std::size_t PathSet::PositionOf(std::size_t i, TaskId task) const {
  const Path& p = path(i);
  const auto it = std::find(p.tasks.begin(), p.tasks.end(), task);
  ACTG_CHECK(it != p.tasks.end(), "Path does not span the task");
  return static_cast<std::size_t>(it - p.tasks.begin());
}

double PathSet::ProbAfter(std::size_t i, TaskId task,
                          const ctg::BranchProbabilities& probs) const {
  const Path& p = path(i);
  const std::size_t pos = PositionOf(i, task);
  double joint = 1.0;
  // The edge between tasks[k] and tasks[k+1] has source position k; it
  // lies after the task when k >= pos.
  for (std::size_t k = pos; k < p.edges.size(); ++k) {
    const auto& eid = p.edges[k];
    if (!eid.has_value()) continue;  // pseudo/control edges: no condition
    const auto& cond = graph_->edge(*eid).condition;
    if (cond.has_value()) joint *= probs.Of(*cond);
  }
  return joint;
}

void PathSet::CommitTask(TaskId task, double extra_ms,
                         double nominal_ms) {
  for (std::size_t i : Spanning(task)) {
    paths_[i].delay_ms += extra_ms;
    paths_[i].unlocked_ms =
        std::max(paths_[i].unlocked_ms - nominal_ms, 0.0);
  }
}

double PathSet::MaxDelay() const {
  double best = 0.0;
  for (const Path& p : paths_) best = std::max(best, p.delay_ms);
  return best;
}

}  // namespace actg::dvfs
