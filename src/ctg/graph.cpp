#include "ctg/graph.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "util/error.h"
#include "util/hash.h"

namespace actg::ctg {

// ---------------------------------------------------------------------------
// Ctg

std::vector<TaskId> Ctg::TaskIds() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    ids.push_back(TaskId{static_cast<int>(i)});
  }
  return ids;
}

std::vector<EdgeId> Ctg::EdgeIds() const {
  std::vector<EdgeId> ids;
  ids.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ids.push_back(EdgeId{static_cast<int>(i)});
  }
  return ids;
}

bool Ctg::IsFork(TaskId id) const {
  return id.valid() && id.index() < forks_.size() &&
         forks_[id.index()].has_value();
}

const ForkInfo& Ctg::Fork(TaskId id) const {
  ACTG_CHECK(IsFork(id), "Task is not a branch fork node");
  return *forks_[id.index()];
}

std::string Ctg::OutcomeLabel(TaskId fork, int outcome) const {
  const ForkInfo& info = Fork(fork);
  ACTG_CHECK(outcome >= 0 && outcome < info.outcome_count,
             "Outcome index out of range");
  if (static_cast<std::size_t>(outcome) < info.outcome_labels.size()) {
    return info.outcome_labels[static_cast<std::size_t>(outcome)];
  }
  std::ostringstream os;
  os << task(fork).name << ':' << outcome;
  return os.str();
}

Guard::ForkArity Ctg::ArityFn() const {
  return [this](TaskId fork) -> int {
    return IsFork(fork) ? Fork(fork).outcome_count : 0;
  };
}

void Ctg::SetDeadline(double deadline_ms) {
  ACTG_CHECK(deadline_ms > 0.0, "Deadline must be positive");
  deadline_ms_ = deadline_ms;
}

// ---------------------------------------------------------------------------
// CtgBuilder

TaskId CtgBuilder::AddTask(std::string name) {
  tasks_.push_back(Task{std::move(name), JoinType::kAnd});
  labels_.emplace_back();
  return TaskId{static_cast<int>(tasks_.size()) - 1};
}

TaskId CtgBuilder::AddOrTask(std::string name) {
  tasks_.push_back(Task{std::move(name), JoinType::kOr});
  labels_.emplace_back();
  return TaskId{static_cast<int>(tasks_.size()) - 1};
}

EdgeId CtgBuilder::AddEdge(TaskId src, TaskId dst, double comm_kbytes) {
  ACTG_CHECK(src.valid() && src.index() < tasks_.size(),
             "AddEdge: unknown source task");
  ACTG_CHECK(dst.valid() && dst.index() < tasks_.size(),
             "AddEdge: unknown destination task");
  ACTG_CHECK(src != dst, "AddEdge: self-loops are not allowed");
  ACTG_CHECK(comm_kbytes >= 0.0, "AddEdge: negative communication volume");
  edges_.push_back(Edge{src, dst, comm_kbytes, std::nullopt});
  return EdgeId{static_cast<int>(edges_.size()) - 1};
}

EdgeId CtgBuilder::AddConditionalEdge(TaskId src, TaskId dst, int outcome,
                                      double comm_kbytes) {
  EdgeId id = AddEdge(src, dst, comm_kbytes);
  ACTG_CHECK(outcome >= 0, "Conditional edge outcome must be >= 0");
  edges_.back().condition = Condition{src, outcome};
  return id;
}

void CtgBuilder::SetOutcomeLabels(TaskId fork,
                                  std::vector<std::string> labels) {
  ACTG_CHECK(fork.valid() && fork.index() < tasks_.size(),
             "SetOutcomeLabels: unknown task");
  ACTG_CHECK(labels.size() >= 2, "A fork needs at least two outcomes");
  labels_[fork.index()] = std::move(labels);
}

void CtgBuilder::SetDeadline(double deadline_ms) {
  ACTG_CHECK(deadline_ms > 0.0, "Deadline must be positive");
  deadline_ms_ = deadline_ms;
}

namespace {

/// The walk behind Ctg::structural_hash. Schedule-cache keys and trace
/// timeline unit ids derive from it, so its order and encoding are
/// fixed. The deadline stays out: runtime::FingerprintCtg folds it in.
std::uint64_t StructuralHash(const Ctg& g) {
  std::uint64_t hash = util::kFnvOffset;
  hash = util::HashCombine(hash, g.task_count());
  hash = util::HashCombine(hash, g.edge_count());
  for (TaskId task : g.TaskIds()) {
    hash = util::HashCombine(hash,
                             static_cast<std::uint64_t>(g.task(task).join));
    if (g.IsFork(task)) {
      hash = util::HashCombine(
          hash, static_cast<std::uint64_t>(g.OutcomeCount(task)));
    }
  }
  for (EdgeId id : g.EdgeIds()) {
    const Edge& edge = g.edge(id);
    hash = util::HashCombine(hash, static_cast<std::uint64_t>(edge.src.value));
    hash = util::HashCombine(hash, static_cast<std::uint64_t>(edge.dst.value));
    hash = util::HashDouble(hash, edge.comm_kbytes);
    hash = util::HashCombine(
        hash, edge.condition.has_value()
                  ? static_cast<std::uint64_t>(edge.condition->outcome) + 2
                  : 1);
  }
  return hash;
}

}  // namespace

Ctg CtgBuilder::Build() && {
  ACTG_CHECK(!tasks_.empty(), "A CTG needs at least one task");

  Ctg g;
  g.tasks_ = std::move(tasks_);
  g.edges_ = std::move(edges_);
  g.deadline_ms_ = deadline_ms_;
  const std::size_t n = g.tasks_.size();

  g.out_edges_.assign(n, {});
  g.in_edges_.assign(n, {});
  for (std::size_t e = 0; e < g.edges_.size(); ++e) {
    const EdgeId id{static_cast<int>(e)};
    g.out_edges_[g.edges_[e].src.index()].push_back(id);
    g.in_edges_[g.edges_[e].dst.index()].push_back(id);
  }

  // Fork table: a task is a fork iff it has >= 1 conditional out-edge.
  g.forks_.assign(n, std::nullopt);
  for (const Edge& edge : g.edges_) {
    if (!edge.condition.has_value()) continue;
    ACTG_CHECK(edge.condition->fork == edge.src,
               "A conditional edge's condition must name its own source");
    auto& info = g.forks_[edge.src.index()];
    if (!info.has_value()) info = ForkInfo{edge.src, 0, {}};
    info->outcome_count =
        std::max(info->outcome_count, edge.condition->outcome + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId id{static_cast<int>(i)};
    if (labels_[i].has_value()) {
      ACTG_CHECK(g.forks_[i].has_value(),
                 "Outcome labels set on a task with no conditional edges");
      ACTG_CHECK(static_cast<int>(labels_[i]->size()) >=
                     g.forks_[i]->outcome_count,
                 "Fewer outcome labels than outcomes used by edges");
      g.forks_[i]->outcome_count = static_cast<int>(labels_[i]->size());
      g.forks_[i]->outcome_labels = std::move(*labels_[i]);
    }
    if (g.forks_[i].has_value()) {
      ACTG_CHECK(g.forks_[i]->outcome_count >= 2,
                 "Fork '" + g.tasks_[i].name +
                     "' must have at least two outcomes");
      // Every outcome must be used by at least one edge, otherwise the
      // branch could select an outcome that activates nothing that the
      // condition algebra knows about.
      std::vector<bool> used(
          static_cast<std::size_t>(g.forks_[i]->outcome_count), false);
      for (EdgeId eid : g.out_edges_[i]) {
        const auto& cond = g.edges_[eid.index()].condition;
        if (cond.has_value()) {
          used[static_cast<std::size_t>(cond->outcome)] = true;
        }
      }
      for (std::size_t o = 0; o < used.size(); ++o) {
        ACTG_CHECK(used[o], "Fork '" + g.tasks_[i].name + "' outcome " +
                                std::to_string(o) +
                                " is not used by any edge");
      }
      g.fork_ids_.push_back(id);
    }
  }

  // Kahn topological sort; also detects cycles.
  std::vector<int> in_degree(n, 0);
  for (const Edge& edge : g.edges_) ++in_degree[edge.dst.index()];
  std::queue<TaskId> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) frontier.push(TaskId{static_cast<int>(i)});
  }
  g.topo_.reserve(n);
  while (!frontier.empty()) {
    const TaskId id = frontier.front();
    frontier.pop();
    g.topo_.push_back(id);
    for (EdgeId eid : g.out_edges_[id.index()]) {
      const TaskId dst = g.edges_[eid.index()].dst;
      if (--in_degree[dst.index()] == 0) frontier.push(dst);
    }
  }
  ACTG_CHECK(g.topo_.size() == n, "The CTG contains a cycle");

  // Keep fork ids in topological order (used by assignment encodings).
  std::vector<std::size_t> topo_pos(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[g.topo_[i].index()] = i;
  std::sort(g.fork_ids_.begin(), g.fork_ids_.end(),
            [&](TaskId a, TaskId b) {
              return topo_pos[a.index()] < topo_pos[b.index()];
            });

  for (std::size_t i = 0; i < n; ++i) {
    const TaskId id{static_cast<int>(i)};
    if (g.in_edges_[i].empty()) g.sources_.push_back(id);
    if (g.out_edges_[i].empty()) g.sinks_.push_back(id);
  }
  ACTG_CHECK(!g.sources_.empty(), "The CTG has no source task");

  for (std::size_t i = 0; i < n; ++i) {
    if (g.tasks_[i].join == JoinType::kOr) {
      ACTG_CHECK(!g.in_edges_[i].empty(),
                 "Or-node '" + g.tasks_[i].name +
                     "' has no incoming alternatives");
    }
  }

  g.structural_hash_ = StructuralHash(g);
  return g;
}

}  // namespace actg::ctg
