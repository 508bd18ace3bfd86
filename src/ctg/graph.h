/// \file graph.h
/// The conditional task graph (CTG) model of paper Section II.
///
/// A CTG is an acyclic graph whose vertices are tasks and whose edges are
/// precedence/data-flow constraints annotated with communication volume.
/// An edge may carry a condition (one outcome of its *source* task, which
/// is then a branch fork node). Vertices are and-nodes (wait for all
/// active predecessors) or or-nodes (wait for any active predecessor).
/// The graph is periodic with a single common deadline.

#ifndef ACTG_CTG_GRAPH_H
#define ACTG_CTG_GRAPH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ctg/condition.h"
#include "ctg/ids.h"

namespace actg::ctg {

/// How a node combines its incoming alternatives (paper Section II).
enum class JoinType {
  kAnd,  ///< activated when all predecessors completed with conditions met
  kOr,   ///< activated when any predecessor completed with conditions met
};

/// A task (vertex) of the CTG.
struct Task {
  std::string name;
  JoinType join = JoinType::kAnd;
};

/// A precedence/data-flow edge of the CTG.
struct Edge {
  TaskId src;
  TaskId dst;
  /// Data volume transferred from src to dst, in KBytes (paper: Comm).
  double comm_kbytes = 0.0;
  /// Present iff the edge is conditional; condition.fork == src.
  std::optional<Condition> condition;
};

/// Metadata of a branch fork node: how many outcomes it has and their
/// printable labels (e.g. "a1"/"a2" in the paper's Figure 1).
struct ForkInfo {
  TaskId task;
  int outcome_count = 0;
  std::vector<std::string> outcome_labels;
};

class CtgBuilder;

/// Immutable validated conditional task graph.
///
/// Construction goes through CtgBuilder, which validates acyclicity,
/// condition well-formedness (each conditional edge's condition names its
/// own source; each fork's outcomes 0..k-1 are all used) and computes the
/// derived structure (adjacency, topological order, fork table).
class Ctg {
 public:
  std::size_t task_count() const { return tasks_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  const Task& task(TaskId id) const { return tasks_.at(id.index()); }
  const Edge& edge(EdgeId id) const { return edges_.at(id.index()); }

  /// All task ids, in insertion order.
  std::vector<TaskId> TaskIds() const;
  /// All edge ids, in insertion order.
  std::vector<EdgeId> EdgeIds() const;

  /// Outgoing edges of \p id.
  const std::vector<EdgeId>& OutEdges(TaskId id) const {
    return out_edges_.at(id.index());
  }
  /// Incoming edges of \p id.
  const std::vector<EdgeId>& InEdges(TaskId id) const {
    return in_edges_.at(id.index());
  }

  /// Tasks with no incoming edges.
  const std::vector<TaskId>& Sources() const { return sources_; }
  /// Tasks with no outgoing edges.
  const std::vector<TaskId>& Sinks() const { return sinks_; }

  /// One fixed topological order of the tasks.
  const std::vector<TaskId>& TopologicalOrder() const { return topo_; }

  /// True when \p id has at least one conditional outgoing edge.
  bool IsFork(TaskId id) const;

  /// Fork metadata; requires IsFork(id).
  const ForkInfo& Fork(TaskId id) const;

  /// All branch fork nodes, in topological order.
  const std::vector<TaskId>& ForkIds() const { return fork_ids_; }

  /// Number of outcomes of \p fork; requires IsFork(fork).
  int OutcomeCount(TaskId fork) const { return Fork(fork).outcome_count; }

  /// Printable label of one fork outcome (falls back to "<fork>:<i>").
  std::string OutcomeLabel(TaskId fork, int outcome) const;

  /// Arity callback for Guard simplification over this graph.
  Guard::ForkArity ArityFn() const;

  /// Common deadline of the periodic graph, in milliseconds.
  double deadline_ms() const { return deadline_ms_; }

  /// Replaces the deadline (used by experiments that derive the deadline
  /// from the schedule length, e.g. deadline = 2x optimal, Table 3).
  void SetDeadline(double deadline_ms);

  /// FNV-1a hash of everything the scheduler reads from the graph except
  /// the deadline: task and edge counts, join types, fork arities, edge
  /// endpoints, volumes and conditions. Computed once by
  /// CtgBuilder::Build; runtime::FingerprintCtg folds the deadline in.
  std::uint64_t structural_hash() const { return structural_hash_; }

  /// Task name lookup usable as the fork_name argument of
  /// Guard::ToString.
  std::string TaskName(TaskId id) const { return task(id).name; }

 private:
  friend class CtgBuilder;
  Ctg() = default;

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<TaskId> sources_;
  std::vector<TaskId> sinks_;
  std::vector<TaskId> topo_;
  std::vector<TaskId> fork_ids_;
  std::vector<std::optional<ForkInfo>> forks_;  // dense by task index
  double deadline_ms_ = 0.0;
  std::uint64_t structural_hash_ = 0;
};

/// Incremental builder for Ctg. All structural errors are reported by
/// Build() (or eagerly where cheap) as actg::InvalidArgument.
class CtgBuilder {
 public:
  CtgBuilder() = default;

  /// Adds an and-node and returns its id.
  TaskId AddTask(std::string name);

  /// Adds an or-node and returns its id.
  TaskId AddOrTask(std::string name);

  /// Adds an unconditional edge carrying \p comm_kbytes of data.
  EdgeId AddEdge(TaskId src, TaskId dst, double comm_kbytes = 0.0);

  /// Adds a conditional edge activated when \p src selects \p outcome.
  EdgeId AddConditionalEdge(TaskId src, TaskId dst, int outcome,
                            double comm_kbytes = 0.0);

  /// Names the outcomes of a fork (e.g. {"a1","a2"}); also fixes the
  /// outcome count. Optional: the count is otherwise inferred from the
  /// largest outcome used by an edge.
  void SetOutcomeLabels(TaskId fork, std::vector<std::string> labels);

  /// Sets the common deadline of the graph in milliseconds.
  void SetDeadline(double deadline_ms);

  /// Number of tasks added so far.
  std::size_t task_count() const { return tasks_.size(); }

  /// Validates and produces the immutable graph. The builder is left in a
  /// valid but unspecified state.
  Ctg Build() &&;

 private:
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::optional<std::vector<std::string>>> labels_;
  double deadline_ms_ = 0.0;
};

}  // namespace actg::ctg

#endif  // ACTG_CTG_GRAPH_H
