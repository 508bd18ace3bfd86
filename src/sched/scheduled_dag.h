/// \file scheduled_dag.h
/// The compiled scheduled DAG of one schedule.
///
/// The scheduled DAG is the CTG's edges plus the implied fork -> or-node
/// control dependencies plus the scheduler's pseudo order edges. It is
/// fixed once the scheduler has derived its pseudo edges, while speeds
/// and times keep changing (stretching, the panic rung's speed reset),
/// so a Schedule compiles it once and every later pass walks the same
/// compiled form: Schedule::RecomputeTimes, dvfs::PathEngine::Enumerate,
/// dvfs::PathSet and sim::ExecuteInstance.
///
/// A ScheduledDag is an immutable value over one shared buffer of
/// 32-bit words: CSR successor lists (target and CTG edge per arc) and
/// the Kahn order. Copies share the buffer, so copying a Schedule into a
/// cache entry or adopting a cached one never recompiles. It holds no
/// speed or time, and never refers back to the graph it was compiled
/// from.

#ifndef ACTG_SCHED_SCHEDULED_DAG_H
#define ACTG_SCHED_SCHEDULED_DAG_H

#include <cstdint>
#include <memory>
#include <span>

#include "ctg/graph.h"

namespace actg::sched {

/// An extra precedence constraint of the scheduled DAG that is not a CTG
/// edge: either a pseudo order edge (same-PE serialization) or an implied
/// fork -> or-node control dependency. Carries no data.
struct ExtraEdge {
  TaskId src;
  TaskId dst;
};

class ScheduledDag {
 public:
  /// An empty DAG: compiled() is false.
  ScheduledDag() = default;

  /// Compiles the scheduled DAG. Each task's successors are, in order,
  /// its CTG out-edges by increasing edge id, then its \p control
  /// edges, then its \p pseudo edges, each in the given order. The
  /// Kahn order starts with the sources by increasing task index and
  /// appends each successor when its last predecessor is taken. Throws
  /// actg::InternalError when the edges form a cycle.
  static ScheduledDag Compile(const ctg::Ctg& graph,
                              std::span<const ExtraEdge> control,
                              std::span<const ExtraEdge> pseudo);

  bool compiled() const { return words_ != nullptr; }

  std::size_t task_count() const { return tasks_; }
  std::size_t arc_count() const { return arcs_; }

  /// The arcs leaving task \p u are [arc_begin(u), arc_end(u)).
  std::uint32_t arc_begin(std::size_t u) const { return words_[u]; }
  std::uint32_t arc_end(std::size_t u) const { return words_[u + 1]; }

  /// Successor task of \p arc.
  TaskId target(std::uint32_t arc) const {
    return TaskId{static_cast<int>(words_[tasks_ + 1 + arc])};
  }

  /// CTG edge of \p arc; invalid for control and pseudo edges.
  EdgeId edge(std::uint32_t arc) const {
    return EdgeId{static_cast<int>(words_[tasks_ + 1 + arcs_ + arc])};
  }

  /// Every task in Kahn order.
  std::span<const std::uint32_t> order() const {
    return {words_.get() + tasks_ + 1 + 2 * arcs_, tasks_};
  }

  /// The tasks without a predecessor, by increasing index: the prefix
  /// of order().
  std::span<const std::uint32_t> sources() const {
    return order().first(sources_);
  }

 private:
  /// [first arc per task, tasks + 1][target per arc][edge per arc]
  /// [Kahn order, tasks].
  std::shared_ptr<const std::uint32_t[]> words_;
  std::uint32_t tasks_ = 0;
  std::uint32_t arcs_ = 0;
  std::uint32_t sources_ = 0;
};

}  // namespace actg::sched

#endif  // ACTG_SCHED_SCHEDULED_DAG_H
