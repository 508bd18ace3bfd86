/// \file path_engine.h
/// Reusable path-enumeration workspace for the reschedule hot path.
///
/// The adaptive controller re-runs DLS + path enumeration + stretching
/// on every threshold crossing; PathSet (paths.h) rebuilds all of its
/// scaffolding — per-path task/edge/guard vectors, spanning lists —
/// from scratch on every call, and carries a DNF guard per path
/// whose conjunctions allocate at every DFS step. A PathEngine is
/// constructed once per (graph, analysis, platform) and owns all of
/// that storage plus a sched::DlsWorkspace for the scheduler's scratch
/// buffers. Repeated Enumerate() calls reuse every buffer's capacity,
/// the DFS walks the schedule's compiled sched::ScheduledDag, and path
/// guards are kept in the compiled bitset form of
/// condition_bitset.h, so the realizability test at each DFS step and
/// the guard-vs-minterm compatibility tests during stretching are word
/// ops.
///
/// The path store is compact and records at emit time what the DFS
/// already knows: per-path tasks and conditional edges live in flat
/// pools indexed by 32-bit offsets; the per-path comm/delay/unlocked
/// values and their rewind copy are contiguous arrays; each task's
/// spanning list is one CSR row of (path, position) entries. A path's
/// guard is one 32-bit id into the enumeration's table of distinct path
/// guards, which holds each guard's minterms once (MPEG on one PE: 385
/// guards for 413,850 paths); Emit interns a guard by comparing it with
/// the previous path's, then by a hash scan of the table. The stretch
/// scan therefore never searches a path for a task, tests each Γ(τ)
/// minterm once per distinct guard (MatchGuards), and prob(p, τ) walks
/// only the path's conditional edges (ScanSpanning) — with the same
/// factors in the same order as ProbAfter, so the results are
/// bit-identical (DESIGN.md §8.1).
///
/// The engine falls back to the DNF algebra (counted under
/// "guard.dnf_fallbacks" in its registry) when the graph does not fit
/// the fixed bit width; PathEngineOptions::force_dnf selects the same
/// DNF mode explicitly so benchmarks can compare the two
/// representations in one binary. Both modes enumerate the same paths
/// in the same order, intern guards into the same id table and answer
/// the same predicates — the bitset is a representation change, not a
/// semantics change.
///
/// Lifetime and ownership rules: the engine borrows graph/analysis/
/// platform and options, from construction or the last Rebind() until
/// the next Rebind(); the borrowed objects must outlive that binding,
/// and every Enumerate() call must pass a Schedule over them. An engine
/// is a leased workspace, not a controller's property: an
/// adaptive::Rescheduler borrows one from a dvfs::EnginePool
/// (engine_pool.h) for each reschedule that misses the exact tier, and
/// the pool re-points it at the borrower's model, max_paths, registry
/// and trace session on every lease. One engine serves one thread at a
/// time.
///
/// Metrics and tracing: an engine bound with PathEngineOptions::metrics
/// records its "dvfs.enumerate" timer, the stretch policies'
/// "dvfs.stretch" timer (Policy::Apply) and its DLS workspace's
/// "sched.dls" timer into that registry, and an engine bound with
/// PathEngineOptions::trace records the same three spans into that
/// session; an engine bound with neither records nothing.

#ifndef ACTG_DVFS_PATH_ENGINE_H
#define ACTG_DVFS_PATH_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "sched/dls.h"
#include "sched/schedule.h"

namespace actg::runtime {
class Metrics;
}  // namespace actg::runtime

namespace actg::dvfs {

/// Construction-time knobs of a PathEngine.
struct PathEngineOptions {
  /// Guard against pathological path explosion (same contract as
  /// PathSet: enumeration throws actg::InvalidArgument past the limit).
  std::size_t max_paths = 1 << 20;
  /// Forces the DNF guard representation even when the graph fits the
  /// bitset width. Exists so bench_micro can measure bitset vs DNF in
  /// one binary; production callers leave it false.
  bool force_dnf = false;
  /// Registry the engine, the policies applied on it and its
  /// dls_workspace() record their stage timers and counters into, and
  /// session they record their spans into; null records nothing. They
  /// only say where to report, never what is computed. Must outlive the
  /// binding (see PathEngine::Rebind).
  runtime::Metrics* metrics = nullptr;
  obs::TraceSession* trace = nullptr;
};

/// Reusable path-enumeration + stretch workspace. See the file comment
/// for the lifetime rules.
class PathEngine {
 public:
  /// One entry of a task's spanning list: a path through the task and
  /// the task's position on that path (index into TasksOf(path)).
  struct SpanEntry {
    std::uint32_t path = 0;
    std::uint32_t position = 0;
  };

  /// One conditional edge of a path: the edge joins the tasks at
  /// \p position and \p position + 1 of the path.
  struct CondEdge {
    std::uint32_t position = 0;
    EdgeId edge;

    friend bool operator==(const CondEdge&, const CondEdge&) = default;
  };

  /// A minterm compiled once for repeated GuardCompatibleWith() tests
  /// (see Probe()).
  struct MintermProbe {
    ctg::BitMinterm bits;                   ///< bitset mode
    const ctg::Minterm* minterm = nullptr;  ///< DNF mode; borrowed
  };

  /// prob(p, τ) and the slack ratio of every path spanning one task, in
  /// Spanning() order (see ScanSpanning()).
  struct SpanningScan {
    std::span<const SpanEntry> entries;
    std::span<const double> prob_after;
    std::span<const double> slack_ratio;
  };

  /// Binds the engine to \p graph/\p analysis/\p platform and
  /// \p options, and counts "guard.dnf_fallbacks" in the registry when
  /// the graph does not fit the bitset width.
  PathEngine(const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
             const arch::Platform& platform, PathEngineOptions options = {});

  /// Re-points the engine at \p graph/\p analysis/\p platform and
  /// \p options (registry, trace session and max_paths, which the DLS
  /// workspace follows). Binding other objects or another force_dnf
  /// than the current ones empties the store and advances
  /// enumeration_id(), as a failed enumeration does, so no caller can
  /// rewind a store built for another model; re-binding the same
  /// objects keeps the current enumeration. Buffer capacity is kept
  /// either way. Counts nothing: a rebinding is not a new engine.
  void Rebind(const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
              const arch::Platform& platform, PathEngineOptions options);

  const ctg::Ctg& graph() const { return *graph_; }
  const ctg::ActivationAnalysis& analysis() const { return *analysis_; }
  const PathEngineOptions& options() const { return options_; }

  /// True when path guards are kept in bitset form; false in DNF mode
  /// (fallback or force_dnf).
  bool using_bitset() const { return use_bitset_; }

  /// Enumerates all source-to-sink paths of \p schedule's scheduled DAG
  /// into the engine's storage, replacing any previous enumeration.
  /// The schedule must be over the engine's graph/analysis/platform.
  /// Semantics match PathSet: with \p drop_unrealizable, paths whose
  /// guard is false are skipped during the DFS; without it they are
  /// kept (mutex-blind Reference Algorithm 1 analysis). When the DFS
  /// throws (max_paths), the engine is left empty and enumeration_id()
  /// has still advanced, so no caller can rewind a half-built store.
  void Enumerate(const sched::Schedule& schedule,
                 bool drop_unrealizable = true);

  /// Number of paths of the current enumeration.
  std::size_t size() const { return delay_.size(); }

  /// Tasks of path \p i in path order.
  std::span<const TaskId> TasksOf(std::size_t i) const;

  /// The conditional edges of path \p i, in path order. The store keeps
  /// no other edges: comm time is summed at enumeration time.
  std::span<const CondEdge> CondEdgesOf(std::size_t i) const;

  double comm_ms(std::size_t i) const { return comm_.at(i); }
  double delay_ms(std::size_t i) const { return delay_.at(i); }
  double unlocked_ms(std::size_t i) const { return unlocked_.at(i); }

  /// Remaining slack of path \p i against \p deadline_ms.
  double Slack(std::size_t i, double deadline_ms) const {
    return deadline_ms - delay_ms(i);
  }

  /// Distributable slack per unit of unlocked execution time (see
  /// Path::SlackRatio).
  double SlackRatio(std::size_t i, double deadline_ms) const;

  /// The paths that span \p task, in increasing path order, each with
  /// the task's position on it. Valid until the next Enumerate().
  std::span<const SpanEntry> Spanning(TaskId task) const;

  /// \p m compiled for GuardCompatibleWith(); throws InternalError when
  /// the minterm lies outside the engine's condition space. The probe
  /// borrows \p m in DNF mode.
  MintermProbe Probe(const ctg::Minterm& m) const;

  /// True when path \p i's guard and the probed minterm can hold
  /// simultaneously (satisfiability of the conjunction — the predicate
  /// the stretching heuristic needs per Γ(τ) minterm).
  bool GuardCompatibleWith(std::size_t i, const MintermProbe& probe) const;

  /// Number of distinct path guards of the current enumeration.
  std::size_t guard_count() const { return table_.size(); }

  /// Guard id of every path, by path index, each below guard_count():
  /// two paths of one enumeration share an id exactly when their guards
  /// are equal (BitGuard or Guard operator==). Valid until the next
  /// Enumerate().
  std::span<const std::uint32_t> guard_ids() const { return guard_id_; }

  /// Minterms of distinct guard \p id in bitset mode, in the order the
  /// DFS conjoined them; for tests.
  std::span<const ctg::BitMinterm> GuardMinterms(std::uint32_t id) const;

  /// A probed minterm's GuardCompatibleWith() answer per distinct path
  /// guard, tested on the first ask and then read back (MatchGuards()).
  class GuardMatch {
   public:
    /// True when distinct guard \p id and the probed minterm can hold
    /// simultaneously.
    bool operator()(std::uint32_t id) {
      char& known = memo_[id];
      if (known == kUntested) {
        known = engine_->TableCompatible(id, probe_) ? 1 : 0;
      }
      return known != 0;
    }

   private:
    friend class PathEngine;
    static constexpr char kUntested = 2;
    GuardMatch(const PathEngine& engine, const MintermProbe& probe,
               char* memo)
        : engine_(&engine), probe_(probe), memo_(memo) {}

    const PathEngine* engine_;
    MintermProbe probe_;
    char* memo_;
  };

  /// Starts matching \p probe against the distinct path guards of the
  /// current enumeration, so the stretch tests each Γ(τ) minterm at most
  /// once per distinct guard and spanning paths read the answer by their
  /// guard_ids(). The match uses engine-owned scratch: it is valid until
  /// the next MatchGuards(), Enumerate() or Rebind().
  GuardMatch MatchGuards(const MintermProbe& probe);

  /// prob(p, τ): joint probability of the conditional branches on path
  /// \p i lying at or after \p task. Throws when the path does not span
  /// the task.
  double ProbAfter(std::size_t i, TaskId task,
                   const ctg::BranchProbabilities& probs) const;

  /// Looks up every conditional edge's probability in \p probs once
  /// (BranchProbabilities::Of, with its checks) for the ScanSpanning()
  /// calls that follow. The binding lasts until the next Enumerate() or
  /// RewindCommits(), so each stretch over a store binds its own
  /// probabilities.
  void BindProbabilities(const ctg::BranchProbabilities& probs);

  /// prob(p, τ) and SlackRatio(p) for every path p spanning \p task,
  /// computed into engine-owned scratch that the next call overwrites.
  /// prob(p, τ) uses the probabilities bound since the last Enumerate()
  /// or RewindCommits() (asserted) and is bit-identical to ProbAfter():
  /// the same factors multiplied left to right from 1.0.
  SpanningScan ScanSpanning(TaskId task, double deadline_ms);

  /// Commits a stretched-and-locked task (see PathSet::CommitTask).
  void CommitTask(TaskId task, double extra_ms, double nominal_ms);

  /// Restores every path's delay/unlocked state to its value right
  /// after the last Enumerate(), undoing all CommitTask() calls since,
  /// and drops the BindProbabilities() binding.
  /// This is the delta re-enumeration primitive of the warm-start
  /// reschedule path: when the scheduled DAG's shape is unchanged from
  /// the last enumeration (same per-PE task sequences), a stretcher can
  /// rewind instead of re-running the DFS. No-op before the first
  /// enumeration and after a failed one.
  void RewindCommits();

  /// Monotonic count of Enumerate() calls, failed ones included, so
  /// callers can detect that the enumeration they captured is still
  /// the engine's current one (RewindCommits() would otherwise rewind
  /// to a different shape).
  std::uint64_t enumeration_id() const { return enumeration_id_; }

  /// Largest delay over all paths of the current enumeration.
  double MaxDelay() const;

  /// Path \p i's guard in DNF form; only available in DNF mode
  /// (!using_bitset()), for tests and the mutex-blind baseline. Paths
  /// with one guard id return the same object.
  const ctg::Guard& DnfGuard(std::size_t i) const;

  /// Scratch buffers for sched::RunDls, so a reused engine also
  /// amortizes the scheduler's per-call allocations. Carries the
  /// engine's metrics registry and trace session.
  sched::DlsWorkspace& dls_workspace() { return dls_workspace_; }

 private:
  /// Stores the binding; Rebind() decides what it invalidates.
  void Bind(const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
            const arch::Platform& platform, PathEngineOptions options);
  void VisitBit(const sched::ScheduledDag& dag, TaskId task,
                std::size_t depth, bool drop_unrealizable);
  void VisitDnf(const sched::ScheduledDag& dag, TaskId task,
                std::size_t depth, bool drop_unrealizable);
  void Emit(std::size_t depth);
  /// Id of the DFS guard at \p depth, added to the table when new.
  std::uint32_t InternGuard(std::size_t depth);
  /// True when distinct guard \p id equals the DFS guard at \p depth.
  bool SameGuard(std::size_t id, std::size_t depth) const;
  /// GuardCompatibleWith() of distinct guard \p id.
  bool TableCompatible(std::size_t id, const MintermProbe& probe) const;
  /// Adds \p delta to counter \p name in the engine's registry, if any.
  void Count(const char* name, std::uint64_t delta = 1) const;
  void ClearPaths();
  void BuildSpanning();
  std::size_t PositionOf(std::size_t i, TaskId task) const;
  /// Throws unless \p i names a path of the current enumeration.
  void CheckPath(std::size_t i) const;
  /// SlackRatio() without the index check.
  double SlackRatioOf(std::size_t i, double deadline_ms) const;

  const ctg::Ctg* graph_ = nullptr;
  const ctg::ActivationAnalysis* analysis_ = nullptr;
  const arch::Platform* platform_ = nullptr;
  PathEngineOptions options_;
  bool use_bitset_ = false;

  // Reused across Enumerate() calls.
  std::vector<ctg::BitGuard> bit_stack_;   // DFS guard per depth
  std::vector<ctg::Guard> dnf_stack_;      // DNF mode
  ctg::BitGuard and_scratch_;
  std::vector<TaskId> task_stack_;
  std::vector<EdgeId> edge_stack_;
  // Per-enumeration inputs of Emit(): scaled WCET by task, comm time
  // by edge, read from the schedule once instead of once per path.
  std::vector<double> task_exec_ms_;
  std::vector<double> edge_comm_ms_;

  // Current enumeration, in CSR form with 32-bit offsets (all cleared
  // keeping capacity). Path i's tasks are task_pool_[task_begin_[i],
  // task_begin_[i + 1]); its conditional edges are
  // cond_pool_[cond_begin_[i], cond_begin_[i + 1]); its guard is
  // distinct guard guard_id_[i].
  std::vector<std::uint32_t> task_begin_;
  std::vector<TaskId> task_pool_;
  std::vector<std::uint32_t> cond_begin_;
  std::vector<CondEdge> cond_pool_;
  std::vector<std::uint32_t> guard_id_;
  // Distinct path guards: guard k's minterms are
  // table_pool_[table_[k].begin, table_[k].end) in bitset mode and
  // dnf_table_[k] in DNF mode; table_[k].hash is its hash in either.
  struct TableEntry {
    std::uint64_t hash = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::vector<TableEntry> table_;
  std::vector<ctg::BitMinterm> table_pool_;
  std::vector<ctg::Guard> dnf_table_;
  std::vector<double> comm_;
  std::vector<double> delay_;
  std::vector<double> unlocked_;
  /// Post-enumeration delay/unlocked per path, the rewind target of
  /// RewindCommits().
  std::vector<double> nominal_delay_;
  std::vector<double> nominal_unlocked_;
  std::uint64_t enumeration_id_ = 0;
  /// Spanning lists: task t's entries are span_pool_[span_begin_[t],
  /// span_begin_[t + 1]), built after the DFS in increasing path order.
  std::vector<std::uint32_t> span_begin_;
  std::vector<SpanEntry> span_pool_;
  std::vector<std::uint32_t> span_cursor_;

  // Stretch-scan scratch: probability by edge index (BindProbabilities;
  // empty when unbound), prob(p, τ) and slack ratio by spanning entry
  // (ScanSpanning), compatibility by guard id (MatchGuards).
  std::vector<double> edge_prob_;
  std::vector<double> scan_prob_after_;
  std::vector<double> scan_slack_ratio_;
  std::vector<char> compatible_;

  sched::DlsWorkspace dls_workspace_;
};

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_PATH_ENGINE_H
