/// \file stretch.h
/// Task stretching (DVFS speed selection) for scheduled CTGs.
///
/// Three stretchers share one interface: they consume a Schedule whose
/// speed ratios are nominal (1.0) and assign per-task speed ratios such
/// that every realizable execution path still meets the common deadline.
///
/// * StretchOnline     — the paper's low-complexity heuristic (Fig. 2):
///   per-minterm critical paths, prob(p,τ)-weighted slack, weighting by
///   the activation probability prob(τ), deadline clamping.
/// * StretchProportional — probability-blind slack distribution standing
///   in for Reference Algorithm 1 [10]/[9]: identical machinery with all
///   probability weights removed ("does not differentiate tasks with
///   high activation probability from tasks with low activation
///   probability during slack distribution").
/// * StretchNlp        — convex optimizer standing in for Reference
///   Algorithm 2's NLP stage [17]: minimizes expected energy
///   Σ P(τ)·E(τ)·(w/t)² subject to per-path deadline constraints by
///   projected gradient descent plus a coordinate-fill polish. Orders of
///   magnitude slower than the heuristic, slightly better energy — the
///   paper's Table 1 trade-off.
///
/// Every stretcher runs its path analysis on a dvfs::PathEngine. The
/// optional trailing parameter lets a caller that reschedules
/// repeatedly (the adaptive controller's Rescheduler, with a leased
/// engine) pass an engine so the enumeration buffers are reused across
/// calls; when omitted, a
/// transient engine is built for the call — results are identical
/// either way.

#ifndef ACTG_DVFS_STRETCH_H
#define ACTG_DVFS_STRETCH_H

#include <cstddef>
#include <vector>

#include "ctg/condition.h"
#include "sched/schedule.h"
#include "util/error.h"

namespace actg::dvfs {

class PathEngine;

/// Warm-start seed for the stretchers (the incremental reschedule
/// path). A seed replays a previously committed speed assignment for
/// every *clean* task — the extension the seed speed implies is granted
/// directly, clamped so no spanning path can cross the deadline — and
/// runs the full slack computation only for *dirty* tasks. The result
/// is always deadline-feasible (every grant is individually clamped)
/// and degenerates to the bit-identical full computation when the seed
/// was produced for the same probabilities and shape (the clamp never
/// binds on an unchanged trajectory). Probability-aware optimality of
/// clean-task speeds is that of the seed's operating point; the drift
/// is bounded by how far the probabilities moved since the seed (the
/// controller's threshold). StretchNlp ignores warm starts.
struct StretchWarmStart {
  /// Per task.index(): the seed schedule's committed speed ratio.
  const std::vector<double>* seed_speed = nullptr;
  /// Per task.index(): nonzero forces the full slack computation (the
  /// dirty region of the probability delta, plus any task whose
  /// placement differs from the seed's).
  const std::vector<char>* dirty = nullptr;
  /// When true, the caller guarantees the engine's current enumeration
  /// was built for a schedule with this exact scheduled-DAG shape (same
  /// per-PE task sequences at nominal speeds): the stretcher rewinds
  /// the engine's committed delays instead of re-enumerating. Only
  /// meaningful with a caller-owned engine.
  bool reuse_enumeration = false;
};

/// Diagnostics returned by every stretcher.
struct StretchStats {
  /// Number of paths enumerated over the scheduled DAG.
  std::size_t path_count = 0;
  /// Total execution-time extension distributed across tasks, ms.
  double total_extension_ms = 0.0;
  /// Worst path delay after stretching, ms (<= deadline when the nominal
  /// schedule was feasible).
  double max_path_delay_ms = 0.0;
};

/// Common knobs.
struct StretchOptions {
  /// Guard against pathological path explosion.
  std::size_t max_paths = 1 << 20;

  /// Ok when the options are usable: max_paths must be positive.
  util::Error Validate() const;
};

/// The paper's online task stretching heuristic (Fig. 2). Requires a
/// positive deadline on the schedule's graph. \p probs must cover every
/// fork. Updates speed ratios in place and recomputes the schedule
/// times. \p warm optionally replays a seed assignment for clean tasks
/// (see StretchWarmStart).
StretchStats StretchOnline(sched::Schedule& schedule,
                           const ctg::BranchProbabilities& probs,
                           const StretchOptions& options = {},
                           PathEngine* engine = nullptr,
                           const StretchWarmStart* warm = nullptr);

/// Probability-blind slack distribution (Reference Algorithm 1 stage 2).
StretchStats StretchProportional(sched::Schedule& schedule,
                                 const StretchOptions& options = {},
                                 PathEngine* engine = nullptr,
                                 const StretchWarmStart* warm = nullptr);

/// Configuration of the convex-solver stretcher.
struct NlpOptions {
  /// Path-analysis knobs shared with the other stretchers.
  StretchOptions stretch;
  /// Projected-gradient iterations.
  int iterations = 4000;
  /// Initial relative step size.
  double initial_step = 0.05;
  /// Feasibility sweeps per projection.
  int projection_sweeps = 64;

  /// Ok when the options are usable: stretch must validate, iteration
  /// and sweep counts must be positive, the initial step must lie in
  /// (0, 1].
  util::Error Validate() const;
};

/// Convex-solver stretching (Reference Algorithm 2 stage 2).
StretchStats StretchNlp(sched::Schedule& schedule,
                        const ctg::BranchProbabilities& probs,
                        const NlpOptions& options = {},
                        PathEngine* engine = nullptr);

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_STRETCH_H
