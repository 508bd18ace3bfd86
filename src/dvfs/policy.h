/// \file policy.h
/// The unified stretcher interface.
///
/// PR 2 left three parallel free-function entry points (StretchOnline /
/// StretchProportional / StretchNlp) with slightly different positional
/// signatures; every consumer that wanted to select a stretcher at
/// runtime (the ablation bench, the CLI, the experiment builder) had to
/// branch over them by hand. A Policy packages one stretcher behind
/// Name() + Apply(PathEngine&, PolicyContext&), and a fixed table of
/// the three built-ins, looked up by name, makes the selection
/// data-driven: bench::ExperimentSpec, actg_cli --policy and the
/// adaptive controller all resolve policies by name. The legacy free
/// functions remain the implementation (and stay callable for tests)
/// but are no longer referenced outside src/dvfs.
///
/// Every Apply() is one "dvfs.stretch" stage probe (runtime/metrics.h):
/// a span with the policy name and resulting path count on the
/// engine's trace session, and the "dvfs.stretch" timer in the engine's
/// metrics registry, each if the engine has one.

#ifndef ACTG_DVFS_POLICY_H
#define ACTG_DVFS_POLICY_H

#include <string>
#include <string_view>
#include <vector>

#include "ctg/condition.h"
#include "dvfs/path_engine.h"
#include "dvfs/stretch.h"
#include "sched/schedule.h"

namespace actg::dvfs {

/// Everything a stretch policy may consume or produce. The schedule is
/// required; probs is required by the probability-aware policies
/// ("online", "nlp") and ignored by "proportional". The nested nlp
/// options apply to the NLP policy only; its path-analysis knobs are
/// overridden by \p stretch so all policies honor one max_paths.
struct PolicyContext {
  sched::Schedule* schedule = nullptr;
  const ctg::BranchProbabilities* probs = nullptr;
  StretchOptions stretch;
  NlpOptions nlp;
  /// Speed-floor clamp applied by Policy::Apply *after* the concrete
  /// stretcher: every task's speed ratio is raised to at least this
  /// value (then quantized by the PE) and the schedule times are
  /// recomputed. 0 disables the clamp. The degradation ladder sets 1.0
  /// ("panic to nominal") so a reschedule during an overrun burst never
  /// voltage-scales into the deadline it is trying to save; raising
  /// speeds only shortens paths, so a feasible stretch stays feasible.
  /// A floor of 1.0 or more overrides every speed the stretcher could
  /// pick, so Apply skips the stretcher and applies the clamp alone
  /// (counted as "dvfs.stretch.nominal"; the returned stats are empty).
  double speed_floor = 0.0;
  /// Optional warm-start seed (see dvfs::StretchWarmStart). Honored by
  /// "online" and "proportional"; "nlp" ignores it and recomputes from
  /// scratch. Ignoring a warm start is always correct — it only trades
  /// speed for recomputation.
  const StretchWarmStart* warm = nullptr;
};

/// One named stretcher. Implementations are stateless and immutable, so
/// a Policy may be applied concurrently from pool workers.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Lookup key, e.g. "online".
  virtual std::string_view Name() const = 0;

  /// Stretches ctx.schedule in place on \p engine, recording the
  /// "dvfs.stretch" probe around the concrete stretcher.
  StretchStats Apply(PathEngine& engine, PolicyContext& ctx) const;

 protected:
  virtual StretchStats DoApply(PathEngine& engine,
                               PolicyContext& ctx) const = 0;
};

/// Looks up a built-in policy; nullptr when unknown.
const Policy* FindPolicy(std::string_view name);

/// Looks up a built-in policy; throws actg::InvalidArgument listing
/// the known names when unknown.
const Policy& GetPolicy(std::string_view name);

/// Names of the built-in policies, sorted: "nlp", "online",
/// "proportional".
std::vector<std::string> PolicyNames();

/// Convenience entry point: applies the named policy to \p schedule,
/// building a transient PathEngine, which records nowhere, when
/// \p engine is null (identical results either way — the engine only
/// pools storage and names where to record).
StretchStats ApplyPolicy(std::string_view name, sched::Schedule& schedule,
                         const ctg::BranchProbabilities& probs,
                         const StretchOptions& options = {},
                         PathEngine* engine = nullptr);

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_POLICY_H
