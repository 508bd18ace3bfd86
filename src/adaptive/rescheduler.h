/// \file rescheduler.h
/// The unified reschedule facade: one entry point owning cache-key
/// construction, the exact / warm-start / full decision ladder and the
/// per-tier accounting.
///
/// Before this facade, the reschedule/cache plumbing had accreted
/// across the adaptive controller: two Reschedule() overloads, inline
/// key construction, and a raw (cache pointer, tenant id) pairing every
/// caller had to keep consistent. The Rescheduler collapses all of it
/// behind Reschedule(probs, RescheduleRequest): callers say *what*
/// operating point to schedule for and under which constraints; the
/// facade decides *how* — consulting the tiers in order:
///
///   1. exact cache hit   — Lookup; bit-identical to a from-scratch
///                          recompute.
///   2. warm start        — incremental mode only: dirty-region DLS
///                          seeded by the facade's own last result
///                          (kWarmPrior), then a warm stretch that
///                          replays the seed's committed speeds for
///                          clean tasks (deadline-clamped) and
///                          re-enumerates paths only when the scheduled
///                          DAG's shape changed; feasibly equivalent,
///                          not bit-identical.
///   3. full recompute    — always available; the only path degraded
///                          requests (restricted mask or speed floor)
///                          take, bypassing the cache entirely.
///
/// Every outcome is counted (tier_counts(), metrics counters
/// "resched.tier.*") and every call's latency lands in the
/// "reschedule.latency_us" metrics distribution ("…compute_latency_us"
/// excludes exact hits), which bench_reschedule reads back as p50/p99.
///
/// Exactness contract per tier: kExact returns the bytes a recompute
/// would produce (the cache key folds the reschedule mode into the
/// config fingerprint, so entries never cross modes). kWarmPrior
/// returns oracle-valid, deadline-safe schedules that may differ from a
/// full recompute — the controller's energy-acceptance gate decides
/// adoption, exactly as it does for noisy windowed estimates. kFull is
/// the reference semantics. Debug: ACTG_VERIFY_INCREMENTAL=1
/// (or RescheduleOptions::verify_incremental) recomputes from scratch
/// after every warm-started result, oracle-validates both, and records
/// the energy ratio in "resched.verify.energy_ratio". The reference
/// recompute runs against a private scratch PathEngine (lazily built on
/// first use), so the debug oracle is side-effect-free by construction:
/// arming it perturbs no pooled workspace state — the production
/// engine's enumeration id, committed path delays and DLS scratch are
/// untouched — and produced schedules are bit-identical with the oracle
/// on or off.

#ifndef ACTG_ADAPTIVE_RESCHEDULER_H
#define ACTG_ADAPTIVE_RESCHEDULER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "dvfs/path_engine.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "obs/trace.h"
#include "runtime/metrics.h"
#include "runtime/schedule_cache.h"
#include "sched/dls.h"
#include "sched/incremental.h"
#include "sched/schedule.h"
#include "util/error.h"

namespace actg::adaptive {

/// How the facade recomputes when the exact tier misses.
enum class RescheduleMode {
  /// Full DLS + stretch every time (the reference semantics; default).
  kFull = 0,
  /// Warm-start dirty-region DLS from the prior result; falls back to
  /// full when the dirty region is too large. The value is folded into
  /// FingerprintConfig, hence into cache keys and timeline unit ids.
  kIncremental = 1,
};

/// Stable lowercase name ("full", "incremental").
const char* RescheduleModeName(RescheduleMode mode);

/// Inverse of RescheduleModeName; nullopt on an unknown name.
std::optional<RescheduleMode> ParseRescheduleMode(std::string_view name);

/// Knobs of the reschedule ladder.
struct RescheduleOptions {
  RescheduleMode mode = RescheduleMode::kFull;
  /// Incremental mode: when more than this fraction of tasks is dirty,
  /// warm-starting would pin too little to pay off — run full DLS.
  double max_dirty_ratio = 0.5;
  /// Debug: recompute from scratch after every warm-started result and
  /// oracle-validate both (also enabled by ACTG_VERIFY_INCREMENTAL=1).
  bool verify_incremental = false;

  /// Ok when max_dirty_ratio lies in (0, 1].
  util::Error Validate() const;
};

/// One reschedule request: *what* the caller needs, not how to get it.
/// A request whose mask differs from the configured availability or
/// whose speed_floor is nonzero is *degraded*: it bypasses the cache
/// (the key encodes neither constraint, and a degraded schedule must
/// never be served back to a healthy lookup) and always recomputes in
/// full.
struct RescheduleRequest {
  /// PEs the scheduler may place on.
  arch::PeMask mask;
  /// Minimum speed ratio the stretcher must respect (0 = none).
  double speed_floor = 0.0;
  /// Why the caller reschedules ("initial", "threshold", "degraded",
  /// "recovery"); recorded on the trace span in non-full modes.
  const char* reason = "threshold";
};

/// Which rung of the ladder produced a result.
enum class RescheduleTier {
  kExact = 0,  ///< cache hit (bit-identical)
  /// Retired, never produced: BENCH_campaign.json and perfbench's
  /// replay still read its name.
  kWarmCache = 1,
  kWarmPrior = 2,  ///< incremental DLS seeded by the prior result
  /// Retired like kWarmCache, and kept for the same readers.
  kTable = 3,
  kFull = 4,  ///< full recompute
};

/// Stable name ("exact", "warm_cache", "warm_prior", "table", "full").
const char* RescheduleTierName(RescheduleTier tier);

/// Per-tier outcome counters of one Rescheduler.
struct TierCounts {
  std::uint64_t exact = 0;
  /// Always 0 (retired tier); BENCH_campaign.json and perfbench's
  /// replay still read it.
  std::uint64_t warm_cache = 0;
  std::uint64_t warm_prior = 0;
  /// Always 0; retired like warm_cache, kept for the same readers.
  std::uint64_t table = 0;
  std::uint64_t full = 0;
  /// Warm-start attempts that fell back to a full DLS (dirty region
  /// over the ratio, or unusable basis); these also count under full.
  std::uint64_t incremental_fallbacks = 0;

  std::uint64_t total() const {
    return exact + warm_cache + warm_prior + table + full;
  }
};

/// Everything the facade needs to know at construction.
struct ReschedulerConfig {
  /// Scheduler configuration (the configured availability mask in
  /// dls.available_pes defines which requests count as degraded).
  sched::DlsOptions dls;
  dvfs::StretchOptions stretch;
  /// Stretch policy, resolved through the dvfs::Policy registry.
  std::string policy = "online";
  /// Optional schedule memoization (cache + tenant in one value).
  runtime::CacheBinding cache;
  RescheduleOptions reschedule;
  /// Metrics registry; nullptr means runtime::Metrics::Global().
  runtime::Metrics* metrics = nullptr;
  /// Oracle-check every freshly computed schedule (see
  /// AdaptiveOptions::validate_schedules).
  bool validate_schedules = false;

  util::Error Validate() const;
};

/// A completed reschedule.
struct RescheduleResult {
  sched::Schedule schedule;
  dvfs::StretchStats stretch;
  RescheduleTier tier = RescheduleTier::kFull;
};

/// The facade. Owns the reusable reschedule workspace (path enumeration
/// + DLS scratch), the structural fingerprints, the cache keying and
/// the warm-start basis. The referenced graph/analysis/platform must
/// outlive it. Not thread-safe — one
/// Rescheduler belongs to one controller.
class Rescheduler {
 public:
  /// Throws when \p config does not validate. The config fingerprint
  /// folds the reschedule mode (when not kFull), so cache entries
  /// written by an incremental-mode facade are invisible to a full-mode
  /// one and vice versa.
  Rescheduler(const ctg::Ctg& graph,
              const ctg::ActivationAnalysis& analysis,
              const arch::Platform& platform, ReschedulerConfig config);

  /// Runs the decision ladder for \p probs under \p req and returns
  /// the schedule, its stretch stats and the tier that produced it.
  /// Non-degraded results become the next warm-start basis.
  RescheduleResult Reschedule(const ctg::BranchProbabilities& probs,
                              const RescheduleRequest& req,
                              obs::TraceSession* trace = nullptr);

  const ReschedulerConfig& config() const { return config_; }
  const TierCounts& tier_counts() const { return tiers_; }
  std::uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  std::uint64_t platform_fingerprint() const {
    return platform_fingerprint_;
  }
  std::uint64_t config_fingerprint() const { return config_fingerprint_; }

 private:
  runtime::Metrics& MetricsTarget() const;
  runtime::ScheduleCacheKey MakeKey(
      const ctg::BranchProbabilities& probs) const;
  /// Full DLS + stretch under \p req; validates and (when \p key is
  /// set) inserts into the cache.
  RescheduleResult ComputeFull(const ctg::BranchProbabilities& probs,
                               const RescheduleRequest& req,
                               const runtime::ScheduleCacheKey* key);
  /// ComputeFull after its DLS: stretches \p schedule, a RunDls result
  /// under \p req's mask, then validates and caches as ComputeFull.
  RescheduleResult FinishFull(sched::Schedule schedule,
                              const ctg::BranchProbabilities& probs,
                              const RescheduleRequest& req,
                              const runtime::ScheduleCacheKey* key);
  /// The warm-start rung; returns nullopt when there is no basis yet
  /// (the caller then falls through to full). A dirty region over the
  /// ratio yields a kFull result built on the fallback's own full DLS.
  std::optional<RescheduleResult> ComputeIncremental(
      const ctg::BranchProbabilities& probs, const RescheduleRequest& req,
      const runtime::ScheduleCacheKey* key);
  void ApplyStretch(sched::Schedule& schedule,
                    const ctg::BranchProbabilities& probs,
                    double speed_floor, dvfs::StretchStats& stats,
                    const dvfs::StretchWarmStart* warm = nullptr);
  /// Canonical shape of a schedule's scheduled DAG: the per-PE task
  /// sequences, flattened. Two schedules with equal signatures induce
  /// the same DAG, so a path enumeration of one is valid for the other.
  std::vector<int> ShapeSignature(const sched::Schedule& schedule) const;
  void MaybeValidate(const sched::Schedule& schedule,
                     const RescheduleRequest& req) const;
  /// Debug diff of a warm-started result against a from-scratch one.
  /// Runs entirely on verify_engine_ (never engine_), so arming the
  /// oracle cannot change what the production ladder computes.
  void VerifyIncremental(const ctg::BranchProbabilities& probs,
                         const RescheduleRequest& req,
                         const RescheduleResult& got);
  void CountTier(RescheduleTier tier);
  void RememberBasis(const ctg::BranchProbabilities& probs,
                     const sched::Schedule& schedule);

  const ctg::Ctg* graph_;
  const ctg::ActivationAnalysis* analysis_;
  const arch::Platform* platform_;
  ReschedulerConfig config_;
  const dvfs::Policy* policy_;
  bool verify_incremental_;
  std::uint64_t graph_fingerprint_ = 0;
  std::uint64_t platform_fingerprint_ = 0;
  std::uint64_t config_fingerprint_ = 0;
  /// Reusable reschedule workspace (path enumeration + DLS scratch),
  /// shared by every Reschedule() call.
  dvfs::PathEngine engine_;
  /// Scratch workspace for VerifyIncremental's reference recompute,
  /// built lazily on the first verified call. Keeping the debug oracle
  /// off the pooled engine_ is what makes it side-effect-free: the
  /// enumeration id / committed delays the warm-start tier relies on
  /// are never touched by a verify pass.
  std::unique_ptr<dvfs::PathEngine> verify_engine_;
  /// Warm-start basis: the last non-degraded result (full schedule, so
  /// the warm stretch can replay its committed speed assignment).
  std::optional<sched::Schedule> basis_schedule_;
  ctg::BranchProbabilities basis_probs_;
  /// Shape the engine's current enumeration was built for, plus the
  /// enumeration id it had right after the owning ApplyStretch — the
  /// pair that licenses StretchWarmStart::reuse_enumeration.
  std::vector<int> engine_shape_;
  std::uint64_t engine_enum_id_ = 0;
  TierCounts tiers_;
};

}  // namespace actg::adaptive

#endif  // ACTG_ADAPTIVE_RESCHEDULER_H
