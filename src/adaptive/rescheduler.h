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
///   1. exact cache hit   — Lookup; the entry cached for exactly these
///                          probabilities (in full mode bit-identical
///                          to a from-scratch recompute).
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
/// Every outcome is counted (tier_counts(), and with a configured
/// registry the counters "resched.tier.*"), and every call is one
/// "adaptive.reschedule" stage probe whose duration also lands in the
/// "reschedule.latency_us" distribution ("…compute_latency_us" excludes
/// exact hits), which bench_reschedule reads back as p50/p99. The facade
/// binds the same registry to the PathEngine it leases and that engine's
/// DLS workspace, so "sched.dls", "dvfs.enumerate" and "dvfs.stretch"
/// land beside it; without a registry nothing is recorded. The trace
/// session (ReschedulerConfig::trace) takes the same route and receives
/// the same four spans.
///
/// Workspace lease: the facade owns no path store. When the exact tier
/// misses, it leases a dvfs::PathEngine from its dvfs::EnginePool
/// (ReschedulerConfig::engines, or a private pool of one) for the rest
/// of that Reschedule(); the lease returns the engine when the call
/// ends, also when it throws. A facade between reschedules therefore
/// holds no path store, DFS stacks, scan scratch or DLS scratch. A
/// warm stretch rewinds only the engine this facade last enumerated
/// on, and only while that enumeration id is still the engine's
/// current one; another borrower's enumeration, or a lease for another
/// model, makes it enumerate again. Which engine a lease returns never
/// changes a result.
///
/// Exactness contract per tier: kExact returns the entry inserted for
/// exactly these probabilities in this mode (the cache key folds the
/// reschedule mode into the config fingerprint, so entries never cross
/// modes). In full mode those are the bytes a recompute would produce.
/// In incremental mode they are what a warm start produced earlier,
/// possibly another controller's sharing the key space, so the cache's
/// capacity and eviction order can move incremental-mode schedules and
/// energies (each one oracle-valid either way). kWarmPrior
/// returns oracle-valid, deadline-safe schedules that may differ from a
/// full recompute — the controller's energy-acceptance gate decides
/// adoption, exactly as it does for noisy windowed estimates. kFull is
/// the reference semantics. Debug: ACTG_VERIFY_INCREMENTAL=1
/// (or RescheduleOptions::verify_incremental) recomputes from scratch
/// after every warm-started result, oracle-validates both, and records
/// the energy ratio in "resched.verify.energy_ratio". The reference
/// recompute runs against a private scratch PathEngine (lazily built on
/// first use, never leased from the pool), so the debug oracle is
/// side-effect-free by construction: arming it perturbs no leased
/// workspace state — the production engine's enumeration id, committed
/// path delays and DLS scratch are untouched — and produced schedules
/// are bit-identical with the oracle on or off.

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
#include "dvfs/engine_pool.h"
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
  /// Stretch policy, resolved by name through dvfs::GetPolicy.
  std::string policy = "online";
  /// Optional schedule memoization (cache + tenant in one value).
  runtime::CacheBinding cache;
  RescheduleOptions reschedule;
  /// Pool the facade leases its reschedule workspace from (see the file
  /// comment); nullptr gives the facade a private pool of one. Shared
  /// by the controllers of one owner (a serve daemon, a campaign shard)
  /// and must outlive every facade bound to it.
  dvfs::EnginePool* engines = nullptr;
  /// Metrics registry for the facade's tier counters, latency samples
  /// and "adaptive.reschedule" timer; the facade binds it to the
  /// PathEngine it leases and that engine's DlsWorkspace, so the DLS,
  /// enumeration and stretch timers land here too. "guard.dnf_fallbacks"
  /// counts once per facade, at construction, when the graph does not
  /// fit the bitset width. nullptr records nothing.
  runtime::Metrics* metrics = nullptr;
  /// Trace session for the "adaptive.reschedule" span, handed on like
  /// metrics so the DLS, enumeration and stretch spans land in it too.
  /// nullptr records nothing.
  obs::TraceSession* trace = nullptr;
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

/// The facade. Owns the structural fingerprints, the cache keying and
/// the warm-start basis, and leases its reschedule workspace (path
/// enumeration + DLS scratch) per computed reschedule. The referenced
/// graph/analysis/platform, and the engine pool when one is injected,
/// must outlive it. Not thread-safe — one Rescheduler belongs to one
/// controller; the pool it leases from is thread-safe.
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
  /// In incremental mode, non-degraded results become the next
  /// warm-start basis.
  RescheduleResult Reschedule(const ctg::BranchProbabilities& probs,
                              const RescheduleRequest& req);

  const ReschedulerConfig& config() const { return config_; }
  const TierCounts& tier_counts() const { return tiers_; }
  std::uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  std::uint64_t platform_fingerprint() const {
    return platform_fingerprint_;
  }
  std::uint64_t config_fingerprint() const { return config_fingerprint_; }

 private:
  runtime::ScheduleCacheKey MakeKey(
      const ctg::BranchProbabilities& probs) const;
  /// Full DLS + stretch under \p req on the leased \p engine;
  /// validates and (when \p key is set) inserts into the cache.
  RescheduleResult ComputeFull(dvfs::PathEngine& engine,
                               const ctg::BranchProbabilities& probs,
                               const RescheduleRequest& req,
                               const runtime::ScheduleCacheKey* key);
  /// ComputeFull after its DLS: stretches \p schedule, a RunDls result
  /// under \p req's mask, then validates and caches as ComputeFull.
  RescheduleResult FinishFull(dvfs::PathEngine& engine,
                              sched::Schedule schedule,
                              const ctg::BranchProbabilities& probs,
                              const RescheduleRequest& req,
                              const runtime::ScheduleCacheKey* key);
  /// The warm-start rung; returns nullopt when there is no basis yet
  /// (the caller then falls through to full). A dirty region over the
  /// ratio yields a kFull result built on the fallback's own full DLS.
  std::optional<RescheduleResult> ComputeIncremental(
      dvfs::PathEngine& engine, const ctg::BranchProbabilities& probs,
      const RescheduleRequest& req, const runtime::ScheduleCacheKey* key);
  void ApplyStretch(dvfs::PathEngine& engine, sched::Schedule& schedule,
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
  /// Runs entirely on verify_engine_ (never a leased engine), so arming
  /// the oracle cannot change what the production ladder computes.
  void VerifyIncremental(const ctg::BranchProbabilities& probs,
                         const RescheduleRequest& req,
                         const RescheduleResult& got);
  void CountTier(RescheduleTier tier);
  /// True in incremental mode, the only mode whose warm-start rung
  /// reads the basis and the recorded enumeration shape.
  bool incremental() const {
    return config_.reschedule.mode == RescheduleMode::kIncremental;
  }
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
  /// The pool every computed reschedule leases its workspace from:
  /// config_.engines, or own_engines_ when none was injected.
  std::unique_ptr<dvfs::EnginePool> own_engines_;
  dvfs::EnginePool* engines_;
  /// Scratch workspace for VerifyIncremental's reference recompute,
  /// built lazily on the first verified call and never pooled. Keeping
  /// the debug oracle off the leased engines is what makes it
  /// side-effect-free: the enumeration id / committed delays the
  /// warm-start tier relies on are never touched by a verify pass.
  std::unique_ptr<dvfs::PathEngine> verify_engine_;
  /// Warm-start basis: the last non-degraded result (full schedule, so
  /// the warm stretch can replay its committed speed assignment).
  /// Incremental mode only, like the enumeration record below.
  std::optional<sched::Schedule> basis_schedule_;
  ctg::BranchProbabilities basis_probs_;
  /// The engine this facade last enumerated on, the shape it enumerated
  /// and the enumeration id the engine had right after — the record that
  /// licenses StretchWarmStart::reuse_enumeration on a later lease of
  /// that same engine. Only identifies the engine; never dereferenced.
  const dvfs::PathEngine* enumerated_on_ = nullptr;
  std::vector<int> engine_shape_;
  std::uint64_t engine_enum_id_ = 0;
  TierCounts tiers_;
};

}  // namespace actg::adaptive

#endif  // ACTG_ADAPTIVE_RESCHEDULER_H
