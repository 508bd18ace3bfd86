#include "adaptive/rescheduler.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "check/validator.h"
#include "runtime/fingerprint.h"
#include "sim/energy.h"
#include "util/error.h"
#include "util/hash.h"

namespace actg::adaptive {

namespace {

/// Fingerprint of every configuration knob that influences the produced
/// schedule (the cache key must distinguish configs, not just inputs).
/// The full-mode fingerprint of a default config is unchanged from the
/// pre-facade controller, so timeline unit ids and cached entries of
/// existing setups stay stable; incremental mode folds itself in — an
/// incremental result must never be served to a full-mode lookup, whose
/// contract is bit-exactness.
std::uint64_t FingerprintConfig(const ReschedulerConfig& config) {
  std::uint64_t fp = 0x9E3779B97F4A7C15ULL;
  fp = util::HashCombine(
      fp, static_cast<std::uint64_t>(config.dls.level_policy));
  fp = util::HashCombine(fp, config.dls.mutex_aware ? 1 : 2);
  if (config.dls.fixed_mapping != nullptr) {
    for (PeId pe : *config.dls.fixed_mapping) {
      fp = util::HashCombine(fp, static_cast<std::uint64_t>(pe.value));
    }
  }
  // Only folded in when restricting, so fingerprints (and the timeline
  // unit ids derived from them) of mask-free configs are unchanged.
  if (!config.dls.available_pes.IsAll()) {
    fp = util::HashCombine(fp, config.dls.available_pes.removed_bits());
  }
  fp = util::HashCombine(fp, config.stretch.max_paths);
  for (const char c : config.policy) {
    fp = util::HashCombine(fp, static_cast<std::uint64_t>(c));
  }
  if (config.reschedule.mode != RescheduleMode::kFull) {
    fp = util::HashCombine(
        fp, static_cast<std::uint64_t>(config.reschedule.mode) + 0xC0FFEE);
    fp = util::HashDouble(fp, config.reschedule.max_dirty_ratio);
  }
  return fp;
}

bool VerifyEnvSet() {
  const char* env = std::getenv("ACTG_VERIFY_INCREMENTAL");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

const char* RescheduleModeName(RescheduleMode mode) {
  switch (mode) {
    case RescheduleMode::kFull:
      return "full";
    case RescheduleMode::kIncremental:
      return "incremental";
  }
  return "full";
}

std::optional<RescheduleMode> ParseRescheduleMode(std::string_view name) {
  if (name == "full") return RescheduleMode::kFull;
  if (name == "incremental") return RescheduleMode::kIncremental;
  return std::nullopt;
}

const char* RescheduleTierName(RescheduleTier tier) {
  switch (tier) {
    case RescheduleTier::kExact:
      return "exact";
    case RescheduleTier::kWarmCache:
      return "warm_cache";
    case RescheduleTier::kWarmPrior:
      return "warm_prior";
    case RescheduleTier::kTable:
      return "table";
    case RescheduleTier::kFull:
      return "full";
  }
  return "full";
}

util::Error RescheduleOptions::Validate() const {
  if (!(max_dirty_ratio > 0.0) || max_dirty_ratio > 1.0) {
    return util::Error::Invalid(
        "RescheduleOptions: max_dirty_ratio must lie in (0, 1]");
  }
  return {};
}

util::Error ReschedulerConfig::Validate() const {
  if (dvfs::FindPolicy(policy) == nullptr) {
    return util::Error::Invalid(
        "ReschedulerConfig: unknown stretch policy '" + policy + "'");
  }
  if (util::Error err = dls.Validate()) return err;
  if (util::Error err = stretch.Validate()) return err;
  if (util::Error err = reschedule.Validate()) return err;
  return {};
}

Rescheduler::Rescheduler(const ctg::Ctg& graph,
                         const ctg::ActivationAnalysis& analysis,
                         const arch::Platform& platform,
                         ReschedulerConfig config)
    : graph_(&graph),
      analysis_(&analysis),
      platform_(&platform),
      config_(std::move(config)),
      policy_(nullptr),
      verify_incremental_(config_.reschedule.verify_incremental ||
                          VerifyEnvSet()),
      graph_fingerprint_(runtime::FingerprintCtg(graph)),
      platform_fingerprint_(runtime::FingerprintPlatform(platform)),
      config_fingerprint_(0),
      own_engines_(config_.engines == nullptr
                       ? std::make_unique<dvfs::EnginePool>()
                       : nullptr),
      engines_(config_.engines != nullptr ? config_.engines
                                          : own_engines_.get()) {
  config_.Validate().ThrowIfError();
  policy_ = &dvfs::GetPolicy(config_.policy);
  config_fingerprint_ = FingerprintConfig(config_);
  // Once per facade, at construction: a facade whose every request hits
  // the cache never leases an engine.
  if (!analysis.bit_edge_conditions() && config_.metrics != nullptr) {
    config_.metrics->Increment("guard.dnf_fallbacks");
  }
}

runtime::ScheduleCacheKey Rescheduler::MakeKey(
    const ctg::BranchProbabilities& probs) const {
  return runtime::MakeCacheKey(*graph_, probs, graph_fingerprint_,
                               platform_fingerprint_, config_fingerprint_,
                               config_.cache.tenant, config_.policy);
}

std::vector<int> Rescheduler::ShapeSignature(
    const sched::Schedule& schedule) const {
  // ((pe, order_index), task) sorted gives the per-PE task sequences in
  // commit order — exactly what the DLS derives pseudo edges from.
  // Global order_index values are irrelevant, only the per-PE sequences
  // matter, so the signature records (pe, task) pairs.
  std::vector<std::pair<std::pair<int, int>, int>> keyed;
  keyed.reserve(graph_->task_count());
  for (TaskId task : graph_->TaskIds()) {
    const sched::TaskPlacement& p = schedule.placement(task);
    keyed.push_back(
        {{p.pe.value, p.order_index}, static_cast<int>(task.index())});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> sig;
  sig.reserve(2 * keyed.size());
  for (const auto& [key, task] : keyed) {
    sig.push_back(key.first);
    sig.push_back(task);
  }
  return sig;
}

void Rescheduler::ApplyStretch(dvfs::PathEngine& engine,
                               sched::Schedule& schedule,
                               const ctg::BranchProbabilities& probs,
                               double speed_floor,
                               dvfs::StretchStats& stats,
                               const dvfs::StretchWarmStart* warm) {
  dvfs::PolicyContext ctx;
  ctx.schedule = &schedule;
  ctx.probs = &probs;
  ctx.stretch = config_.stretch;
  ctx.speed_floor = speed_floor;
  ctx.warm = warm;
  const std::uint64_t enum_id = engine.enumeration_id();
  stats = policy_->Apply(engine, ctx);
  // When Apply enumerated, the engine now holds this schedule's shape:
  // record the engine, the shape and the id that let a later warm
  // stretch on the same engine rewind instead of re-running the path
  // DFS. A rewound stretch left the record as it was, and a
  // nominal-floor stretch never touched the engine, so recording its
  // shape would pair it with an older enumeration. Only the warm-start
  // rung reads the record.
  if (incremental() && engine.enumeration_id() != enum_id) {
    enumerated_on_ = &engine;
    engine_shape_ = ShapeSignature(schedule);
    engine_enum_id_ = engine.enumeration_id();
  }
}

void Rescheduler::MaybeValidate(const sched::Schedule& schedule,
                                const RescheduleRequest& req) const {
  if (!config_.validate_schedules) return;
  check::Expectations expect;
  expect.available_pes = req.mask;
  expect.speed_floor = req.speed_floor;
  check::Validate(schedule, expect);
}

RescheduleResult Rescheduler::ComputeFull(
    dvfs::PathEngine& engine, const ctg::BranchProbabilities& probs,
    const RescheduleRequest& req, const runtime::ScheduleCacheKey* key) {
  sched::DlsOptions dls = config_.dls;
  dls.available_pes = req.mask;
  return FinishFull(engine,
                    sched::RunDls(*graph_, *analysis_, *platform_, probs,
                                  dls, &engine.dls_workspace()),
                    probs, req, key);
}

RescheduleResult Rescheduler::FinishFull(
    dvfs::PathEngine& engine, sched::Schedule schedule,
    const ctg::BranchProbabilities& probs, const RescheduleRequest& req,
    const runtime::ScheduleCacheKey* key) {
  RescheduleResult result{std::move(schedule), dvfs::StretchStats{},
                          RescheduleTier::kFull};
  ApplyStretch(engine, result.schedule, probs, req.speed_floor,
               result.stretch);
  MaybeValidate(result.schedule, req);
  if (config_.cache && key != nullptr) {
    config_.cache.cache->Insert(
        *key,
        runtime::ScheduleCacheEntry{result.schedule, result.stretch});
  }
  return result;
}

std::optional<RescheduleResult> Rescheduler::ComputeIncremental(
    dvfs::PathEngine& engine, const ctg::BranchProbabilities& probs,
    const RescheduleRequest& req, const runtime::ScheduleCacheKey* key) {
  if (!basis_schedule_.has_value()) return std::nullopt;
  const sched::Schedule& seed_schedule = *basis_schedule_;

  const sched::IncrementalDelta delta =
      sched::ComputeDirtyRegion(*graph_, *analysis_, basis_probs_, probs);
  sched::DlsOptions dls = config_.dls;
  dls.available_pes = req.mask;
  sched::IncrementalResult inc = sched::RunIncrementalDls(
      *graph_, *analysis_, *platform_, probs,
      sched::MappingOf(seed_schedule), delta, dls,
      config_.reschedule.max_dirty_ratio, &engine.dls_workspace());
  if (inc.fell_back) {
    ++tiers_.incremental_fallbacks;
    if (config_.metrics != nullptr) {
      config_.metrics->Increment("resched.incremental_fallbacks");
    }
    // The fallback already ran the full tier's DLS (same options, same
    // workspace, bit-identical by RunIncrementalDls's contract): finish
    // the full tier on it instead of scheduling again.
    return FinishFull(engine, std::move(inc.schedule), probs, req, key);
  }
  RescheduleResult result{std::move(inc.schedule), dvfs::StretchStats{},
                          RescheduleTier::kWarmPrior};
  // Warm stretch: replay the seed's committed speeds for clean tasks
  // (deadline-clamped — always feasible) and run the full slack
  // computation only for the dirty region plus any task the warm DLS
  // moved off its seed PE. When the leased engine is the one this
  // facade last enumerated on, that enumeration is still its current
  // one and the warm schedule's shape matches it, rewind the committed
  // delays instead of re-running the path DFS (delta re-enumeration).
  std::vector<double> seed_speed(graph_->task_count(), 0.0);
  std::vector<char> stretch_dirty = delta.dirty;
  for (TaskId task : graph_->TaskIds()) {
    const std::size_t i = static_cast<std::size_t>(task.index());
    const sched::TaskPlacement& seed_p = seed_schedule.placement(task);
    seed_speed[i] = seed_p.speed_ratio;
    if (result.schedule.placement(task).pe != seed_p.pe) {
      stretch_dirty[i] = 1;
    }
  }
  dvfs::StretchWarmStart warm;
  warm.seed_speed = &seed_speed;
  warm.dirty = &stretch_dirty;
  warm.reuse_enumeration =
      enumerated_on_ == &engine &&
      engine_enum_id_ == engine.enumeration_id() &&
      engine_shape_ == ShapeSignature(result.schedule);
  ApplyStretch(engine, result.schedule, probs, req.speed_floor,
               result.stretch, &warm);
  MaybeValidate(result.schedule, req);
  if (verify_incremental_) VerifyIncremental(probs, req, result);
  // A warm-started result is a valid schedule for these exact
  // probabilities under this (mode-fingerprinted) config: memoize it.
  if (config_.cache && key != nullptr) {
    config_.cache.cache->Insert(
        *key,
        runtime::ScheduleCacheEntry{result.schedule, result.stretch});
  }
  return result;
}

void Rescheduler::VerifyIncremental(const ctg::BranchProbabilities& probs,
                                    const RescheduleRequest& req,
                                    const RescheduleResult& got) {
  // From-scratch reference under the same request, computed entirely on
  // a private scratch engine. Routing the reference through a leased
  // engine would advance its enumeration id and overwrite the committed
  // path delays the next warm stretch wants to rewind — i.e. the debug
  // oracle would perturb the production ladder it is checking. The
  // scratch engine also means ApplyStretch must not be used here (it
  // records the engine it stretched on for the next rewind); the policy
  // is applied directly instead. The scratch engine has no registry
  // and no trace session: its recomputes are not production work and
  // must not count or show as such.
  if (verify_engine_ == nullptr) {
    verify_engine_ = std::make_unique<dvfs::PathEngine>(
        *graph_, *analysis_, *platform_,
        dvfs::PathEngineOptions{.max_paths = config_.stretch.max_paths});
  }
  sched::DlsOptions dls = config_.dls;
  dls.available_pes = req.mask;
  sched::Schedule reference =
      sched::RunDls(*graph_, *analysis_, *platform_, probs, dls,
                    &verify_engine_->dls_workspace());
  dvfs::PolicyContext ctx;
  ctx.schedule = &reference;
  ctx.probs = &probs;
  ctx.stretch = config_.stretch;
  ctx.speed_floor = req.speed_floor;
  policy_->Apply(*verify_engine_, ctx);
  // Both must satisfy every structural invariant regardless of
  // validate_schedules — this is the debug oracle.
  check::Expectations expect;
  expect.available_pes = req.mask;
  expect.speed_floor = req.speed_floor;
  check::Validate(got.schedule, expect);
  check::Validate(reference, expect);
  if (config_.metrics == nullptr) return;
  config_.metrics->Increment("resched.verify.runs");
  const ctg::ActivationProbabilities p = analysis_->Evaluate(probs);
  const double e_ref = sim::ExpectedEnergy(reference, p);
  if (e_ref > 0.0) {
    config_.metrics->Observe("resched.verify.energy_ratio",
                             sim::ExpectedEnergy(got.schedule, p) / e_ref);
  }
}

void Rescheduler::CountTier(RescheduleTier tier) {
  switch (tier) {
    case RescheduleTier::kExact:
      ++tiers_.exact;
      break;
    case RescheduleTier::kWarmCache:
      ++tiers_.warm_cache;
      break;
    case RescheduleTier::kWarmPrior:
      ++tiers_.warm_prior;
      break;
    case RescheduleTier::kTable:
      ++tiers_.table;
      break;
    case RescheduleTier::kFull:
      ++tiers_.full;
      break;
  }
  if (config_.metrics != nullptr) {
    config_.metrics->Increment(std::string("resched.tier.") +
                               RescheduleTierName(tier));
  }
}

void Rescheduler::RememberBasis(const ctg::BranchProbabilities& probs,
                                const sched::Schedule& schedule) {
  basis_probs_ = probs;
  // Full copy (speeds included): the warm stretch replays the basis's
  // committed speed assignment, not just its mapping.
  basis_schedule_ = schedule;
}

RescheduleResult Rescheduler::Reschedule(
    const ctg::BranchProbabilities& probs, const RescheduleRequest& req) {
  runtime::StageProbe probe(config_.metrics, config_.trace,
                            "adaptive.reschedule", "adaptive");
  // Degraded requests (restricted PEs and/or a speed floor) bypass the
  // cache: its key encodes neither constraint, and a degraded schedule
  // must never be served back to a healthy lookup. They also skip the
  // warm tier — the basis was computed for the healthy platform.
  const bool degraded = !(req.mask == config_.dls.available_pes) ||
                        req.speed_floor != 0.0;

  std::optional<RescheduleResult> result;
  bool from_cache = false;
  runtime::ScheduleCacheKey key;
  const bool cache_ok = config_.cache && !degraded;
  if (cache_ok) {
    key = MakeKey(probs);
    if (std::optional<runtime::ScheduleCacheEntry> cached =
            config_.cache.cache->Lookup(key)) {
      result.emplace(RescheduleResult{std::move(cached->schedule),
                                      cached->stretch,
                                      RescheduleTier::kExact});
      from_cache = true;
    }
  }
  if (!from_cache) {
    // Arg order matches the pre-facade controller byte for byte
    // ("cached" first, "degraded" only when set) so golden traces of
    // full-mode runs are unchanged.
    if (probe.tracing()) {
      probe.AddArg(obs::IntArg("cached", 0));
      if (degraded) probe.AddArg(obs::IntArg("degraded", 1));
    }
    // The workspace is leased for the computation only; the lease
    // returns it at the end of this block, also when the DLS, the
    // enumeration or the oracle throws.
    const dvfs::EnginePool::Lease engine = engines_->Acquire(
        *graph_, *analysis_, *platform_,
        dvfs::PathEngineOptions{.max_paths = config_.stretch.max_paths,
                                .metrics = config_.metrics,
                                .trace = config_.trace});
    const runtime::ScheduleCacheKey* const key_or_null =
        cache_ok ? &key : nullptr;
    if (!degraded && incremental()) {
      result = ComputeIncremental(*engine, probs, req, key_or_null);
    }
    if (!result.has_value()) {
      result = ComputeFull(*engine, probs, req, key_or_null);
    }
  }
  if (probe.tracing()) {
    if (from_cache) probe.AddArg(obs::IntArg("cached", 1));
    if (config_.reschedule.mode != RescheduleMode::kFull) {
      probe.AddArg(obs::StrArg("tier", RescheduleTierName(result->tier)));
      probe.AddArg(obs::StrArg("reason", req.reason));
    }
  }
  CountTier(result->tier);
  if (!degraded && incremental()) RememberBasis(probs, result->schedule);
  // One clock sample ends the stage timer and both latency samples.
  const double us = static_cast<double>(probe.Finish()) * 1e-3;
  if (config_.metrics != nullptr) {
    config_.metrics->Observe("reschedule.latency_us", us);
    if (result->tier != RescheduleTier::kExact) {
      config_.metrics->Observe("reschedule.compute_latency_us", us);
    }
  }
  return std::move(*result);
}

}  // namespace actg::adaptive
