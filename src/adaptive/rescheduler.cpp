#include "adaptive/rescheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "check/validator.h"
#include "runtime/fingerprint.h"
#include "sim/energy.h"
#include "util/error.h"

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
  fp = runtime::HashCombine(
      fp, static_cast<std::uint64_t>(config.dls.level_policy));
  fp = runtime::HashCombine(fp, config.dls.mutex_aware ? 1 : 2);
  if (config.dls.fixed_mapping != nullptr) {
    for (PeId pe : *config.dls.fixed_mapping) {
      fp = runtime::HashCombine(fp, static_cast<std::uint64_t>(pe.value));
    }
  }
  // Only folded in when restricting, so fingerprints (and the timeline
  // unit ids derived from them) of mask-free configs are unchanged.
  if (!config.dls.available_pes.IsAll()) {
    fp = runtime::HashCombine(fp, config.dls.available_pes.removed_bits());
  }
  fp = runtime::HashCombine(fp, config.stretch.max_paths);
  for (const char c : config.policy) {
    fp = runtime::HashCombine(fp, static_cast<std::uint64_t>(c));
  }
  if (config.reschedule.mode != RescheduleMode::kFull) {
    fp = runtime::HashCombine(
        fp, static_cast<std::uint64_t>(config.reschedule.mode) + 0xC0FFEE);
    fp = runtime::HashDouble(fp, config.reschedule.max_dirty_ratio);
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
      engine_(graph, analysis, platform,
              dvfs::PathEngineOptions{.max_paths = config_.stretch.max_paths}) {
  config_.Validate().ThrowIfError();
  policy_ = &dvfs::GetPolicy(config_.policy);
  config_fingerprint_ = FingerprintConfig(config_);
}

runtime::Metrics& Rescheduler::MetricsTarget() const {
  return config_.metrics != nullptr ? *config_.metrics
                                    : runtime::Metrics::Global();
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
  // commit order — exactly what BuildDagAdjacency derives pseudo edges
  // from. Global order_index values are irrelevant, only the per-PE
  // sequences matter, so the signature records (pe, task) pairs.
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

void Rescheduler::ApplyStretch(sched::Schedule& schedule,
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
  stats = policy_->Apply(engine_, ctx);
  // The engine now holds an enumeration for this schedule's shape
  // (either freshly enumerated or rewound-and-recommitted); record the
  // pair that lets the next warm stretch rewind instead of re-running
  // the path DFS.
  engine_shape_ = ShapeSignature(schedule);
  engine_enum_id_ = engine_.enumeration_id();
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
    const ctg::BranchProbabilities& probs, const RescheduleRequest& req,
    const runtime::ScheduleCacheKey* key) {
  sched::DlsOptions dls = config_.dls;
  dls.available_pes = req.mask;
  return FinishFull(sched::RunDls(*graph_, *analysis_, *platform_, probs,
                                  dls, &engine_.dls_workspace()),
                    probs, req, key);
}

RescheduleResult Rescheduler::FinishFull(
    sched::Schedule schedule, const ctg::BranchProbabilities& probs,
    const RescheduleRequest& req, const runtime::ScheduleCacheKey* key) {
  RescheduleResult result{std::move(schedule), dvfs::StretchStats{},
                          RescheduleTier::kFull};
  ApplyStretch(result.schedule, probs, req.speed_floor, result.stretch);
  MaybeValidate(result.schedule, req);
  if (config_.cache && key != nullptr) {
    config_.cache.cache->Insert(
        *key,
        runtime::ScheduleCacheEntry{result.schedule, result.stretch});
  }
  return result;
}

std::optional<RescheduleResult> Rescheduler::ComputeIncremental(
    const ctg::BranchProbabilities& probs, const RescheduleRequest& req,
    const runtime::ScheduleCacheKey* key) {
  if (!basis_schedule_.has_value()) return std::nullopt;
  const sched::Schedule& seed_schedule = *basis_schedule_;

  const sched::IncrementalDelta delta =
      sched::ComputeDirtyRegion(*graph_, *analysis_, basis_probs_, probs);
  sched::DlsOptions dls = config_.dls;
  dls.available_pes = req.mask;
  sched::IncrementalResult inc = sched::RunIncrementalDls(
      *graph_, *analysis_, *platform_, probs,
      sched::MappingOf(seed_schedule), delta, dls,
      config_.reschedule.max_dirty_ratio, &engine_.dls_workspace());
  if (inc.fell_back) {
    ++tiers_.incremental_fallbacks;
    MetricsTarget().Increment("resched.incremental_fallbacks");
    // The fallback already ran the full tier's DLS (same options, same
    // workspace, bit-identical by RunIncrementalDls's contract): finish
    // the full tier on it instead of scheduling again.
    return FinishFull(std::move(inc.schedule), probs, req, key);
  }
  RescheduleResult result{std::move(inc.schedule), dvfs::StretchStats{},
                          RescheduleTier::kWarmPrior};
  // Warm stretch: replay the seed's committed speeds for clean tasks
  // (deadline-clamped — always feasible) and run the full slack
  // computation only for the dirty region plus any task the warm DLS
  // moved off its seed PE. When the warm schedule's shape matches the
  // engine's current enumeration, rewind the committed delays instead
  // of re-running the path DFS (delta re-enumeration).
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
      engine_enum_id_ != 0 &&
      engine_enum_id_ == engine_.enumeration_id() &&
      engine_shape_ == ShapeSignature(result.schedule);
  ApplyStretch(result.schedule, probs, req.speed_floor, result.stretch,
               &warm);
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
  // a private scratch engine. Routing the reference through engine_
  // would advance its enumeration id and overwrite the committed path
  // delays the next warm stretch wants to rewind — i.e. the debug
  // oracle would perturb the production ladder it is checking. The
  // scratch engine also means ApplyStretch must not be used here (it
  // records engine_shape_/engine_enum_id_ against engine_); the policy
  // is applied directly instead.
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
  runtime::Metrics& metrics = MetricsTarget();
  metrics.Increment("resched.verify.runs");
  const double e_ref = sim::ExpectedEnergy(reference, probs);
  if (e_ref > 0.0) {
    metrics.Observe("resched.verify.energy_ratio",
                    sim::ExpectedEnergy(got.schedule, probs) / e_ref);
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
  MetricsTarget().Increment(std::string("resched.tier.") +
                            RescheduleTierName(tier));
}

void Rescheduler::RememberBasis(const ctg::BranchProbabilities& probs,
                                const sched::Schedule& schedule) {
  basis_probs_ = probs;
  // Full copy (speeds included): the warm stretch replays the basis's
  // committed speed assignment, not just its mapping.
  basis_schedule_ = schedule;
}

RescheduleResult Rescheduler::Reschedule(
    const ctg::BranchProbabilities& probs, const RescheduleRequest& req,
    obs::TraceSession* trace) {
  const runtime::ScopedTimer stage_timer(MetricsTarget(),
                                         "stage.reschedule");
  obs::ScopedSpan span(trace, "adaptive.reschedule", "adaptive");
  const auto begin = std::chrono::steady_clock::now();
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
    if (span.enabled()) {
      span.AddArg(obs::IntArg("cached", 0));
      if (degraded) span.AddArg(obs::IntArg("degraded", 1));
    }
    if (!degraded &&
        config_.reschedule.mode == RescheduleMode::kIncremental) {
      std::optional<RescheduleResult> warm =
          ComputeIncremental(probs, req, cache_ok ? &key : nullptr);
      if (warm.has_value()) {
        result = std::move(*warm);
      } else {
        result = ComputeFull(probs, req, cache_ok ? &key : nullptr);
      }
    } else {
      result = ComputeFull(probs, req, cache_ok ? &key : nullptr);
    }
  }
  if (span.enabled()) {
    if (from_cache) span.AddArg(obs::IntArg("cached", 1));
    if (config_.reschedule.mode != RescheduleMode::kFull) {
      span.AddArg(obs::StrArg("tier", RescheduleTierName(result->tier)));
      span.AddArg(obs::StrArg("reason", req.reason));
    }
  }
  CountTier(result->tier);
  if (!degraded) RememberBasis(probs, result->schedule);
  const double us =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count() *
      1e-3;
  runtime::Metrics& metrics = MetricsTarget();
  metrics.Observe("reschedule.latency_us", us);
  if (result->tier != RescheduleTier::kExact) {
    metrics.Observe("reschedule.compute_latency_us", us);
  }
  return std::move(*result);
}

}  // namespace actg::adaptive
