#include "adaptive/controller.h"

#include <algorithm>

#include "runtime/metrics.h"
#include "sim/energy.h"
#include "util/error.h"
#include "util/hash.h"

namespace actg::adaptive {

namespace {

/// Timeline-unit fingerprint: distinguishes controllers traced into the
/// same session (e.g. the two thresholds of one comparison run).
std::uint64_t FingerprintUnit(std::uint64_t graph_fp,
                              std::uint64_t config_fp,
                              const AdaptiveOptions& options) {
  std::uint64_t fp = util::HashCombine(graph_fp, config_fp);
  fp = util::HashCombine(fp, options.window_length);
  fp = util::HashCombine(
      fp, static_cast<std::uint64_t>(options.threshold * 1e9));
  return fp;
}

/// Validates up front so construction fails before the expensive
/// initial Reschedule() runs (the members below initialize in
/// declaration order, and schedule_'s initializer reschedules).
AdaptiveOptions Validated(AdaptiveOptions options) {
  options.Validate().ThrowIfError();
  return options;
}

/// The facade sees exactly the controller's scheduling-relevant knobs;
/// everything else (window, threshold, ladder) stays controller-side.
ReschedulerConfig MakeReschedulerConfig(const AdaptiveOptions& options) {
  ReschedulerConfig config;
  config.dls = options.dls;
  config.stretch = options.stretch;
  config.policy = options.policy;
  config.cache = options.cache;
  config.engines = options.engines;
  config.reschedule = options.reschedule;
  config.metrics = options.metrics;
  config.trace = options.trace;
  config.validate_schedules = options.validate_schedules;
  return config;
}

}  // namespace

util::Error DegradeOptions::Validate() const {
  if (!enabled) return {};
  if (miss_burst == 0) {
    return util::Error::Invalid("DegradeOptions: miss_burst must be > 0");
  }
  if (burst_window == 0) {
    return util::Error::Invalid(
        "DegradeOptions: burst_window must be > 0");
  }
  if (panic_instances == 0) {
    return util::Error::Invalid(
        "DegradeOptions: panic_instances must be > 0");
  }
  if (backoff_initial == 0) {
    return util::Error::Invalid(
        "DegradeOptions: backoff_initial must be > 0");
  }
  return {};
}

util::Error AdaptiveOptions::Validate() const {
  if (window_length == 0) {
    return util::Error::Invalid(
        "AdaptiveOptions: window_length must be > 0");
  }
  if (!(threshold > 0.0) || threshold > 1.0) {
    return util::Error::Invalid(
        "AdaptiveOptions: threshold must lie in (0, 1]");
  }
  if (dvfs::FindPolicy(policy) == nullptr) {
    return util::Error::Invalid(
        "AdaptiveOptions: unknown stretch policy '" + policy + "'");
  }
  if (util::Error err = dls.Validate()) return err;
  if (util::Error err = stretch.Validate()) return err;
  if (util::Error err = degrade.Validate()) return err;
  if (util::Error err = reschedule.Validate()) return err;
  return {};
}

AdaptiveController::AdaptiveController(
    const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
    const arch::Platform& platform, ctg::BranchProbabilities initial_probs,
    AdaptiveOptions options)
    : graph_(&graph),
      analysis_(&analysis),
      platform_(&platform),
      options_(Validated(options)),
      in_use_(std::move(initial_probs)),
      profiler_(graph, options.window_length),
      rescheduler_(std::make_unique<Rescheduler>(
          graph, analysis, platform, MakeReschedulerConfig(options_))),
      unit_fingerprint_(FingerprintUnit(rescheduler_->graph_fingerprint(),
                                        rescheduler_->config_fingerprint(),
                                        options_)),
      schedule_(Reschedule(RescheduleRequest{options_.dls.available_pes,
                                             0.0, "initial"})) {}

void AdaptiveController::Count(const char* name) const {
  if (options_.metrics != nullptr) options_.metrics->Increment(name);
}

sched::Schedule AdaptiveController::Reschedule(
    const RescheduleRequest& request) {
  return rescheduler_->Reschedule(in_use_, request).schedule;
}

void AdaptiveController::RecordTimeline(
    obs::TraceSession& trace,
    const ctg::BranchAssignment& assignment) const {
  // One row per PE: the Gantt occupancy (active tasks, scaled busy
  // time) merged with the mean DVFS stretch the instance ran with.
  const std::size_t pes = platform_->pe_count();
  std::vector<obs::TimelineRow> rows(pes);
  for (std::size_t p = 0; p < pes; ++p) {
    rows[p].unit = unit_fingerprint_;
    rows[p].iteration = instances_processed_;
    rows[p].pe = static_cast<int>(p);
    rows[p].reschedules = reschedule_count_;
  }
  std::vector<double> speed_sums(pes, 0.0);
  for (TaskId task : graph_->TaskIds()) {
    if (!analysis_->IsActive(task, assignment)) continue;
    const sched::TaskPlacement& placement = schedule_.placement(task);
    obs::TimelineRow& row = rows[placement.pe.index()];
    ++row.active_tasks;
    row.busy_ms += schedule_.ScaledWcet(task);
    speed_sums[placement.pe.index()] += placement.speed_ratio;
  }
  for (std::size_t p = 0; p < pes; ++p) {
    rows[p].mean_speed_ratio =
        rows[p].active_tasks > 0 ? speed_sums[p] / rows[p].active_tasks
                                 : 1.0;
    trace.AddTimelineRow(rows[p]);
  }
}

sim::InstanceResult AdaptiveController::ProcessInstance(
    const ctg::BranchAssignment& assignment,
    const faults::InstanceFaults* faults) {
  obs::TraceSession* const trace = obs::Recording(options_.trace);
  obs::ScopedSpan span(trace, "adaptive.instance", "adaptive");
  if (span.enabled()) {
    span.AddArg(obs::IntArg(
        "iteration", static_cast<std::int64_t>(instances_processed_)));
  }

  // Execute with the schedule in effect; decisions become observable
  // only as the instance runs, so adaptation applies from the next
  // instance on.
  const sim::InstanceResult result =
      sim::ExecuteInstance(schedule_, assignment, faults, trace);

  // Timeline rows describe the schedule the instance just executed
  // with, before any adaptation below replaces it.
  if (trace != nullptr) RecordTimeline(*trace, assignment);

  profiler_.ObserveInstance(*analysis_, assignment);

  // The degradation ladder reacts to the instance outcome first; while
  // degraded (and on the instance a ladder transition fires) the normal
  // threshold adaptation is suspended — the ladder owns the schedule
  // until it recovers.
  bool ladder_acted = false;
  if (options_.degrade.enabled) {
    ladder_acted = RunLadder(result, faults, trace);
  }
  const bool adapt_suspended =
      ladder_acted || level_ != DegradeLevel::kNormal;

  // Threshold detector: any fork whose full window deviates from the
  // in-use probability by more than the threshold triggers one online
  // scheduling + DVFS call with the windowed distributions.
  bool crossed = false;
  if (!adapt_suspended) {
    for (TaskId fork : graph_->ForkIds()) {
      if (!profiler_.Full(fork)) continue;
      const double distance = profiling::DistributionDistance(
          profiler_.WindowedDistribution(fork),
          [&] {
            std::vector<double> dist(
                static_cast<std::size_t>(graph_->OutcomeCount(fork)));
            for (int o = 0; o < graph_->OutcomeCount(fork); ++o) {
              dist[static_cast<std::size_t>(o)] = in_use_.Outcome(fork, o);
            }
            return dist;
          }());
      if (distance > options_.threshold) {
        crossed = true;
        break;
      }
    }
  }
  if (crossed) {
    for (TaskId fork : graph_->ForkIds()) {
      if (profiler_.Full(fork)) {
        in_use_.Set(fork, profiler_.WindowedDistribution(fork));
      }
    }
    // One online scheduling + DVFS call. The candidate replaces the
    // running schedule only when it improves the expected energy under
    // the new distribution estimate: the windowed estimate is noisy
    // (stddev ~ sqrt(p(1-p)/L)), and blindly adopting every candidate
    // would let sampling noise undo the adaptation gains. Both
    // schedules are judged on one evaluation of that estimate.
    sched::Schedule candidate = Reschedule(
        RescheduleRequest{options_.dls.available_pes, 0.0, "threshold"});
    ++reschedule_count_;
    Count("adaptive.reschedule_calls");
    const ctg::ActivationProbabilities p = analysis_->Evaluate(in_use_);
    if (sim::ExpectedEnergy(candidate, p) <
        sim::ExpectedEnergy(schedule_, p)) {
      schedule_ = std::move(candidate);
    }
  }
  // Sampled every instance so the counter track starts at zero and
  // plateaus are visible between reschedules.
  if (trace != nullptr) {
    trace->Counter("adaptive.reschedule_calls", "adaptive",
                   static_cast<double>(reschedule_count_));
  }
  ++instances_processed_;
  return result;
}

void AdaptiveController::LogDegrade(obs::TraceSession* trace,
                                    DegradeLevel level,
                                    const char* reason) {
  degrade_log_.push_back(
      DegradeEvent{instances_processed_, level, reason});
  if (trace != nullptr) {
    trace->Instant(
        "degrade.transition", "adaptive",
        {obs::IntArg("level", static_cast<std::int64_t>(level)),
         obs::StrArg("reason", reason),
         obs::IntArg("iteration",
                     static_cast<std::int64_t>(instances_processed_))});
  }
}

bool AdaptiveController::RunLadder(const sim::InstanceResult& result,
                                   const faults::InstanceFaults* faults,
                                   obs::TraceSession* trace) {
  const DegradeOptions& opts = options_.degrade;

  // Failed-PE sightings accumulate over the degraded episode so an
  // out-of-band reschedule avoids every PE seen failing, not only the
  // ones failing on the triggering instance. Never accumulate past the
  // point of leaving DLS no PE to place on.
  if (faults != nullptr && faults->failed_pes != 0) {
    const std::uint64_t combined = excluded_pes_.removed_bits() |
                                   faults->failed_pes |
                                   options_.dls.available_pes.removed_bits();
    if (arch::PeMask::WithoutBits(combined).CountAvailable(
            platform_->pe_count()) > 0) {
      excluded_pes_ = arch::PeMask::WithoutBits(
          excluded_pes_.removed_bits() | faults->failed_pes);
    }
  }

  if (result.deadline_met) {
    if (level_ == DegradeLevel::kNormal) return false;
    ++clean_streak_;
    if (clean_streak_ < opts.panic_instances) return false;
    // Recover: restore the stretched schedule for the in-use
    // distribution (a cache hit when that operating point was seen
    // before) and reset the episode state.
    level_ = DegradeLevel::kNormal;
    speed_floor_ = 0.0;
    excluded_pes_ = arch::PeMask();
    recent_misses_.clear();
    clean_streak_ = 0;
    retries_used_ = 0;
    next_retry_instance_ = 0;
    schedule_ = Reschedule(
        RescheduleRequest{options_.dls.available_pes, 0.0, "recovery"});
    ++recovery_count_;
    Count("degrade.recoveries");
    LogDegrade(trace, DegradeLevel::kNormal, "clean_streak");
    return true;
  }

  // Deadline miss: reset the clean streak, slide the burst window.
  clean_streak_ = 0;
  recent_misses_.push_back(instances_processed_);
  const std::uint64_t window_start =
      instances_processed_ >= opts.burst_window - 1
          ? instances_processed_ - (opts.burst_window - 1)
          : 0;
  while (!recent_misses_.empty() &&
         recent_misses_.front() < window_start) {
    recent_misses_.erase(recent_misses_.begin());
  }

  if (level_ == DegradeLevel::kNormal) {
    // First rung: panic to nominal voltage. The running schedule keeps
    // its mapping and ordering; every stretched task snaps back to
    // full speed, which only shortens paths.
    bool changed = false;
    for (TaskId task : graph_->TaskIds()) {
      sched::TaskPlacement& placement = schedule_.placement(task);
      if (placement.speed_ratio < 1.0) {
        placement.speed_ratio = 1.0;
        changed = true;
      }
    }
    if (changed) schedule_.RecomputeTimes();
    level_ = DegradeLevel::kPanic;
    speed_floor_ = 1.0;
    ++escalation_count_;
    Count("degrade.escalations");
    Count("degrade.panic_entries");
    LogDegrade(trace, DegradeLevel::kPanic, "miss");
    return true;
  }

  // Already degraded: a miss burst escalates to an out-of-band
  // reschedule, bounded by the retry budget with exponential backoff
  // between retries.
  if (recent_misses_.size() < opts.miss_burst) return false;
  if (retries_used_ >= opts.max_reschedule_retries) return false;
  if (instances_processed_ < next_retry_instance_) return false;

  ++retries_used_;
  const std::size_t shift = std::min<std::size_t>(retries_used_ - 1, 20);
  next_retry_instance_ =
      instances_processed_ + (opts.backoff_initial << shift);
  // Refresh the in-use distribution from the window first: the burst
  // may stem from drifted branch profiles, not only injected overruns.
  for (TaskId fork : graph_->ForkIds()) {
    if (profiler_.Full(fork)) {
      in_use_.Set(fork, profiler_.WindowedDistribution(fork));
    }
  }
  const arch::PeMask oob_mask = arch::PeMask::WithoutBits(
      options_.dls.available_pes.removed_bits() |
      excluded_pes_.removed_bits());
  schedule_ = Reschedule(
      RescheduleRequest{oob_mask, speed_floor_, "degraded"});
  recent_misses_.clear();
  level_ = DegradeLevel::kFallback;
  ++escalation_count_;
  ++oob_reschedule_count_;
  Count("degrade.escalations");
  Count("degrade.oob_reschedules");
  LogDegrade(trace, DegradeLevel::kFallback, "miss_burst");
  return true;
}

sim::RunSummary RunAdaptive(AdaptiveController& controller,
                            const trace::BranchTrace& trace,
                            const faults::Injector* injector) {
  sim::RunSummary summary;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (injector == nullptr) {
      summary.Add(controller.ProcessInstance(trace.At(i)));
      continue;
    }
    const faults::InstanceFaults f = injector->ForInstance(i);
    ctg::BranchAssignment assignment = trace.At(i);
    injector->ApplyDrift(i, assignment);
    summary.Add(controller.ProcessInstance(assignment, &f));
  }
  return summary;
}

}  // namespace actg::adaptive
