/// \file controller.h
/// The adaptive scheduling and DVFS framework (paper Section III.B).
///
/// The controller executes CTG instances against the current schedule,
/// shifts every observed branch decision into a sliding window, and —
/// whenever any fork's windowed probability differs from the probability
/// the current schedule was built with by more than the threshold —
/// re-runs the online scheduling (modified DLS) and DVFS (online
/// stretching heuristic) with the new probabilities. "All the tasks will
/// be executed with their newly evaluated speed until the next threshold
/// crossing occurs."

#ifndef ACTG_ADAPTIVE_CONTROLLER_H
#define ACTG_ADAPTIVE_CONTROLLER_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/rescheduler.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "faults/injector.h"
#include "dvfs/stretch.h"
#include "obs/trace.h"
#include "profiling/window.h"
#include "runtime/schedule_cache.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/error.h"

namespace actg::adaptive {

/// Graceful-degradation ladder configuration. Disabled by default: a
/// controller without an explicit opt-in behaves exactly as before,
/// even on runs that happen to miss deadlines.
///
/// The ladder escalates deterministically on detected trouble:
///   normal --miss--> panic     (clamp the running schedule to nominal
///                               voltage; no reschedule yet)
///   panic --miss burst--> fallback (out-of-band reschedule excluding
///                               the PEs seen failing, still at nominal
///                               voltage; bounded retries, exponential
///                               backoff between them)
///   any --clean streak--> normal (restore the stretched schedule)
struct DegradeOptions {
  /// Master switch; when false every other knob is ignored.
  bool enabled = false;
  /// Number of deadline misses within burst_window instances that
  /// escalates panic to an out-of-band reschedule.
  std::size_t miss_burst = 2;
  /// Length of the sliding miss-burst window, instances.
  std::size_t burst_window = 8;
  /// Consecutive clean (deadline-met) instances required to de-escalate
  /// back to normal operation.
  std::size_t panic_instances = 16;
  /// Maximum out-of-band reschedules per degraded episode; 0 keeps the
  /// ladder at the panic rung.
  std::size_t max_reschedule_retries = 3;
  /// Instances to wait before the first out-of-band retry may repeat;
  /// doubles after every retry (exponential backoff).
  std::size_t backoff_initial = 8;

  /// Ok when the knobs are usable: with enabled set, miss_burst,
  /// burst_window, panic_instances and backoff_initial must be > 0.
  util::Error Validate() const;
};

/// Rung of the degradation ladder a controller currently operates on.
enum class DegradeLevel { kNormal = 0, kPanic = 1, kFallback = 2 };

/// One ladder transition, recorded in order (see
/// AdaptiveController::degrade_log()).
struct DegradeEvent {
  /// Instance index (instances processed before this one) at which the
  /// transition fired.
  std::uint64_t instance = 0;
  /// The rung entered.
  DegradeLevel level = DegradeLevel::kNormal;
  /// Why: "miss", "miss_burst" or "clean_streak".
  std::string reason;
};

/// Knobs of the adaptive framework.
struct AdaptiveOptions {
  /// Sliding window length L (paper: 20 for MPEG/cruise/random CTGs,
  /// 50 in the Fig. 4 illustration).
  std::size_t window_length = 20;
  /// Threshold on the windowed-vs-in-use probability difference that
  /// triggers re-scheduling (paper: 0.1 and 0.5). The distance is a
  /// maximum of absolute probability differences and therefore never
  /// exceeds 1.0, so threshold == 1.0 is a supported never-adapt
  /// sentinel: the controller degenerates to the static online
  /// algorithm (profiling still runs, reschedules never fire).
  double threshold = 0.1;
  /// Scheduler configuration (the modified DLS by default).
  sched::DlsOptions dls;
  /// Stretcher configuration.
  dvfs::StretchOptions stretch;
  /// Stretch policy applied after every (re)scheduling pass, resolved
  /// through the dvfs::Policy registry (paper: the online heuristic).
  std::string policy = "online";
  /// Explicit trace session for the controller's spans and timeline
  /// rows; when null, the process-wide obs::TraceSession::Current() is
  /// consulted per instance (so bench --trace reaches controllers built
  /// without explicit wiring).
  obs::TraceSession* trace = nullptr;
  /// Optional schedule memoization: the cache to consult and the tenant
  /// id its keys carry, in one value (see runtime::CacheBinding). When
  /// bound, every online scheduling + DVFS call first consults the
  /// exact tier (bit-exact probability match), so revisited operating
  /// points become O(1) lookups without changing any result; computed
  /// schedules are inserted back. The cache may be shared between
  /// controllers (it is thread-safe and keyed by graph/platform/config
  /// fingerprints, the policy name and the binding's tenant) and must
  /// outlive the controller.
  /// Multi-tenant servers typically bind a ShardedScheduleCache shard:
  /// CacheBinding{&sharded.ShardFor(tenant), tenant}.
  runtime::CacheBinding cache;
  /// Reschedule ladder configuration: full recompute (default) or
  /// warm-start incremental DLS (see adaptive::RescheduleOptions / the
  /// Rescheduler facade).
  RescheduleOptions reschedule;
  /// Metrics registry the controller reports its stage timers and
  /// counters into; nullptr (the default) means the process-wide
  /// runtime::Metrics::Global(). A multi-tenant host passes its own
  /// registry so thousands of coexisting controllers do not funnel
  /// through — or pollute — process-global state.
  runtime::Metrics* metrics = nullptr;
  /// Graceful-degradation ladder (off by default; see DegradeOptions).
  DegradeOptions degrade;
  /// Debug oracle: when set, every freshly computed schedule (initial,
  /// threshold-triggered and degraded reschedules alike) is passed
  /// through check::Validate with the reschedule's PE mask and speed
  /// floor as expectations, so an invariant break surfaces at the
  /// reschedule that introduced it instead of in a downstream result.
  /// Cached schedules are not re-validated (they were checked when
  /// computed). Costs one validator pass per reschedule; off by
  /// default.
  bool validate_schedules = false;

  /// Ok when every knob is usable: window_length must be positive,
  /// threshold must lie in (0, 1], the policy must be registered, and
  /// the nested dls/stretch/degrade options must validate. The
  /// controller rejects invalid options up front (constructor throws)
  /// instead of failing mid-run.
  util::Error Validate() const;
};

/// Runtime manager owning the current schedule, the profiler and the
/// in-use branch probabilities. The referenced graph/analysis/platform
/// must outlive the controller.
///
/// Reentrancy contract: a controller owns all of its mutable state (the
/// profiler, the reschedule engine, the ladder) — it holds no hidden
/// globals, so thousands of instances coexist in one process and
/// distinct instances may run on distinct threads concurrently. The
/// only process-wide services it touches are explicitly injectable:
/// the metrics registry (options.metrics, default Global()), the trace
/// session (options.trace, default Current()) and the schedule cache
/// (options.cache, default unbound); the dvfs::Policy registry is
/// resolved once at construction and policies themselves are stateless.
/// A single controller instance is NOT thread-safe — drive each one
/// from one thread at a time.
class AdaptiveController {
 public:
  AdaptiveController(const ctg::Ctg& graph,
                     const ctg::ActivationAnalysis& analysis,
                     const arch::Platform& platform,
                     ctg::BranchProbabilities initial_probs,
                     AdaptiveOptions options = {});

  /// Executes one instance with the current schedule, observes the
  /// branch decisions, and re-schedules if a threshold crossing
  /// occurred. Returns the instance's execution result.
  ///
  /// \p faults, when given, applies fault-injection effects to the
  /// execution (see sim::ExecuteInstance) and feeds the degradation
  /// ladder the instance's failed-PE set. With the ladder enabled
  /// (options.degrade.enabled) a deadline miss escalates per
  /// DegradeOptions; while degraded, the normal threshold adaptation
  /// is suspended until the ladder recovers.
  sim::InstanceResult ProcessInstance(
      const ctg::BranchAssignment& assignment,
      const faults::InstanceFaults* faults = nullptr);

  /// Number of online scheduling + DVFS invocations triggered so far
  /// (the "# of calls" columns of Tables 2, 4 and 5); the initial
  /// schedule construction is not counted. Out-of-band ladder
  /// reschedules are counted separately (oob_reschedule_count()) so the
  /// paper metric stays comparable under injection.
  std::size_t reschedule_count() const { return reschedule_count_; }

  /// Current rung of the degradation ladder (kNormal when disabled).
  DegradeLevel degrade_level() const { return level_; }

  /// Every ladder transition so far, in firing order.
  const std::vector<DegradeEvent>& degrade_log() const {
    return degrade_log_;
  }

  /// Ladder escalations (panic entries + out-of-band reschedules).
  std::size_t escalation_count() const { return escalation_count_; }

  /// Out-of-band reschedules the ladder performed.
  std::size_t oob_reschedule_count() const { return oob_reschedule_count_; }

  /// Recoveries back to normal operation.
  std::size_t recovery_count() const { return recovery_count_; }

  /// The schedule instances currently execute with.
  const sched::Schedule& current_schedule() const { return schedule_; }

  /// The branch probabilities the current schedule was built with.
  const ctg::BranchProbabilities& in_use_probabilities() const {
    return in_use_;
  }

  /// The profiler state (for figures like Fig. 4).
  const profiling::SlidingWindowProfiler& profiler() const {
    return profiler_;
  }

  /// The reschedule facade this controller drives: tier counts
  /// (exact / warm / full outcomes) and fingerprints.
  const Rescheduler& rescheduler() const { return *rescheduler_; }

 private:
  /// One reschedule through the facade (see adaptive::Rescheduler): the
  /// request carries the PE mask and speed floor, the facade owns the
  /// cache consultation and the tier ladder. Returns the schedule only;
  /// tier accounting lives in the facade.
  sched::Schedule Reschedule(const RescheduleRequest& request);
  /// The session this controller records into (explicit or current).
  obs::TraceSession* TraceTarget() const;
  /// The metrics registry this controller reports into (explicit or
  /// the process-wide Global()).
  runtime::Metrics& MetricsTarget() const;
  void RecordTimeline(obs::TraceSession& trace,
                      const ctg::BranchAssignment& assignment) const;
  /// Applies one instance's outcome to the degradation ladder. Returns
  /// true when the ladder changed the running schedule (the normal
  /// threshold adaptation then skips this instance).
  bool RunLadder(const sim::InstanceResult& result,
                 const faults::InstanceFaults* faults,
                 obs::TraceSession* trace);
  void LogDegrade(obs::TraceSession* trace, DegradeLevel level,
                  const char* reason);

  const ctg::Ctg* graph_;
  const ctg::ActivationAnalysis* analysis_;
  const arch::Platform* platform_;
  AdaptiveOptions options_;
  ctg::BranchProbabilities in_use_;
  profiling::SlidingWindowProfiler profiler_;
  // The reschedule facade: owns the cache keying, the tier ladder and
  // the reusable reschedule workspace — must precede unit_fingerprint_
  // (derived from its fingerprints) and schedule_ (whose initializer
  // runs Reschedule()). unique_ptr so the controller stays movable.
  std::unique_ptr<Rescheduler> rescheduler_;
  std::uint64_t unit_fingerprint_ = 0;
  std::uint64_t instances_processed_ = 0;
  sched::Schedule schedule_;
  std::size_t reschedule_count_ = 0;

  // Degradation-ladder state (inert while options_.degrade.enabled is
  // false).
  DegradeLevel level_ = DegradeLevel::kNormal;
  /// Speed floor the ladder currently imposes on reschedules (1.0 while
  /// degraded, 0 = unconstrained).
  double speed_floor_ = 0.0;
  /// PEs excluded from out-of-band reschedules (failed-PE sightings
  /// accumulate per degraded episode, reset on recovery).
  arch::PeMask excluded_pes_;
  /// Instance indices of recent deadline misses (pruned to the burst
  /// window).
  std::vector<std::uint64_t> recent_misses_;
  std::size_t clean_streak_ = 0;
  std::size_t retries_used_ = 0;
  std::uint64_t next_retry_instance_ = 0;
  std::vector<DegradeEvent> degrade_log_;
  std::size_t escalation_count_ = 0;
  std::size_t oob_reschedule_count_ = 0;
  std::size_t recovery_count_ = 0;
};

/// Runs a whole trace through an adaptive controller and aggregates the
/// results (the adaptive rows/series of Fig. 5 and Tables 2-5).
sim::RunSummary RunAdaptive(AdaptiveController& controller,
                            const trace::BranchTrace& trace);

/// RunAdaptive under fault injection: each instance runs with
/// \p injector's effects for its index, after branch-profile drift is
/// applied to a copy of the traced assignment. With an empty plan the
/// summary equals RunAdaptive's bit for bit.
sim::RunSummary RunAdaptiveWithFaults(AdaptiveController& controller,
                                      const trace::BranchTrace& trace,
                                      const faults::Injector& injector);

}  // namespace actg::adaptive

#endif  // ACTG_ADAPTIVE_CONTROLLER_H
