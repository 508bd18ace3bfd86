/// \file session.h
/// One tenant's lifetime inside the serve daemon.
///
/// A Session is a small state machine driven by the daemon's event API:
///
///   NewApp            builds the tenant's application model, draws its
///                     branch trace from the tenant's Random substream
///                     and constructs the adaptive controller (the
///                     expensive step — dispatched to the pool).
///   NewInstance       executes the next CTG instance through the
///                     controller and stashes the result.
///   InstanceComplete  consumes the stashed result into the running
///                     summary (ack of the previous NewInstance).
///   PeriodicCheck     health probe: snapshots progress, reschedule
///                     count and ladder rung without executing anything.
///   Shutdown          finalizes the session; afterwards every event is
///                     rejected.
///
/// A session holds no reschedule workspace, live or ended: its
/// controller leases one from the server's dvfs::EnginePool
/// (SessionOptions::engines) for each reschedule that misses the exact
/// tier and returns it when that reschedule ends. A session that ends
/// (Shutdown or Quarantine) keeps its result: the summary, the model,
/// the trace and the controller's current schedule and counters stay
/// readable for the fleet report and the post-run oracle. What it keeps
/// is small: an MPEG or cruise session shares its app's one immutable
/// model with every other tenant of that app (apps::TenantModel), and
/// its trace holds one byte per deciding fork per instance
/// (trace::BranchTrace).
///
/// Out-of-order events (NewInstance before NewApp, InstanceComplete
/// without a pending result, anything after Shutdown, a second NewApp)
/// throw actg::InvalidArgument — the daemon's dispatch loop is expected
/// to be well-formed and the tests pin these diagnostics.
///
/// NewApp and NewInstance are also the session's cooperative watchdog
/// check points (runtime::CheckDeadline): when the dispatching pool
/// armed a per-job deadline and it has passed, the event throws
/// runtime::DeadlineExceeded at that boundary and the server
/// quarantines the session instead of letting it stall the round.
///
/// A session owns its trace and controller and is driven by one thread
/// at a time; distinct sessions may run on distinct pool workers
/// concurrently (see the AdaptiveController reentrancy contract). A
/// shared model is immutable, so concurrent sessions only read it, and
/// the engine pool is thread-safe.

#ifndef ACTG_SERVE_SESSION_H
#define ACTG_SERVE_SESSION_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "adaptive/controller.h"
#include "apps/tenants.h"
#include "serve/request.h"
#include "serve/sla.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace actg::serve {

/// Lifecycle rungs of a session.
enum class SessionState {
  kAdmitted,     ///< admitted, model not built yet (before NewApp)
  kActive,       ///< model built, instances executing
  kDone,         ///< all requested instances completed
  kShutdown,     ///< finalized; rejects every further event
  kQuarantined,  ///< watchdog-deadlined; terminal like kShutdown
};

/// Snapshot returned by PeriodicCheck.
struct SessionStatus {
  std::size_t completed = 0;
  std::size_t remaining = 0;
  std::size_t reschedules = 0;
  adaptive::DegradeLevel degrade_level = adaptive::DegradeLevel::kNormal;
};

/// Shared wiring a session receives from its server.
struct SessionOptions {
  /// Schedule cache binding this tenant's controller consults: the
  /// shard and the tenant id its keys carry, in one value. Default
  /// (unbound) disables memoization.
  runtime::CacheBinding cache;
  /// Pool the controller leases its reschedule workspace from; null
  /// gives it a private pool of one. Must outlive the session.
  dvfs::EnginePool* engines = nullptr;
  /// Metrics registry the controller reports into; null records
  /// nothing.
  runtime::Metrics* metrics = nullptr;
  /// Oracle: validate every freshly computed schedule.
  bool validate = false;
};

class Session {
 public:
  /// Admits \p request. \p rng must be the tenant's own Fork substream
  /// of the fleet seed — it fully determines the trace, so session
  /// results are independent of dispatch interleaving.
  Session(TenantRequest request, SessionOptions options, util::Random rng);

  // -- Event API ----------------------------------------------------

  /// Builds model + trace + controller. Valid once, in kAdmitted.
  void NewApp();

  /// Executes the next instance; the result stays pending until
  /// InstanceComplete. Valid in kActive with no pending result and
  /// remaining() > 0.
  const sim::InstanceResult& NewInstance();

  /// Acknowledges the pending instance into the summary and returns it.
  sim::InstanceResult InstanceComplete();

  /// Health probe; valid in kActive or kDone.
  SessionStatus PeriodicCheck() const;

  /// Finalizes the session (any state except kShutdown or kQuarantined;
  /// a pending unacknowledged instance is rejected).
  void Shutdown();

  /// Marks the session watchdog-quarantined: its dispatcher caught
  /// runtime::DeadlineExceeded from one of its events (NewApp and
  /// NewInstance are the cooperative check points). Terminal — every
  /// further event is rejected; the partial summary stays readable so
  /// the fleet report can account for what completed before the stall.
  void Quarantine();

  // -- Accessors ----------------------------------------------------

  const TenantRequest& request() const { return request_; }
  const std::string& name() const { return request_.name; }
  SlaClass sla() const { return request_.sla; }
  SessionState state() const { return state_; }
  /// True once NewApp built the model/controller (false for a session
  /// quarantined before its app came up).
  bool app_built() const { return controller_ != nullptr; }
  std::size_t completed() const { return summary_.instances; }
  std::size_t remaining() const {
    return request_.instances - summary_.instances;
  }
  const sim::RunSummary& summary() const { return summary_; }

  /// The tenant's model/controller; valid from NewApp on (throws
  /// InvalidArgument before that), including after Shutdown — the
  /// oracle tests re-validate sampled instances of a finished fleet
  /// against check::Validate.
  const apps::TenantModel& model() const;
  const adaptive::AdaptiveController& controller() const;
  /// Branch assignment of instance \p index of the tenant's trace,
  /// rebuilt from the trace's bytes (BranchTrace::At).
  ctg::BranchAssignment assignment(std::size_t index) const;

 private:
  [[noreturn]] void Reject(const char* event, const char* why) const;

  TenantRequest request_;
  SessionOptions options_;
  util::Random rng_;
  SessionState state_ = SessionState::kAdmitted;
  std::unique_ptr<apps::TenantModel> model_;
  std::unique_ptr<adaptive::AdaptiveController> controller_;
  trace::BranchTrace trace_;
  std::size_t next_instance_ = 0;
  std::optional<sim::InstanceResult> pending_;
  sim::RunSummary summary_;
};

}  // namespace actg::serve

#endif  // ACTG_SERVE_SESSION_H
