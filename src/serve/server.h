/// \file server.h
/// The multi-tenant scheduling-as-a-service dispatch loop.
///
/// A Server replays one FleetRequest: it admits tenants at their
/// arrival rounds (through the AdmissionController), drives every
/// admitted Session through the event API in fixed-size batches on a
/// runtime::Pool, and aggregates a FleetReport.
///
/// Determinism contract (the property the golden tests pin): the
/// report is byte-identical for any --jobs count, because
///  * each session's trace comes from its own Random::Fork substream of
///    the fleet seed (tenant index as the stream id);
///  * the pool only decides *where* a session's round slice runs, never
///    what it computes — sessions own their state and the schedule
///    cache is exact-match (a hit returns precisely what the miss would
///    have computed);
///  * admission decisions depend only on the deterministic queue depth,
///    updated serially at round end;
///  * wall-clock latencies are recorded per round slice into
///    index-addressed slots and surfaced only through the metrics
///    registry / bench JSON, never the report.

#ifndef ACTG_SERVE_SERVER_H
#define ACTG_SERVE_SERVER_H

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "report/fleet_stats.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/session.h"
#include "serve/sla.h"

namespace actg::serve {

/// Final state of one tenant in the fleet report.
struct TenantReport {
  std::string name;
  SlaClass sla = SlaClass::kThroughput;
  apps::TenantWorkload workload = apps::TenantWorkload::kRandomForkJoin;
  /// True when admission rejected the tenant (SLA2 under shed); every
  /// numeric field below stays zero.
  bool shed = false;
  /// True when the watchdog deadlined the tenant's session mid-fleet
  /// (ServerOptions::session_deadline_ms); the numeric fields hold the
  /// partial progress it made before quarantine.
  bool quarantined = false;
  std::size_t requested = 0;
  std::size_t completed = 0;
  std::size_t deadline_misses = 0;
  std::size_t reschedules = 0;
  double energy_mj = 0.0;
  double max_makespan_ms = 0.0;
  std::size_t arrival_round = 0;
  std::size_t finish_round = 0;
};

/// Per-SLA-class aggregate of the deterministic report. The shared
/// instance/miss/energy fields and MissRate() come from
/// report::FleetStats (the vocabulary the simulator and the campaign
/// runner also speak); this report adds the tenant counts only the
/// daemon tracks.
struct SlaReport : report::FleetStats {
  std::size_t tenants = 0;
  std::size_t shed_tenants = 0;
  std::size_t quarantined_tenants = 0;
};

/// The deterministic outcome of a fleet replay.
struct FleetReport {
  std::vector<TenantReport> tenants;  ///< file order
  std::array<SlaReport, kSlaClassCount> sla;
  std::size_t rounds = 0;
  std::size_t shed_tenants = 0;
  std::size_t deferred_rounds = 0;
  /// Sessions the watchdog deadlined (0 whenever deadlines are off).
  std::size_t quarantined_tenants = 0;
  std::vector<AdmissionEvent> admission_log;

  /// Renders the report as deterministic text (the golden artifact the
  /// --jobs 1 vs --jobs 8 tests byte-compare). Quarantine annotations
  /// appear only when quarantined_tenants > 0, so watchdog-off reports
  /// stay byte-identical to the pre-watchdog format.
  void Write(std::ostream& os) const;
};

/// Wall-clock percentile summary of one SLA class (not deterministic;
/// reported via metrics/JSON only). One sample = one dispatch-round
/// slice. The struct is the shared report::LatencyStats so serve slice
/// latencies and campaign reschedule latencies carry the same fields.
using LatencyStats = report::LatencyStats;

struct ServerOptions {
  /// Pool concurrency (--jobs); 1 = serial.
  std::size_t jobs = 1;
  /// Metrics registry for latency distributions, per-class counters and
  /// the controllers' stage timers; null = a server-private registry
  /// (the daemon never pollutes Global() by default).
  runtime::Metrics* metrics = nullptr;
  /// Cooperative watchdog deadline for one session's dispatch-round
  /// slice, wall-clock milliseconds; 0 = off (the default — armed
  /// deadlines make the report timing-dependent, see
  /// runtime/watchdog.h). A session whose slice outlives the deadline
  /// throws DeadlineExceeded at its next event boundary and is
  /// quarantined instead of stalling the round.
  double session_deadline_ms = 0.0;
};

class Server {
 public:
  /// Validates \p fleet up front (throws InvalidArgument when broken).
  Server(FleetRequest fleet, ServerOptions options = {});

  /// Replays the whole fleet to completion and returns the report.
  /// Valid once.
  const FleetReport& Run();

  const FleetReport& report() const { return report_; }
  const AdmissionController& admission() const { return admission_; }
  runtime::ShardedScheduleCache& cache() { return *cache_; }
  runtime::Metrics& metrics() { return *metrics_; }

  /// Wall-clock latency percentiles of \p sla over the completed run,
  /// read from the registry's serve.<sla>.slice_latency_ms distribution
  /// and serve.<sla>.budget_overruns counter (so a registry shared by
  /// several servers reports their union).
  LatencyStats Latency(SlaClass sla) const;

  /// The live sessions in tenant-file order; a shed tenant's slot is
  /// null. Sessions outlive Run() so oracle tests can re-validate
  /// sampled instances (Session::model()/controller()/assignment()).
  const std::vector<std::unique_ptr<Session>>& sessions() const {
    return sessions_;
  }

 private:
  /// Executes one dispatch round; returns the end-of-round queue depth.
  std::size_t RunRound(std::size_t round,
                       std::vector<Session*>& dispatch);
  void AdmitArrivals(std::size_t round);
  void FinishReport();

  FleetRequest fleet_;
  ServerOptions options_;
  std::unique_ptr<runtime::Metrics> own_metrics_;
  runtime::Metrics* metrics_;
  std::unique_ptr<runtime::ShardedScheduleCache> cache_;
  runtime::Pool pool_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< null when shed
  std::vector<bool> arrived_;
  std::vector<bool> quarantined_;  ///< retired by the watchdog
  std::vector<std::size_t> finish_round_;
  FleetReport report_;
  bool ran_ = false;
};

/// Convenience: parse + replay \p is with \p jobs workers, writing the
/// deterministic report to \p report_os. Returns the server (report,
/// latencies, cache stats) for callers that want more than the text.
util::Expected<std::unique_ptr<Server>> RunServeFile(std::istream& is,
                                                     std::size_t jobs,
                                                     std::ostream& report_os);

/// RunServeFile with full server options (the actg_serve front end's
/// entry point — --session-deadline arms the watchdog).
util::Expected<std::unique_ptr<Server>> RunServeFile(std::istream& is,
                                                     ServerOptions options,
                                                     std::ostream& report_os);

}  // namespace actg::serve

#endif  // ACTG_SERVE_SERVER_H
