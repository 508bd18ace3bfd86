#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "runtime/watchdog.h"
#include "util/error.h"

namespace actg::serve {

namespace {

/// Tenant id folded into cache keys: file index + 1, so id 0 keeps its
/// "shared key space" meaning for the share_cache mode.
std::uint64_t TenantId(std::size_t index) {
  return static_cast<std::uint64_t>(index) + 1;
}

}  // namespace

Server::Server(FleetRequest fleet, ServerOptions options)
    : fleet_(std::move(fleet)),
      options_(options),
      own_metrics_(options.metrics == nullptr
                       ? std::make_unique<runtime::Metrics>()
                       : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : own_metrics_.get()),
      pool_(options.jobs == 0 ? 1 : options.jobs),
      admission_(fleet_.config) {
  fleet_.Validate().ThrowIfError();
  runtime::ShardedScheduleCacheOptions cache_options;
  cache_options.shards = fleet_.config.cache_shards;
  cache_options.shard_capacity = fleet_.config.shard_capacity;
  cache_ = std::make_unique<runtime::ShardedScheduleCache>(cache_options,
                                                           metrics_);
  sessions_.resize(fleet_.tenants.size());
  arrived_.resize(fleet_.tenants.size(), false);
  quarantined_.resize(fleet_.tenants.size(), false);
  finish_round_.resize(fleet_.tenants.size(), 0);
}

void Server::AdmitArrivals(std::size_t round) {
  const util::Random root(fleet_.config.seed);
  for (std::size_t i = 0; i < fleet_.tenants.size(); ++i) {
    if (arrived_[i] || fleet_.tenants[i].arrival > round) continue;
    arrived_[i] = true;
    TenantRequest request = fleet_.tenants[i];
    if (!admission_.Admit(request.sla)) continue;  // shed: slot stays null
    if (request.seed == 0) request.seed = TenantId(i);
    SessionOptions session_options;
    const std::uint64_t tenant =
        fleet_.config.share_cache ? 0 : TenantId(i);
    session_options.cache =
        runtime::CacheBinding{&cache_->ShardFor(tenant), tenant};
    session_options.engines = &engines_;
    session_options.metrics = metrics_;
    session_options.validate = fleet_.config.validate;
    sessions_[i] = std::make_unique<Session>(
        std::move(request), session_options,
        root.Fork(static_cast<std::uint64_t>(i)));
  }
}

std::size_t Server::RunRound(std::size_t round,
                             std::vector<Session*>& dispatch) {
  std::vector<double> slice_ms(dispatch.size(), 0.0);
  const std::size_t batch = fleet_.config.batch;
  pool_.ParallelFor(
      dispatch.size(),
      [&](std::size_t i) {
        const auto begin = std::chrono::steady_clock::now();
        Session& session = *dispatch[i];
        try {
          if (session.state() == SessionState::kAdmitted) session.NewApp();
          const std::size_t n = std::min(batch, session.remaining());
          for (std::size_t k = 0; k < n; ++k) {
            session.NewInstance();
            session.InstanceComplete();
          }
          session.PeriodicCheck();
        } catch (const runtime::DeadlineExceeded&) {
          // The slice outlived its watchdog deadline: quarantine the
          // session at this event boundary and keep the round moving.
          // Its partial summary stays readable for the fleet report.
          session.Quarantine();
        }
        const auto end = std::chrono::steady_clock::now();
        slice_ms[i] =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 begin)
                .count() *
            1e-6;
      },
      options_.session_deadline_ms);

  // Serial post-processing: wall-clock observations (index-addressed,
  // so recording order is dispatch order, not completion order).
  for (std::size_t i = 0; i < dispatch.size(); ++i) {
    const SlaClass sla = dispatch[i]->sla();
    metrics_->Observe(
        "serve." + std::string(SlaLabel(sla)) + ".slice_latency_ms",
        slice_ms[i]);
    const double budget =
        fleet_.config.budget_ms[static_cast<std::size_t>(sla)];
    if (budget > 0.0 && slice_ms[i] > budget) {
      metrics_->Increment("serve." + std::string(SlaLabel(sla)) +
                          ".budget_overruns");
    }
  }

  // Retire finished sessions and drop their cache partition.
  std::size_t depth = 0;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session* session = sessions_[i].get();
    if (session == nullptr) continue;
    if (session->state() == SessionState::kQuarantined) {
      // Watchdog-deadlined: retire it here so its unfinished backlog
      // never counts toward the queue depth (a quarantined tenant must
      // not hold the fleet open) and it is never dispatched again.
      if (!quarantined_[i]) {
        quarantined_[i] = true;
        finish_round_[i] = round;
        if (!fleet_.config.share_cache) cache_->Purge(TenantId(i));
      }
      continue;
    }
    if (session->state() == SessionState::kDone) {
      finish_round_[i] = round;
      session->Shutdown();
      if (!fleet_.config.share_cache) cache_->Purge(TenantId(i));
    }
    depth += session->remaining();
  }
  return depth;
}

const FleetReport& Server::Run() {
  ACTG_CHECK(!ran_, "Server::Run is valid once");
  ran_ = true;

  std::size_t max_arrival = 0;
  for (const TenantRequest& t : fleet_.tenants) {
    max_arrival = std::max(max_arrival, t.arrival);
  }

  std::size_t round = 0;
  for (;; ++round) {
    AdmitArrivals(round);

    // Priority dispatch: SLA0 first, then SLA1, then SLA2. Background
    // is paused while the ladder is degraded — unless nothing of
    // higher priority wants the round (work-conserving rule; without
    // it a fleet whose remaining backlog is purely background could
    // hold the depth above defer_depth forever and never drain).
    std::vector<Session*> dispatch;
    std::size_t foreground = 0;
    for (std::size_t cls = 0; cls < kSlaClassCount; ++cls) {
      const SlaClass sla = static_cast<SlaClass>(cls);
      for (const std::unique_ptr<Session>& session : sessions_) {
        if (session == nullptr || session->sla() != sla) continue;
        if (session->state() != SessionState::kAdmitted &&
            session->state() != SessionState::kActive) {
          continue;
        }
        if (sla == SlaClass::kBackground &&
            !admission_.DispatchAllowed(sla) && foreground > 0) {
          continue;
        }
        dispatch.push_back(session.get());
        if (sla != SlaClass::kBackground) ++foreground;
      }
    }

    const std::size_t depth = RunRound(round, dispatch);
    admission_.Update(round, depth);
    if (depth == 0 && round >= max_arrival) break;
  }

  report_.rounds = round + 1;
  FinishReport();
  return report_;
}

void Server::FinishReport() {
  for (std::size_t i = 0; i < fleet_.tenants.size(); ++i) {
    const TenantRequest& request = fleet_.tenants[i];
    TenantReport row;
    row.name = request.name;
    row.sla = request.sla;
    row.workload = request.workload;
    row.requested = request.instances;
    row.arrival_round = request.arrival;
    const Session* session = sessions_[i].get();
    if (session == nullptr) {
      row.shed = true;
    } else {
      const sim::RunSummary& summary = session->summary();
      row.quarantined = quarantined_[i];
      row.completed = summary.instances;
      row.deadline_misses = summary.deadline_misses;
      row.energy_mj = summary.total_energy_mj;
      row.max_makespan_ms = summary.max_makespan_ms;
      // A session deadlined before NewApp has no controller yet.
      row.reschedules = session->app_built()
                            ? session->controller().reschedule_count()
                            : 0;
      row.finish_round = finish_round_[i];
    }

    SlaReport& agg = report_.sla[static_cast<std::size_t>(row.sla)];
    ++agg.tenants;
    if (row.shed) ++agg.shed_tenants;
    if (row.quarantined) {
      ++agg.quarantined_tenants;
      ++report_.quarantined_tenants;
    }
    agg.instances += row.completed;
    agg.deadline_misses += row.deadline_misses;
    agg.total_energy_mj += row.energy_mj;
    if (row.max_makespan_ms > agg.max_makespan_ms) {
      agg.max_makespan_ms = row.max_makespan_ms;
    }
    agg.reschedules += row.reschedules;
    report_.tenants.push_back(std::move(row));
  }
  report_.shed_tenants = admission_.shed_count();
  report_.deferred_rounds = admission_.deferred_rounds();
  report_.admission_log = admission_.log();

  // Deterministic per-class counters (the latency distributions above
  // are wall-clock and deliberately stay out of the report).
  for (std::size_t cls = 0; cls < kSlaClassCount; ++cls) {
    const std::string label(SlaLabel(static_cast<SlaClass>(cls)));
    metrics_->Increment("serve." + label + ".instances",
                        report_.sla[cls].instances);
    metrics_->Increment("serve." + label + ".deadline_misses",
                        report_.sla[cls].deadline_misses);
    metrics_->Increment("serve." + label + ".shed_tenants",
                        report_.sla[cls].shed_tenants);
    if (report_.sla[cls].quarantined_tenants > 0) {
      metrics_->Increment("serve." + label + ".quarantined_tenants",
                          report_.sla[cls].quarantined_tenants);
    }
  }
}

LatencyStats Server::Latency(SlaClass sla) const {
  const std::string prefix = "serve." + std::string(SlaLabel(sla));
  const std::string slices = prefix + ".slice_latency_ms";
  LatencyStats stats;
  stats.samples = metrics_->samples(slices);
  stats.p50_ms = metrics_->quantile(slices, 0.5);
  stats.p99_ms = metrics_->quantile(slices, 0.99);
  stats.max_ms = metrics_->quantile(slices, 1.0);
  stats.budget_overruns = metrics_->counter(prefix + ".budget_overruns");
  return stats;
}

void FleetReport::Write(std::ostream& os) const {
  os << "== serve fleet report ==\n";
  os << "tenants " << tenants.size() << " rounds " << rounds << " shed "
     << shed_tenants << " deferred_rounds " << deferred_rounds;
  // Quarantine annotations only when the watchdog actually fired, so a
  // watchdog-off report stays byte-identical to the legacy format.
  if (quarantined_tenants > 0) {
    os << " quarantined " << quarantined_tenants;
  }
  os << "\n";
  os << "-- sla --\n";
  for (std::size_t cls = 0; cls < kSlaClassCount; ++cls) {
    const SlaReport& agg = sla[cls];
    os << SlaName(static_cast<SlaClass>(cls)) << " tenants "
       << agg.tenants << " shed " << agg.shed_tenants << " instances "
       << agg.instances << " misses " << agg.deadline_misses
       << " energy_mj " << agg.total_energy_mj;
    if (agg.quarantined_tenants > 0) {
      os << " quarantined " << agg.quarantined_tenants;
    }
    os << "\n";
  }
  os << "-- admission --\n";
  for (const AdmissionEvent& event : admission_log) {
    os << "round " << event.round << " depth " << event.depth
       << " level " << AdmissionLevelName(event.level) << "\n";
  }
  os << "-- tenants --\n";
  for (const TenantReport& row : tenants) {
    os << row.name << " " << SlaName(row.sla) << " "
       << apps::TenantWorkloadName(row.workload);
    if (row.shed) {
      os << " shed\n";
      continue;
    }
    os << " completed " << row.completed << "/" << row.requested
       << " misses " << row.deadline_misses << " reschedules "
       << row.reschedules << " energy_mj " << row.energy_mj
       << " max_makespan_ms " << row.max_makespan_ms << " rounds "
       << row.arrival_round << ".." << row.finish_round;
    if (row.quarantined) os << " quarantined";
    os << "\n";
  }
  os << "== end ==\n";
}

util::Expected<std::unique_ptr<Server>> RunServeFile(
    std::istream& is, std::size_t jobs, std::ostream& report_os) {
  ServerOptions options;
  options.jobs = jobs;
  return RunServeFile(is, options, report_os);
}

util::Expected<std::unique_ptr<Server>> RunServeFile(
    std::istream& is, ServerOptions options, std::ostream& report_os) {
  util::Expected<FleetRequest> fleet = ParseServeFile(is);
  if (!fleet.ok()) return fleet.error();
  try {
    auto server = std::make_unique<Server>(std::move(fleet).value(),
                                           options);
    server->Run().Write(report_os);
    return server;
  } catch (const InvalidArgument& e) {
    return util::Error::Invalid(e.what());
  }
}

}  // namespace actg::serve
