/// \file bench_serve.cpp
/// Fleet throughput / queue latency benchmark of the serve daemon.
///
/// Replays the deterministic synthetic fleet (serve::SyntheticFleet) at
/// the requested --jobs concurrency and emits BENCH_serve.json: wall
/// time, per-SLA-class slice-latency percentiles, deterministic
/// deadline-miss counts and the schedule-cache counters. CI gates the
/// latency-critical (SLA0) p99 against the committed baseline
/// (bench/baselines/BENCH_serve.json) with generous noise headroom; the
/// deterministic fields double as a cheap fleet regression check, and
/// max RSS (when the platform reports it) backs the memory contract: no
/// tenant holds a reschedule workspace — the server lends at most one
/// per worker, per reschedule — so a live tenant costs its controller,
/// trace and summary, and a finished one its result.
///
/// --burst (benchmark only) moves every tenant's arrival to round 0, so
/// every admitted tenant is live at once; CI's live-tenant memory gate
/// compares RSS at two fleet sizes under it.
///
///   bench_serve [--jobs N] [--tenants T] [--instances I] [--seed S]
///               [--burst] [--out <file>]  (default BENCH_serve.json)

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_common.h"
#include "runtime/pool.h"
#include "serve/request.h"
#include "serve/server.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace {

using namespace actg;

void WriteSla(std::ostream& os, const serve::Server& server,
              const serve::FleetReport& report, serve::SlaClass sla) {
  const serve::LatencyStats latency = server.Latency(sla);
  const serve::SlaReport& agg =
      report.sla[static_cast<std::size_t>(sla)];
  os << "    {\"class\": \"" << serve::SlaName(sla) << "\", "
     << "\"tenants\": " << agg.tenants << ", "
     << "\"shed_tenants\": " << agg.shed_tenants << ", "
     << "\"instances\": " << agg.instances << ", "
     << "\"deadline_misses\": " << agg.deadline_misses << ", "
     << "\"slices\": " << latency.samples << ", "
     << "\"p50_ms\": " << latency.p50_ms << ", "
     << "\"p99_ms\": " << latency.p99_ms << ", "
     << "\"max_ms\": " << latency.max_ms << ", "
     << "\"budget_overruns\": " << latency.budget_overruns << "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const bool burst = cli::TakeSwitch(argc, argv, "--burst");
    const std::size_t jobs = runtime::ParseJobs(argc, argv);
    const std::size_t tenants = cli::CountFlag(argc, argv, "--tenants", 48);
    const std::size_t instances =
        cli::CountFlag(argc, argv, "--instances", 6);
    const std::size_t seed = cli::CountFlag(argc, argv, "--seed", 7);
    const std::string out_path =
        cli::StringFlag(argc, argv, "--out", "BENCH_serve.json");

    serve::FleetRequest fleet = serve::SyntheticFleet(
        tenants, instances, static_cast<std::uint64_t>(seed));
    // Stress the admission ladder: thresholds low enough that a 48+
    // tenant fleet crosses defer (and, early on, shed) territory.
    fleet.config.defer_depth = tenants * instances / 4;
    fleet.config.shed_depth = tenants * instances / 2;
    if (burst) {
      for (serve::TenantRequest& tenant : fleet.tenants) tenant.arrival = 0;
    }

    serve::ServerOptions options;
    options.jobs = jobs;
    serve::Server server(std::move(fleet), options);

    const auto begin = std::chrono::steady_clock::now();
    const serve::FleetReport& report = server.Run();
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count() *
        1e-6;

    util::AtomicFile json(out_path);
    ACTG_CHECK(json.ok(), "bench_serve: cannot write " + out_path);
    std::ostream& os = json.os();
    os << "{\n";
    os << "  \"benchmark\": \"serve\",\n";
    os << "  \"tenants\": " << tenants << ",\n";
    os << "  \"instances_per_tenant\": " << instances << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"wall_ms\": " << wall_ms << ",\n";
    os << "  \"max_rss_kb\": " << cli::MaxRssKb() << ",\n";
    os << "  \"rounds\": " << report.rounds << ",\n";
    os << "  \"shed_tenants\": " << report.shed_tenants << ",\n";
    os << "  \"deferred_rounds\": " << report.deferred_rounds << ",\n";
    os << "  \"cache\": {\"hits\": " << server.cache().hits()
       << ", \"misses\": " << server.cache().misses()
       << ", \"evictions\": " << server.cache().evictions() << "},\n";
    os << "  \"sla\": [\n";
    for (std::size_t cls = 0; cls < serve::kSlaClassCount; ++cls) {
      WriteSla(os, server, report,
               static_cast<serve::SlaClass>(cls));
      os << (cls + 1 < serve::kSlaClassCount ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    json.Commit().ThrowIfError();

    // Human summary (wall-clock, intentionally not diffable).
    std::cout << "bench_serve: " << tenants << " tenants x " << instances
              << " instances" << (burst ? " (burst)" : "") << ", jobs "
              << jobs << ", wall " << wall_ms
              << " ms, rounds " << report.rounds << ", shed "
              << report.shed_tenants << " -> " << out_path << "\n";
    for (std::size_t cls = 0; cls < serve::kSlaClassCount; ++cls) {
      const auto sla = static_cast<serve::SlaClass>(cls);
      const serve::LatencyStats latency = server.Latency(sla);
      std::cout << "  " << serve::SlaName(sla) << " p50 "
                << latency.p50_ms << " ms  p99 " << latency.p99_ms
                << " ms  misses "
                << report.sla[cls].deadline_misses << "/"
                << report.sla[cls].instances << "\n";
    }
    return 0;
  } catch (const actg::Error& e) {
    std::cerr << "bench_serve: " << e.what() << "\n";
    return 1;
  }
}
