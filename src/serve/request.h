/// \file request.h
/// The serve-v1 request file format and its in-memory form.
///
/// A request file describes one fleet workload for the actg_serve
/// daemon: the daemon-wide configuration (RNG root seed, cache
/// sharding, dispatch batching, admission-control thresholds,
/// per-class wall-clock budgets) followed by one `tenant` line per
/// application to admit. Replaying the same file at any --jobs count
/// produces a bit-identical fleet report: every tenant's trace is drawn
/// from a util::Random::Fork substream of the root seed, and all
/// admission decisions depend only on deterministic queue depths.
///
/// The format follows the shared line grammar of util/line_reader.h
/// ('#' comments, blank lines ignored, exact integers), parses into
/// util::Expected with "serve line N: ..." diagnostics, and every parsed
/// object Validates() up front.

#ifndef ACTG_SERVE_REQUEST_H
#define ACTG_SERVE_REQUEST_H

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "apps/tenants.h"
#include "serve/sla.h"
#include "util/error.h"

namespace actg::serve {

/// One tenant's admission request.
struct TenantRequest {
  /// Unique tenant name (report row key).
  std::string name;
  SlaClass sla = SlaClass::kThroughput;
  apps::TenantWorkload workload = apps::TenantWorkload::kRandomForkJoin;
  /// CTG instances the tenant wants executed. Must be > 0.
  std::size_t instances = 0;
  /// Model seed (structure of the random categories, profile variant of
  /// the bundled apps). 0 means "derive from the tenant index".
  std::uint64_t seed = 0;
  /// Daemon round at which the request arrives.
  std::size_t arrival = 0;
  /// Adaptive-controller knobs (see adaptive::AdaptiveOptions).
  double threshold = 0.1;
  std::size_t window = 20;
  std::string policy = "online";

  /// Ok when the request is runnable: non-empty name, instances > 0,
  /// threshold in (0, 1], window > 0, known policy.
  util::Error Validate() const;
};

/// Daemon-wide configuration.
struct ServeConfig {
  /// Root of every per-tenant Random::Fork substream.
  std::uint64_t seed = 1;
  /// Schedule-cache sharding (see runtime::ShardedScheduleCache).
  std::size_t cache_shards = 8;
  std::size_t shard_capacity = 64;
  /// When true every tenant keys the cache with tenant 0: explicit
  /// cross-tenant sharing (identical graphs/configs hit each other's
  /// entries; full-mode results are unchanged by the cache's exactness
  /// contract, see runtime/schedule_cache.h).
  /// When false (default) the key space is tenant-partitioned and a
  /// session shutdown purges exactly its own entries.
  bool share_cache = false;
  /// CTG instances dispatched per active tenant per round.
  std::size_t batch = 4;
  /// Admission ladder thresholds on the deterministic queue depth (the
  /// total backlog of admitted-but-unfinished instances): above
  /// defer_depth background dispatch pauses; above shed_depth newly
  /// arriving background tenants are rejected outright.
  std::size_t defer_depth = 256;
  std::size_t shed_depth = 512;
  /// Consecutive rounds the depth must stay at or below defer_depth
  /// before a degraded admission level steps back toward open.
  std::size_t recover_rounds = 2;
  /// Wall-clock per-slice latency budgets per SLA class, ms; 0 = none.
  /// Budget overruns are *reported* (metrics counter
  /// "serve.<sla>.budget_overruns" and the bench gate) but never feed
  /// back into scheduling decisions — wall-clock must not influence the
  /// deterministic fleet report.
  std::array<double, kSlaClassCount> budget_ms = {0.0, 0.0, 0.0};
  /// Debug oracle: validate every freshly computed schedule of every
  /// tenant (adaptive::AdaptiveOptions::validate_schedules).
  bool validate = false;

  /// Ok when batch, cache_shards and recover_rounds are positive and
  /// defer_depth <= shed_depth (both positive).
  util::Error Validate() const;
};

/// A parsed serve-v1 file: configuration + tenants in file order.
struct FleetRequest {
  ServeConfig config;
  std::vector<TenantRequest> tenants;

  /// Ok when the config and every tenant validate, at least one tenant
  /// is present and tenant names are unique (the first repeat in tenant
  /// order is reported). Linear in the tenant count.
  util::Error Validate() const;
};

/// Parses the line-oriented serve-v1 format:
///
///   serve v1
///   seed <uint64>                 # optional, default 1
///   shards <n>                    # optional, default 8
///   shard_capacity <n>            # optional, default 64
///   share_cache <0|1>             # optional, default 0
///   batch <n>                     # optional, default 4
///   defer_depth <n>               # optional, default 256
///   shed_depth <n>                # optional, default 512
///   recover_rounds <n>            # optional, default 2
///   budget <sla> <ms>             # optional, per-class wall budget
///   tenant <name> <sla> <workload> <instances> [key=value ...]
///   end
///
/// Tenant keys: seed=<uint64> arrival=<round> threshold=<t>
/// window=<len> policy=<name>. Workloads: mpeg, cruise, random1
/// (fork-join), random2 (flat). SLA classes: SLA0/latency_critical,
/// SLA1/throughput, SLA2/background. Seeds and counts are exact
/// unsigned integers, flags 0 or 1. Malformed input is reported as a
/// util::Error with a "serve line N: ..." diagnostic.
util::Expected<FleetRequest> ParseServeFile(std::istream& is);

/// Serializes \p fleet in the ParseServeFile format; it reads back to
/// the same fleet, doubles bit for bit (util::FormatNumber).
void WriteServeFile(std::ostream& os, const FleetRequest& fleet);

/// Deterministic synthetic fleet used by bench_serve and the
/// determinism tests: \p tenants tenants cycling through the workload
/// families and SLA classes, arrivals staggered every 4 tenants,
/// \p instances CTG instances each.
FleetRequest SyntheticFleet(std::size_t tenants, std::size_t instances,
                            std::uint64_t seed);

}  // namespace actg::serve

#endif  // ACTG_SERVE_REQUEST_H
