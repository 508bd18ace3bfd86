/// \file bench_campaign.cpp
/// Fleet-scale throughput benchmark of the Monte-Carlo campaign runner.
///
/// Runs the deterministic synthetic campaign
/// (campaign::SyntheticCampaign) at the requested --jobs concurrency
/// and emits BENCH_campaign.json: wall time, app-instances-per-second
/// throughput, the deterministic fleet counters and the
/// reschedule-latency percentiles. CI gates the throughput against the
/// committed baseline (bench/baselines/BENCH_campaign.json) with
/// generous noise headroom; the deterministic fields double as a cheap
/// population regression check, and max RSS (when the platform reports
/// it) documents the O(shards x cells x distinct histogram buckets)
/// memory contract.
///
///   bench_campaign [--jobs N] [--instances I] [--shards S] [--seed X]
///                  [--out <file>]      (default BENCH_campaign.json)

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "cli_common.h"
#include "runtime/pool.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace {

using namespace actg;

/// Peak resident set in KiB, or 0 where getrusage is unavailable.
long MaxRssKb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::size_t jobs = runtime::ParseJobs(argc, argv);
    const std::size_t instances =
        cli::CountFlag(argc, argv, "--instances", 20000);
    const std::size_t shards = cli::CountFlag(argc, argv, "--shards", 32);
    const std::uint64_t seed = cli::SeedFlag(argc, argv, 7);
    const std::string out_path =
        cli::StringFlag(argc, argv, "--out", "BENCH_campaign.json");

    campaign::CampaignSpec spec =
        campaign::SyntheticCampaign(instances, seed);
    spec.shards = shards;

    campaign::CampaignOptions options;
    options.jobs = jobs;
    campaign::Campaign run(std::move(spec), options);

    const auto begin = std::chrono::steady_clock::now();
    const campaign::CampaignResult& result = run.Run();
    const auto end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count() *
        1e-6;
    const double instances_per_sec =
        wall_ms > 0.0 ? static_cast<double>(instances) / (wall_ms * 1e-3)
                      : 0.0;

    std::size_t oracle_validations = 0;
    for (const campaign::ShardExecution& shard : result.shards) {
      oracle_validations += shard.oracle_validations;
    }
    const report::LatencyStats latency = run.RescheduleLatency();

    util::AtomicFile json(out_path);
    ACTG_CHECK(json.ok(), "bench_campaign: cannot write " + out_path);
    std::ostream& os = json.os();
    os << "{\n";
    os << "  \"benchmark\": \"campaign\",\n";
    os << "  \"instances\": " << instances << ",\n";
    os << "  \"shards\": " << result.spec.shards << ",\n";
    os << "  \"cells\": " << result.keys.size() << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"wall_ms\": " << wall_ms << ",\n";
    os << "  \"instances_per_sec\": " << instances_per_sec << ",\n";
    os << "  \"max_rss_kb\": " << MaxRssKb() << ",\n";
    os << "  \"executions\": " << result.fleet.instances << ",\n";
    os << "  \"deadline_misses\": " << result.fleet.deadline_misses
       << ",\n";
    os << "  \"miss_rate\": " << result.fleet.MissRate() << ",\n";
    os << "  \"total_energy_mj\": " << result.fleet.total_energy_mj
       << ",\n";
    os << "  \"max_makespan_ms\": " << result.fleet.max_makespan_ms
       << ",\n";
    os << "  \"reschedules\": " << result.fleet.reschedules << ",\n";
    os << "  \"oracle_sampled\": " << result.oracle_sampled << ",\n";
    os << "  \"oracle_validations\": " << oracle_validations << ",\n";
    os << "  \"tiers\": {\"exact\": " << result.tiers.exact
       << ", \"warm_cache\": " << result.tiers.warm_cache
       << ", \"warm_prior\": " << result.tiers.warm_prior
       << ", \"table\": " << result.tiers.table
       << ", \"full\": " << result.tiers.full
       << ", \"fallbacks\": " << result.tiers.incremental_fallbacks
       << "},\n";
    os << "  \"reschedule_latency\": {\"samples\": " << latency.samples
       << ", \"p50_ms\": " << latency.p50_ms
       << ", \"p99_ms\": " << latency.p99_ms
       << ", \"max_ms\": " << latency.max_ms << "}\n";
    os << "}\n";
    json.Commit().ThrowIfError();

    // Human summary (wall-clock, intentionally not diffable).
    std::cout << "bench_campaign: " << instances << " instances x "
              << result.keys.size() << " cells, shards "
              << result.spec.shards << ", jobs " << jobs << ", wall "
              << wall_ms << " ms (" << instances_per_sec
              << " instances/s), rss " << MaxRssKb() << " KiB -> "
              << out_path << "\n";
    std::cout << "  miss_rate " << result.fleet.MissRate() << "  energy "
              << result.fleet.total_energy_mj << " mJ  reschedules "
              << result.fleet.reschedules << "  oracle "
              << oracle_validations << " (" << result.oracle_sampled
              << " sampled)\n";
    return 0;
  } catch (const actg::Error& e) {
    std::cerr << "bench_campaign: " << e.what() << "\n";
    return 1;
  }
}
