/// \file bench_reschedule.cpp
/// Reschedule-latency benchmark of the adaptive::Rescheduler tiers.
///
/// Drives one Rescheduler per mode (full / incremental) over
/// the same oscillating-probability trace — a sinusoid on the fork with
/// the smallest dirty region, so consecutive operating points are
/// distinct (the exact tier never hits) but differ at exactly one fork
/// (the warm-start path pins most of the graph) — and emits
/// BENCH_reschedule.json: per-mode latency percentiles, tier counts and
/// cache counters. The tier counts and cache counters are fully
/// deterministic and double as a regression check against the committed
/// baseline (bench/baselines/BENCH_reschedule.json); CI additionally
/// gates the warm-start win (full compute-p50 over incremental
/// compute-p50 must stay >= 2x).
///
///   bench_reschedule [--steps N] [--seed S] [--tasks T] [--pes P]
///                    [--forks F] [--out <file>]
///                    (default BENCH_reschedule.json)

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "ctg/activation.h"
#include "runtime/metrics.h"
#include "runtime/schedule_cache.h"
#include "sched/incremental.h"
#include "tgff/random_ctg.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace {

using namespace actg;

/// \p base with \p fork's distribution replaced by {p, rest uniform}.
ctg::BranchProbabilities WithForkAt(const ctg::Ctg& graph,
                                    const ctg::BranchProbabilities& base,
                                    TaskId fork, double p) {
  ctg::BranchProbabilities probs = base;
  const auto outcomes =
      static_cast<std::size_t>(graph.OutcomeCount(fork));
  std::vector<double> dist(outcomes, (1.0 - p) / (outcomes - 1));
  dist[0] = p;
  probs.Set(fork, std::move(dist));
  return probs;
}

/// The fork whose probability change dirties the fewest tasks — the
/// oscillation axis that shows the warm-start payoff best.
TaskId PickOscillatingFork(const ctg::Ctg& graph,
                           const ctg::ActivationAnalysis& analysis,
                           const ctg::BranchProbabilities& base) {
  TaskId best = graph.ForkIds().front();
  std::size_t best_dirty = graph.task_count() + 1;
  for (TaskId fork : graph.ForkIds()) {
    const sched::IncrementalDelta delta = sched::ComputeDirtyRegion(
        graph, analysis, base, WithForkAt(graph, base, fork, 0.9));
    if (delta.dirty_count < best_dirty) {
      best_dirty = delta.dirty_count;
      best = fork;
    }
  }
  return best;
}

struct ModeResult {
  adaptive::RescheduleMode mode;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double compute_p50_us = 0.0;
  double compute_p99_us = 0.0;
  double dls_ms = 0.0;      ///< accumulated sched.dls (wall-clock)
  double stretch_ms = 0.0;  ///< accumulated dvfs.stretch (wall-clock)
  adaptive::TierCounts tiers;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

ModeResult RunMode(const ctg::Ctg& graph,
                   const ctg::ActivationAnalysis& analysis,
                   const arch::Platform& platform,
                   const ctg::BranchProbabilities& base, TaskId fork,
                   adaptive::RescheduleMode mode, std::size_t steps) {
  runtime::Metrics metrics;
  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{}, &metrics);

  adaptive::ReschedulerConfig config;
  config.cache = runtime::CacheBinding{&cache, 0};
  config.reschedule.mode = mode;
  config.metrics = &metrics;
  adaptive::Rescheduler rescheduler(graph, analysis, platform, config);

  const adaptive::RescheduleRequest request{config.dls.available_pes, 0.0,
                                            "bench"};
  for (std::size_t i = 0; i < steps; ++i) {
    const double p =
        0.5 + 0.4 * std::sin(0.7 * static_cast<double>(i));
    rescheduler.Reschedule(WithForkAt(graph, base, fork, p), request);
  }

  ModeResult result;
  result.mode = mode;
  result.p50_us = metrics.quantile("reschedule.latency_us", 0.5);
  result.p99_us = metrics.quantile("reschedule.latency_us", 0.99);
  result.compute_p50_us =
      metrics.quantile("reschedule.compute_latency_us", 0.5);
  result.compute_p99_us =
      metrics.quantile("reschedule.compute_latency_us", 0.99);
  result.dls_ms = metrics.timer_ms("sched.dls");
  result.stretch_ms = metrics.timer_ms("dvfs.stretch");
  result.tiers = rescheduler.tier_counts();
  result.cache_hits = cache.hits();
  result.cache_misses = cache.misses();
  return result;
}

void WriteMode(std::ostream& os, const ModeResult& r) {
  os << "    {\"mode\": \"" << adaptive::RescheduleModeName(r.mode)
     << "\", "
     << "\"p50_us\": " << r.p50_us << ", "
     << "\"p99_us\": " << r.p99_us << ", "
     << "\"compute_p50_us\": " << r.compute_p50_us << ", "
     << "\"compute_p99_us\": " << r.compute_p99_us << ",\n"
     << "     \"tiers\": {\"exact\": " << r.tiers.exact
     << ", \"warm_cache\": " << r.tiers.warm_cache
     << ", \"warm_prior\": " << r.tiers.warm_prior
     << ", \"table\": " << r.tiers.table << ", \"full\": " << r.tiers.full
     << ", \"fallbacks\": " << r.tiers.incremental_fallbacks << "},\n"
     << "     \"cache\": {\"hits\": " << r.cache_hits
     << ", \"misses\": " << r.cache_misses << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::size_t steps = cli::CountFlag(argc, argv, "--steps", 256);
    const std::size_t seed = cli::CountFlag(argc, argv, "--seed", 42);
    const std::string out_path =
        cli::StringFlag(argc, argv, "--out", "BENCH_reschedule.json");

    // One mid-size fork-join graph: large enough that DLS dominates the
    // reschedule cost.
    tgff::RandomCtgParams params;
    params.task_count = static_cast<int>(cli::CountFlag(argc, argv, "--tasks", 48));
    params.pe_count = static_cast<int>(cli::CountFlag(argc, argv, "--pes", 4));
    params.fork_count = static_cast<int>(cli::CountFlag(argc, argv, "--forks", 4));
    params.category = tgff::Category::kForkJoin;
    params.seed = static_cast<std::uint64_t>(seed);
    tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
    apps::AssignDeadline(rc.graph, rc.platform, 1.3);
    const ctg::ActivationAnalysis analysis(rc.graph);
    const ctg::BranchProbabilities base =
        apps::UniformProbabilities(rc.graph);
    const TaskId fork = PickOscillatingFork(rc.graph, analysis, base);

    std::vector<ModeResult> results;
    for (const adaptive::RescheduleMode mode :
         {adaptive::RescheduleMode::kFull,
          adaptive::RescheduleMode::kIncremental}) {
      results.push_back(RunMode(rc.graph, analysis, rc.platform, base,
                                fork, mode, steps));
    }

    util::AtomicFile json(out_path);
    ACTG_CHECK(json.ok(), "bench_reschedule: cannot write " + out_path);
    std::ostream& os = json.os();
    os << "{\n";
    os << "  \"benchmark\": \"reschedule\",\n";
    os << "  \"tasks\": " << rc.graph.task_count() << ",\n";
    os << "  \"pes\": " << rc.platform.pe_count() << ",\n";
    os << "  \"forks\": " << rc.graph.ForkIds().size() << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"steps\": " << steps << ",\n";
    os << "  \"oscillating_fork\": " << fork.index() << ",\n";
    os << "  \"modes\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      WriteMode(os, results[i]);
      os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    json.Commit().ThrowIfError();

    // Human summary (wall-clock, intentionally not diffable).
    std::cout << "bench_reschedule: " << rc.graph.task_count()
              << " tasks, " << steps << " steps, oscillating fork "
              << fork.index() << " -> " << out_path << "\n";
    for (const ModeResult& r : results) {
      std::cout << "  " << adaptive::RescheduleModeName(r.mode)
                << ": p50 " << r.p50_us << " us  p99 " << r.p99_us
                << " us  compute p50 " << r.compute_p50_us
                << " us  tiers e/wc/wp/t/f " << r.tiers.exact << "/"
                << r.tiers.warm_cache << "/" << r.tiers.warm_prior << "/"
                << r.tiers.table << "/" << r.tiers.full << " (fallbacks "
                << r.tiers.incremental_fallbacks << ")  dls "
                << r.dls_ms << " ms  stretch " << r.stretch_ms << " ms\n";
    }
    const double full_p50 = results[0].compute_p50_us;
    const double inc_p50 = results[1].compute_p50_us;
    if (inc_p50 > 0.0) {
      std::cout << "  warm-start speedup (full/incremental compute p50): "
                << full_p50 / inc_p50 << "x\n";
    }
    return 0;
  } catch (const actg::Error& e) {
    std::cerr << "bench_reschedule: " << e.what() << "\n";
    return 1;
  }
}
