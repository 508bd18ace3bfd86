/// \file bench_ablation.cpp
/// Ablation studies of the design choices DESIGN.md §6 calls out. Not a
/// paper table — these isolate *why* the online algorithm wins:
///   A. probability-weighted vs worst-case static levels (mapping);
///   B. mutual-exclusion-aware vs blind scheduling;
///   C. probability-weighted vs blind slack distribution (same mapping);
///   D. sliding-window length (adaptation quality vs estimator noise);
///   E. adaptation threshold (energy vs re-scheduling overhead);
///   F. continuous vs discrete DVFS levels.
/// Averages over the ten Table-4/5 CTGs.

#include <iostream>
#include <string_view>
#include <vector>

#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "experiments.h"
#include "obs/setup.h"
#include "runtime/pool.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "sim/report.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace actg;

/// Random per-fork probabilities shared by the structural ablations.
ctg::BranchProbabilities RandomProbs(const ctg::Ctg& graph,
                                     std::uint64_t seed) {
  util::Random rng(seed);
  ctg::BranchProbabilities probs(graph.task_count());
  for (TaskId fork : graph.ForkIds()) {
    const double p = rng.Uniform(0.1, 0.9);
    probs.Set(fork, {p, 1.0 - p});
  }
  return probs;
}

double PipelineEnergy(const bench::TestCase& test,
                      const ctg::ActivationAnalysis& analysis,
                      const ctg::BranchProbabilities& probs,
                      const dvfs::PolicyRunOptions& options,
                      std::string_view stretch_policy) {
  return sim::ExpectedEnergy(
      dvfs::RunWithPolicy(stretch_policy, test.rc.graph, analysis,
                          test.rc.platform, probs, options),
      probs);
}

/// Totals of one (window, threshold) sweep over the ten CTGs, used by
/// ablations D and E. The per-CTG runs are independent and go through
/// the pool; each controller memoizes through its own schedule cache.
struct SweepTotals {
  double adaptive_total = 0.0;
  double online_total = 0.0;
  std::size_t calls = 0;
};

SweepTotals AdaptiveSweep(runtime::Pool& pool, runtime::Metrics& metrics,
                          obs::TraceSession* trace,
                          const std::vector<bench::TestCase>& cases,
                          std::size_t window, double threshold) {
  struct SweepRow {
    double adaptive = 0.0;
    double online = 0.0;
    std::size_t calls = 0;
  };
  const std::vector<SweepRow> rows = runtime::ParallelMap(
      pool, cases.size(), [&](std::size_t i) {
        const bench::TestCase& test = cases[i];
        const int index = static_cast<int>(i) + 1;
        const ctg::ActivationAnalysis analysis(test.rc.graph);
        const auto vectors = bench::MakeFluctuatingVectors(
            test.rc.graph, 500, 777 + static_cast<std::uint64_t>(index));
        const auto profile = bench::BiasedProfile(
            test.rc.graph, analysis, test.rc.platform, true, trace);
        bench::ExperimentSpec spec(test.rc.graph, analysis,
                                   test.rc.platform);
        spec.WithProfile(profile).WithWindow(window)
            .WithThreshold(threshold).WithScheduleCache()
            .WithMetrics(&metrics).WithTrace(trace);
        const sched::Schedule online = spec.BuildOnlineSchedule();

        SweepRow row;
        row.online =
            sim::RunTrace(online, vectors, nullptr, trace).total_energy_mj;

        bench::AdaptiveHarness harness = spec.BuildAdaptive();
        row.adaptive = harness.Run(vectors).total_energy_mj;
        row.calls = harness.reschedule_count();
        return row;
      });

  SweepTotals totals;
  for (const SweepRow& row : rows) {
    totals.adaptive_total += row.adaptive;
    totals.online_total += row.online;
    totals.calls += row.calls;
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ScopedTracing tracing(argc, argv);
  obs::TraceSession* const trace = tracing.session();
  runtime::Pool pool(runtime::ParseJobs(argc, argv), trace);
  runtime::Metrics metrics;

  std::vector<bench::TestCase> cases = bench::MakeTable45Cases(trace);

  // ------------------------------------------------------------------ A-C
  util::PrintBanner(std::cout,
                    "Ablations A-C: scheduling and stretching design "
                    "choices (expected energy, baseline = full online "
                    "algorithm = 100)");
  util::TablePrinter structural(
      {"CTG", "full online", "A worst-case SL", "B mutex-blind",
       "C prob-blind stretch"});
  double totals[4] = {0, 0, 0, 0};

  struct StructuralRow {
    double full = 0.0, a = 0.0, b = 0.0, c = 0.0;
  };
  const std::vector<StructuralRow> structural_rows = runtime::ParallelMap(
      pool, cases.size(), [&](std::size_t i) {
        const bench::TestCase& test = cases[i];
        const int index = static_cast<int>(i) + 1;
        const ctg::ActivationAnalysis analysis(test.rc.graph);
        const auto probs = RandomProbs(
            test.rc.graph, 500 + static_cast<std::uint64_t>(index));

        StructuralRow row;
        dvfs::PolicyRunOptions base;
        base.trace = trace;
        row.full = PipelineEnergy(test, analysis, probs, base, "online");

        dvfs::PolicyRunOptions worst_sl = base;
        worst_sl.dls.level_policy = sched::LevelPolicy::kWorstCase;
        row.a = PipelineEnergy(test, analysis, probs, worst_sl, "online");

        dvfs::PolicyRunOptions blind = base;
        blind.dls.mutex_aware = false;
        row.b = PipelineEnergy(test, analysis, probs, blind, "online");

        row.c =
            PipelineEnergy(test, analysis, probs, base, "proportional");
        return row;
      });

  int index = 0;
  for (const StructuralRow& row : structural_rows) {
    ++index;
    totals[0] += row.full;
    totals[1] += row.a;
    totals[2] += row.b;
    totals[3] += row.c;
    structural.BeginRow()
        .Cell(index)
        .Cell(100.0, 0)
        .Cell(100.0 * row.a / row.full, 1)
        .Cell(100.0 * row.b / row.full, 1)
        .Cell(100.0 * row.c / row.full, 1);
  }
  structural.BeginRow()
      .Cell("avg")
      .Cell(100.0, 0)
      .Cell(100.0 * totals[1] / totals[0], 1)
      .Cell(100.0 * totals[2] / totals[0], 1)
      .Cell(100.0 * totals[3] / totals[0], 1);
  structural.Print(std::cout);
  std::cout << "\nA: worst-case static levels (on these ten graphs the "
               "SL policy alone flips no mapping decision - the level "
               "ordering is robust - so Reference 1's Table-1 gap stems "
               "from its *given* naive mapping and blind analysis, not "
               "from the SL weighting); B: mutex-blind scheduling "
               "serializes exclusive tasks and budgets slack for "
               "impossible chains; C: ignoring branch probabilities "
               "during slack distribution. Note C < 100: with accurate "
               "probabilities on these graphs the blind distribution "
               "stretches deeper, which is exactly why it collapses "
               "under *inaccurate* profiles (Tables 4/5) - it has no "
               "notion of which branches are likely.\n";

  // -------------------------------------------------------------------- D
  util::PrintBanner(std::cout,
                    "Ablation D: sliding-window length (threshold 0.1, "
                    "misprofiled start; totals over the ten CTGs)");
  util::TablePrinter window_table(
      {"window", "adaptive energy", "vs online", "calls"});
  for (std::size_t window : {5u, 10u, 20u, 50u, 100u}) {
    const SweepTotals totals =
        AdaptiveSweep(pool, metrics, trace, cases, window, /*threshold=*/0.1);
    window_table.BeginRow()
        .Cell(window)
        .Cell(totals.adaptive_total / 1000.0, 0)
        .Cell(util::TablePrinter::Format(
                  100.0 * (1.0 - totals.adaptive_total /
                                     totals.online_total),
                  1) +
              "%")
        .Cell(totals.calls);
  }
  window_table.Print(std::cout);
  std::cout << "\nShort windows react fast but the estimator noise "
               "(stddev ~ sqrt(p(1-p)/L)) triggers spurious calls; long "
               "windows lag the drift.\n";

  // -------------------------------------------------------------------- E
  util::PrintBanner(std::cout,
                    "Ablation E: adaptation threshold (window 20, "
                    "misprofiled start; totals over the ten CTGs)");
  util::TablePrinter threshold_table(
      {"threshold", "adaptive energy", "vs online", "calls"});
  for (double threshold : {0.05, 0.1, 0.25, 0.5, 0.8}) {
    const SweepTotals totals =
        AdaptiveSweep(pool, metrics, trace, cases, /*window=*/20, threshold);
    threshold_table.BeginRow()
        .Cell(threshold, 2)
        .Cell(totals.adaptive_total / 1000.0, 0)
        .Cell(util::TablePrinter::Format(
                  100.0 * (1.0 - totals.adaptive_total /
                                     totals.online_total),
                  1) +
              "%")
        .Cell(totals.calls);
  }
  threshold_table.Print(std::cout);
  std::cout << "\nThe paper's observation holds: a mid threshold keeps "
               "almost all of the energy savings at a fraction of the "
               "re-scheduling overhead.\n";

  // -------------------------------------------------------------------- F
  util::PrintBanner(std::cout,
                    "Ablation F: continuous vs discrete DVFS levels "
                    "(online algorithm, expected energy normalized to "
                    "continuous = 100)");
  util::TablePrinter level_table(
      {"CTG", "continuous", "levels {.25,.5,.75,1}", "levels {.5,1}"});
  double level_totals[3] = {0, 0, 0};

  struct LevelRow {
    double energies[3] = {0.0, 0.0, 0.0};
  };
  const std::vector<LevelRow> level_rows = runtime::ParallelMap(
      pool, cases.size(), [&](std::size_t i) {
        const bench::TestCase& test = cases[i];
        const int index = static_cast<int>(i) + 1;
        const ctg::ActivationAnalysis analysis(test.rc.graph);
        const auto probs = RandomProbs(
            test.rc.graph, 500 + static_cast<std::uint64_t>(index));
        LevelRow row;
        for (int mode = 0; mode < 3; ++mode) {
          arch::PlatformBuilder builder(test.rc.graph.task_count(),
                                        test.rc.platform.pe_count());
          for (TaskId task : test.rc.graph.TaskIds()) {
            for (PeId pe : test.rc.platform.PeIds()) {
              builder.SetTaskCost(task, pe,
                                  test.rc.platform.Wcet(task, pe),
                                  test.rc.platform.Energy(task, pe));
            }
          }
          for (PeId pe : test.rc.platform.PeIds()) {
            if (mode == 0) {
              builder.SetMinSpeedRatio(
                  pe, test.rc.platform.pe(pe).min_speed_ratio);
            } else if (mode == 1) {
              builder.SetSpeedLevels(pe, {0.25, 0.5, 0.75, 1.0});
            } else {
              builder.SetSpeedLevels(pe, {0.5, 1.0});
            }
          }
          const arch::Platform platform = std::move(builder).Build();
          row.energies[mode] = sim::ExpectedEnergy(
              dvfs::RunOnlineAlgorithm(test.rc.graph, analysis, platform,
                                       probs, trace),
              probs);
        }
        return row;
      });

  index = 0;
  for (const LevelRow& row : level_rows) {
    ++index;
    for (int mode = 0; mode < 3; ++mode) {
      level_totals[mode] += row.energies[mode];
    }
    level_table.BeginRow()
        .Cell(index)
        .Cell(100.0, 0)
        .Cell(100.0 * row.energies[1] / row.energies[0], 1)
        .Cell(100.0 * row.energies[2] / row.energies[0], 1);
  }
  level_table.BeginRow()
      .Cell("avg")
      .Cell(100.0, 0)
      .Cell(100.0 * level_totals[1] / level_totals[0], 1)
      .Cell(100.0 * level_totals[2] / level_totals[0], 1);
  level_table.Print(std::cout);
  std::cout << "\nDiscrete levels round every speed up to the next "
               "available step; four levels already recover most of the "
               "continuous-DVFS savings.\n";

  sim::WriteMetricsReport(std::cerr, metrics);
  return 0;
}
