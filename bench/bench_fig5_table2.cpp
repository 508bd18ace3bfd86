/// \file bench_fig5_table2.cpp
/// Reproduces paper Figure 5 and Table 2: average decoding energy of the
/// MPEG CTG under the adaptive algorithm (thresholds 0.5 and 0.1) versus
/// the non-adaptive online algorithm for eight movie clips, plus the
/// number of online scheduling + DVFS invocations per movie.
///
/// Protocol (paper Section IV): 2000 decision vectors per movie; the
/// first 1000 are the training sequence that provides the non-adaptive
/// profile, the second 1000 are the testing sequence; sliding window of
/// size 20.

#include <iostream>

#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "experiments.h"
#include "obs/setup.h"
#include "runtime/pool.h"
#include "sim/executor.h"
#include "sim/report.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace actg;

  obs::ScopedTracing tracing(argc, argv);
  runtime::Pool pool(runtime::ParseJobs(argc, argv), tracing.session());
  runtime::Metrics metrics;

  const apps::MpegModel model = apps::MakeMpegModel(tracing.session());
  const ctg::ActivationAnalysis analysis(model.graph);

  util::PrintBanner(std::cout,
                    "Figure 5 - MPEG energy consumption with varying "
                    "thresholds (average energy per macroblock, mJ)");

  util::TablePrinter fig5({"Movie", "Online (non-adaptive)",
                           "Adaptive T=0.5", "Adaptive T=0.1",
                           "saving T=0.5", "saving T=0.1"});
  util::TablePrinter table2({"Movie", "T=0.5 calls", "T=0.1 calls"});

  struct Row {
    double online_avg = 0.0;
    double adaptive_energy[2] = {0.0, 0.0};
    std::size_t calls[2] = {0, 0};
  };
  const std::vector<apps::MovieProfile> movies = apps::MpegMovieProfiles();
  const std::vector<Row> rows = runtime::ParallelMap(
      pool, movies.size(), [&](std::size_t i) {
        const apps::MovieProfile& movie = movies[i];
        const trace::BranchTrace full =
            apps::GenerateMovieTrace(model, movie, 2000);
        const trace::BranchTrace training = full.Slice(0, 1000);
        const trace::BranchTrace testing = full.Slice(1000, 2000);

        // Non-adaptive: profile from the training sequence, fixed
        // schedule.
        const ctg::BranchProbabilities profile =
            training.ProfiledProbabilities(model.graph);
        bench::ExperimentSpec spec(model.graph, analysis, model.platform);
        spec.WithProfile(profile).WithWindow(20).WithScheduleCache()
            .WithMetrics(&metrics).WithTrace(tracing.session());
        const sched::Schedule online = spec.BuildOnlineSchedule();

        Row row;
        row.online_avg =
            sim::RunTrace(online, testing, nullptr, tracing.session())
                .AverageEnergy();

        // Adaptive: window 20, thresholds 0.5 and 0.1, same initial
        // profile. Scene-change oscillations revisit operating points,
        // so each controller memoizes through a schedule cache.
        const double thresholds[2] = {0.5, 0.1};
        for (int t = 0; t < 2; ++t) {
          bench::AdaptiveHarness harness =
              spec.WithThreshold(thresholds[t]).BuildAdaptive();
          const sim::RunSummary run = harness.Run(testing);
          row.adaptive_energy[t] = run.AverageEnergy();
          row.calls[t] = harness.reschedule_count();
        }
        return row;
      });

  double online_total = 0.0, t05_total = 0.0, t01_total = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    online_total += row.online_avg;
    t05_total += row.adaptive_energy[0];
    t01_total += row.adaptive_energy[1];

    fig5.BeginRow()
        .Cell(movies[i].name)
        .Cell(row.online_avg, 2)
        .Cell(row.adaptive_energy[0], 2)
        .Cell(row.adaptive_energy[1], 2)
        .Cell(util::TablePrinter::Format(
                  100.0 * (1.0 - row.adaptive_energy[0] /
                                     row.online_avg),
                  1) +
              "%")
        .Cell(util::TablePrinter::Format(
                  100.0 * (1.0 - row.adaptive_energy[1] /
                                     row.online_avg),
                  1) +
              "%");
    table2.BeginRow()
        .Cell(movies[i].name)
        .Cell(row.calls[0])
        .Cell(row.calls[1]);
  }
  fig5.Print(std::cout);

  std::cout << "\nAverage savings of the adaptive algorithm over the "
               "non-adaptive online algorithm: "
            << util::TablePrinter::Format(
                   100.0 * (1.0 - t05_total / online_total), 1)
            << "% (T=0.5), "
            << util::TablePrinter::Format(
                   100.0 * (1.0 - t01_total / online_total), 1)
            << "% (T=0.1). Paper: 21% and 23%.\n";

  util::PrintBanner(std::cout,
                    "Table 2 - Algorithm call count for MPEG movies "
                    "(1000 testing macroblocks each)");
  table2.Print(std::cout);
  std::cout << "\nPaper reference: T=0.5 -> 5..32 calls (average 9); "
               "T=0.1 -> 153..276 calls (average 162).\n";

  sim::WriteMetricsReport(std::cerr, metrics);
  return 0;
}
