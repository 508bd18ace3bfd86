/// \file bench_fig4.cpp
/// Reproduces paper Figure 4: the branch-b1 selection sequence over 1000
/// decoded macroblocks, its probability within a 50-iteration window,
/// and the threshold-filtered probability (T = 0.1) that the adaptive
/// framework acts on. The three series are written to fig4_series.csv
/// for plotting and summarized on stdout.

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/setup.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "profiling/window.h"
#include "runtime/pool.h"
#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace actg;

  obs::ScopedTracing tracing(argc, argv);
  // Accepts --jobs for uniformity with the other bench targets, but the
  // sliding-window filter below is a stateful sequential recurrence
  // (filtered[i] depends on filtered[i-1]) and cannot be parallelized.
  const runtime::Pool pool(runtime::ParseJobs(argc, argv));
  (void)pool;

  util::PrintBanner(std::cout,
                    "Figure 4 - MPEG branch selection, windowed and "
                    "filtered probability (branch b, 1000 macroblocks)");

  const apps::MpegModel model = apps::MakeMpegModel(tracing.session());
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto movies = apps::MpegMovieProfiles();
  const trace::BranchTrace trace =
      apps::GenerateMovieTrace(model, movies[5] /* Shuttle: volatile */,
                               1000);

  constexpr std::size_t kWindow = 50;   // paper: window of 50 iterations
  constexpr double kThreshold = 0.1;    // paper: threshold 0.1
  profiling::SlidingWindowProfiler profiler(model.graph, kWindow);

  const std::string csv_path = util::OutputPath("fig4_series.csv");
  util::AtomicFile csv_file(csv_path);
  util::CsvWriter csv(csv_file.os());
  csv.WriteRow(std::vector<std::string>{"instance", "selection",
                                        "windowed_prob",
                                        "filtered_prob"});

  double filtered = 0.5;  // value in use before the first update
  std::size_t updates = 0;
  util::RunningStats window_stats;
  util::RunningStats tracking_error;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ctg::BranchAssignment assignment = trace.At(i);
    const int outcome = assignment.Get(model.fork_type);
    const bool active = analysis.IsActive(model.fork_type, assignment);
    const int selection = outcome >= 0 && active ? (outcome == 0 ? 1 : 0)
                                                 : 0;
    if (active) profiler.Observe(model.fork_type, outcome);
    double windowed = filtered;
    if (profiler.Count(model.fork_type) > 0) {
      windowed = profiler.WindowedProbability(model.fork_type, 0);
    }
    if (profiler.Full(model.fork_type) &&
        std::abs(windowed - filtered) > kThreshold) {
      filtered = windowed;  // paper: "the branch probability is updated
      ++updates;            // with this new value"
    }
    window_stats.Add(windowed);
    tracking_error.Add(std::abs(windowed - filtered));
    csv.WriteRow(std::vector<double>{static_cast<double>(i),
                                     static_cast<double>(selection),
                                     windowed, filtered},
                 4);
  }

  util::TablePrinter table({"metric", "value"});
  table.BeginRow().Cell("instances").Cell(trace.size());
  table.BeginRow().Cell("window length").Cell(kWindow);
  table.BeginRow().Cell("threshold").Cell(kThreshold, 1);
  table.BeginRow().Cell("filtered-prob updates").Cell(updates);
  table.BeginRow()
      .Cell("windowed prob mean")
      .Cell(window_stats.mean(), 3);
  table.BeginRow()
      .Cell("windowed prob range (fluctuation)")
      .Cell(window_stats.max() - window_stats.min(), 3);
  table.BeginRow()
      .Cell("mean |windowed - filtered|")
      .Cell(tracking_error.mean(), 4);
  table.Print(std::cout);

  csv_file.Commit().ThrowIfError();
  std::cout << "\nSeries written to " << csv_path << " (instance, raw "
               "selection, windowed probability, filtered probability).\n"
            << "Expected shape: raw selections look random; the windowed "
               "probability drifts slowly with local fluctuation; the "
               "filtered series is a staircase that follows it whenever "
               "the difference exceeds the 0.1 threshold (a low-pass "
               "filter, per the paper).\n";
  return 0;
}
