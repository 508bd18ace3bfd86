/// \file bench_micro.cpp
/// google-benchmark micro-benchmarks of the framework's hot paths. The
/// headline comparison backs the paper's runtime claim: the online
/// stretching heuristic is orders of magnitude faster than NLP-based
/// stretching (paper: 0.6 ms vs 70 s per CTG), which is what makes it
/// usable for runtime adaptation.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <benchmark/benchmark.h>

#include "apps/common.h"
#include "apps/mpeg.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "dvfs/path_engine.h"
#include "dvfs/paths.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "experiments.h"
#include "obs/setup.h"
#include "profiling/window.h"
#include "runtime/metrics.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "sim/report.h"
#include "tgff/random_ctg.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace {

using namespace actg;

struct Workbench {
  tgff::RandomCase rc;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;

  explicit Workbench(int tasks = 25, int forks = 3, int pes = 3)
      : rc([&] {
          tgff::RandomCtgParams params;
          params.task_count = tasks;
          params.fork_count = forks;
          params.pe_count = pes;
          params.seed = 4242;
          auto generated = tgff::MakeRandomCtg(params).value();
          apps::AssignDeadline(generated.graph, generated.platform, 1.3);
          return generated;
        }()),
        analysis(rc.graph),
        probs(apps::UniformProbabilities(rc.graph)) {}
};

void BM_ActivationAnalysis(benchmark::State& state) {
  Workbench wb(static_cast<int>(state.range(0)), 3, 3);
  for (auto _ : state) {
    ctg::ActivationAnalysis analysis(wb.rc.graph);
    benchmark::DoNotOptimize(analysis.Gamma(TaskId{0}));
  }
}
BENCHMARK(BM_ActivationAnalysis)->Arg(15)->Arg(25);

void BM_ModifiedDls(benchmark::State& state) {
  Workbench wb(static_cast<int>(state.range(0)), 3, 3);
  for (auto _ : state) {
    const sched::Schedule s = sched::RunDls(wb.rc.graph, wb.analysis,
                                            wb.rc.platform, wb.probs);
    benchmark::DoNotOptimize(s.Makespan());
  }
}
BENCHMARK(BM_ModifiedDls)->Arg(15)->Arg(25);

void BM_ModifiedDlsMpeg(benchmark::State& state) {
  // The DLS of a full MPEG reschedule on all three PEs through a
  // persistent workspace, as the controller runs it: the population of
  // the calm campaign's reschedule-latency p99. Recorded, not gated.
  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto probs = apps::UniformProbabilities(model.graph);
  sched::DlsWorkspace workspace;
  for (auto _ : state) {
    const sched::Schedule s = sched::RunDls(model.graph, analysis,
                                            model.platform, probs, {},
                                            &workspace);
    benchmark::DoNotOptimize(s.Makespan());
  }
}
BENCHMARK(BM_ModifiedDlsMpeg);

void BM_PathEnumeration(benchmark::State& state) {
  Workbench wb;
  const sched::Schedule s =
      sched::RunDls(wb.rc.graph, wb.analysis, wb.rc.platform, wb.probs);
  for (auto _ : state) {
    const dvfs::PathSet paths(s);
    benchmark::DoNotOptimize(paths.size());
  }
}
BENCHMARK(BM_PathEnumeration);

void BM_StretchOnline(benchmark::State& state) {
  // The paper's headline: ~0.6 ms per CTG for ordering + stretching.
  Workbench wb;
  for (auto _ : state) {
    sched::Schedule s = sched::RunDls(wb.rc.graph, wb.analysis,
                                      wb.rc.platform, wb.probs);
    const auto stats = dvfs::ApplyPolicy("online", s, wb.probs);
    benchmark::DoNotOptimize(stats.total_extension_ms);
  }
}
BENCHMARK(BM_StretchOnline);

void BM_StretchNlp(benchmark::State& state) {
  Workbench wb;
  for (auto _ : state) {
    sched::Schedule s = sched::RunDls(wb.rc.graph, wb.analysis,
                                      wb.rc.platform, wb.probs);
    const auto stats = dvfs::ApplyPolicy("nlp", s, wb.probs);
    benchmark::DoNotOptimize(stats.total_extension_ms);
  }
}
BENCHMARK(BM_StretchNlp)->Unit(benchmark::kMillisecond);

void BM_ExpectedEnergy(benchmark::State& state) {
  Workbench wb;
  sched::Schedule s =
      sched::RunDls(wb.rc.graph, wb.analysis, wb.rc.platform, wb.probs);
  dvfs::ApplyPolicy("online", s, wb.probs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::ExpectedEnergy(s, wb.probs));
  }
}
BENCHMARK(BM_ExpectedEnergy);

void BM_ExecuteInstance(benchmark::State& state) {
  Workbench wb;
  sched::Schedule s =
      sched::RunDls(wb.rc.graph, wb.analysis, wb.rc.platform, wb.probs);
  dvfs::ApplyPolicy("online", s, wb.probs);
  ctg::BranchAssignment assignment(wb.rc.graph.task_count());
  for (TaskId fork : wb.rc.graph.ForkIds()) assignment.Set(fork, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::ExecuteInstance(s, assignment).energy_mj);
  }
}
BENCHMARK(BM_ExecuteInstance);

void BM_AdaptiveStepNoTrigger(benchmark::State& state) {
  // Cost of one instance through the controller when no threshold
  // crossing occurs (the common case).
  Workbench wb;
  bench::AdaptiveHarness harness =
      bench::ExperimentSpec(wb.rc.graph, wb.analysis, wb.rc.platform)
          .WithProfile(wb.probs)
          .WithWindow(20)
          .WithThreshold(0.99)
          .BuildAdaptive();
  ctg::BranchAssignment assignment(wb.rc.graph.task_count());
  for (TaskId fork : wb.rc.graph.ForkIds()) assignment.Set(fork, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        harness.controller().ProcessInstance(assignment).energy_mj);
  }
}
BENCHMARK(BM_AdaptiveStepNoTrigger);

void BM_RescheduleEngine(benchmark::State& state) {
  // One full adaptive reschedule — DLS + path enumeration + online
  // stretching — through a persistent PathEngine, exactly as the
  // controller runs it: bitset guard algebra, preallocated path/guard
  // pools and DLS scratch reused across iterations.
  const auto cases = bench::MakeTable1Cases();
  const bench::TestCase& test =
      cases[static_cast<std::size_t>(state.range(0))];
  const ctg::ActivationAnalysis analysis(test.rc.graph);
  const auto probs = apps::UniformProbabilities(test.rc.graph);
  dvfs::PathEngine engine(test.rc.graph, analysis, test.rc.platform);
  for (auto _ : state) {
    sched::Schedule s =
        sched::RunDls(test.rc.graph, analysis, test.rc.platform, probs,
                      {}, &engine.dls_workspace());
    const auto stats =
        dvfs::ApplyPolicy("online", s, probs, {}, &engine);
    benchmark::DoNotOptimize(stats.total_extension_ms);
  }
}
BENCHMARK(BM_RescheduleEngine)->Arg(0)->Arg(4);

void BM_RescheduleDnf(benchmark::State& state) {
  // Baseline for BM_RescheduleEngine: the pre-engine behavior — a
  // fresh allocation-heavy DNF enumeration per reschedule
  // (PathEngineOptions::force_dnf) and no reused DLS scratch.
  const auto cases = bench::MakeTable1Cases();
  const bench::TestCase& test =
      cases[static_cast<std::size_t>(state.range(0))];
  const ctg::ActivationAnalysis analysis(test.rc.graph);
  const auto probs = apps::UniformProbabilities(test.rc.graph);
  for (auto _ : state) {
    sched::Schedule s =
        sched::RunDls(test.rc.graph, analysis, test.rc.platform, probs);
    dvfs::PathEngine engine(test.rc.graph, analysis, test.rc.platform,
                            dvfs::PathEngineOptions{.force_dnf = true});
    const auto stats =
        dvfs::ApplyPolicy("online", s, probs, {}, &engine);
    benchmark::DoNotOptimize(stats.total_extension_ms);
  }
}
BENCHMARK(BM_RescheduleDnf)->Arg(0)->Arg(4);

void BM_MpegFullPipeline(benchmark::State& state) {
  // The graph the paper says the NLP reference could not handle at all.
  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto probs = apps::UniformProbabilities(model.graph);
  for (auto _ : state) {
    sched::Schedule s =
        sched::RunDls(model.graph, analysis, model.platform, probs);
    dvfs::ApplyPolicy("online", s, probs);
    benchmark::DoNotOptimize(s.Makespan());
  }
}
BENCHMARK(BM_MpegFullPipeline)->Unit(benchmark::kMillisecond);

void BM_RescheduleMpegOnePe(benchmark::State& state) {
  // The path-explosion case: MPEG on one surviving PE (the fault
  // ladder's degraded fallback) has ~400k paths against 671 on all three
  // PEs. DLS, then the enumeration, then the online stretch on that
  // enumeration, through one persistent engine.
  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto probs = apps::UniformProbabilities(model.graph);
  dvfs::PathEngine engine(model.graph, analysis, model.platform);
  sched::DlsOptions dls;
  dls.available_pes = arch::PeMask::WithoutBits(0b110);
  dvfs::StretchWarmStart stretch_enumerated;
  stretch_enumerated.reuse_enumeration = true;
  const dvfs::Policy& online = dvfs::GetPolicy("online");
  for (auto _ : state) {
    sched::Schedule s = sched::RunDls(model.graph, analysis, model.platform,
                                      probs, dls, &engine.dls_workspace());
    engine.Enumerate(s);
    dvfs::PolicyContext ctx;
    ctx.schedule = &s;
    ctx.probs = &probs;
    ctx.warm = &stretch_enumerated;
    const auto stats = online.Apply(engine, ctx);
    benchmark::DoNotOptimize(stats.total_extension_ms);
  }
  // A label, not a user counter: the CSV reporter fixes its counter
  // columns at the first benchmark, which has none.
  state.SetLabel(std::to_string(engine.size()) + " paths");
}
BENCHMARK(BM_RescheduleMpegOnePe)->Unit(benchmark::kMillisecond);

void BM_GuardProbability(benchmark::State& state) {
  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto probs = apps::UniformProbabilities(model.graph);
  // Deepest guard: a block blend task.
  TaskId deep;
  std::size_t best = 0;
  for (TaskId t : model.graph.TaskIds()) {
    const auto support = analysis.ActivationGuard(t).Support();
    if (support.size() >= best) {
      best = support.size();
      deep = t;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis.ActivationGuard(deep).Probability(probs));
  }
}
BENCHMARK(BM_GuardProbability);

void BM_SlidingWindowObserve(benchmark::State& state) {
  const apps::MpegModel model = apps::MakeMpegModel();
  profiling::SlidingWindowProfiler profiler(model.graph, 20);
  int i = 0;
  for (auto _ : state) {
    profiler.Observe(model.fork_skipped, i++ & 1);
    benchmark::DoNotOptimize(
        profiler.WindowedProbability(model.fork_skipped, 0));
  }
}
BENCHMARK(BM_SlidingWindowObserve);

}  // namespace

// BENCHMARK_MAIN, plus an optional metrics dump: when ACTG_METRICS_CSV
// names a file, the accumulated runtime counters and stage timers of the
// whole run (guard.dnf_fallbacks, cache hits, stage.* wall clocks) are
// written there as CSV. CI uploads it as the perf artifact.
int main(int argc, char** argv) {
  // --trace is ours, not google-benchmark's: strip it (and install the
  // session) before Initialize sees argv.
  actg::obs::ScopedTracing tracing(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("ACTG_METRICS_CSV")) {
    actg::util::AtomicFile out(path);
    actg::sim::WriteMetricsCsv(out.os(), actg::runtime::Metrics::Global());
    const actg::util::Error err = out.Commit();
    if (!err.ok()) {
      std::cerr << "bench_micro: " << err.message() << "\n";
      return 1;
    }
  }
  return 0;
}
