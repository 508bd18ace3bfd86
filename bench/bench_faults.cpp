/// \file bench_faults.cpp
/// Fault-injection sweep: injection intensity vs deadline-miss rate and
/// energy for the MPEG decoder, the cruise controller and two random
/// CTGs, with the graceful-degradation ladder on and off. Also the
/// harness's own correctness gates:
///   - at zero injection intensity the adaptive run must reproduce the
///     fault-free run bit for bit (energy, misses, reschedule counts);
///   - with the ladder enabled the total misses over the sweep must not
///     exceed the no-degrade ablation's.
/// Exits nonzero when either gate fails. The sweep series is written to
/// out/faults_sweep.csv.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "experiments.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "obs/setup.h"
#include "runtime/pool.h"
#include "sim/report.h"
#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace actg;

/// Injector seed shared by every run; per-instance substreams fork off
/// it, so runs differ only through the plan (intensity) they carry.
constexpr std::uint64_t kInjectorSeed = 9001;

/// The base scenario every intensity scales: occasional execution-time
/// overruns beyond the stretched WCETs, rare transient PE dropouts,
/// short link-bandwidth collapses and a slow branch-profile drift.
faults::FaultPlan BasePlan() {
  faults::FaultPlan plan;
  plan.overrun.probability = 0.08;
  plan.overrun.min_factor = 1.2;
  plan.overrun.max_factor = 1.8;
  plan.dropout.probability = 0.01;
  plan.dropout.duration = 3;
  plan.dropout.rerun_penalty = 2.0;
  plan.link.probability = 0.03;
  plan.link.bandwidth_factor = 0.5;
  plan.link.duration = 2;
  plan.drift.max_flip_probability = 0.2;
  plan.drift.ramp_instances = 500;
  return plan;
}

/// One workload the sweep drives. The graph/platform owners live in
/// main() for the whole run.
struct Suite {
  std::string name;
  const ctg::Ctg* graph = nullptr;
  const arch::Platform* platform = nullptr;
  std::unique_ptr<ctg::ActivationAnalysis> analysis;
  ctg::BranchProbabilities profile{0};
  trace::BranchTrace vectors;
};

/// Aggregates of one (suite, intensity, degrade) run.
struct SweepRow {
  sim::RunSummary summary;
  std::size_t reschedules = 0;
  std::size_t escalations = 0;
  std::size_t oob_reschedules = 0;
  std::size_t recoveries = 0;
};

adaptive::DegradeOptions LadderOn() {
  adaptive::DegradeOptions degrade;
  degrade.enabled = true;
  return degrade;
}

/// The adaptive setup every run of \p suite shares, recording into
/// \p metrics and \p trace.
bench::ExperimentSpec SuiteSpec(const Suite& suite, runtime::Metrics& metrics,
                                obs::TraceSession* trace) {
  bench::ExperimentSpec spec(*suite.graph, *suite.analysis,
                             *suite.platform);
  spec.WithProfile(suite.profile)
      .WithWindow(20)
      .WithThreshold(0.1)
      .WithScheduleCache()
      .WithMetrics(&metrics)
      .WithTrace(trace);
  return spec;
}

SweepRow RunOne(const Suite& suite, double intensity, bool degrade,
                runtime::Metrics& metrics, obs::TraceSession* trace) {
  bench::ExperimentSpec spec = SuiteSpec(suite, metrics, trace);
  if (degrade) spec.WithDegrade(LadderOn());
  bench::AdaptiveHarness harness = spec.BuildAdaptive();

  faults::FaultPlan plan = BasePlan();
  plan.intensity = intensity;
  const faults::Injector injector(plan, *suite.graph, *suite.platform,
                                  kInjectorSeed);

  SweepRow row;
  row.summary = harness.Run(suite.vectors, &injector);
  row.reschedules = harness.reschedule_count();
  row.escalations = harness.controller().escalation_count();
  row.oob_reschedules = harness.controller().oob_reschedule_count();
  row.recoveries = harness.controller().recovery_count();
  return row;
}

/// The fault-free control the zero-intensity gate compares against.
SweepRow RunControl(const Suite& suite, runtime::Metrics& metrics,
                    obs::TraceSession* trace) {
  bench::AdaptiveHarness harness =
      SuiteSpec(suite, metrics, trace).BuildAdaptive();
  SweepRow row;
  row.summary = harness.Run(suite.vectors);
  row.reschedules = harness.reschedule_count();
  return row;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ScopedTracing tracing(argc, argv);
  obs::TraceSession* const trace = tracing.session();
  runtime::Pool pool(runtime::ParseJobs(argc, argv), trace);
  runtime::Metrics metrics;

  constexpr std::size_t kInstances = 1000;

  // ------------------------------------------------------------- workloads
  const apps::MpegModel mpeg = apps::MakeMpegModel(trace);
  const apps::CruiseModel cruise = apps::MakeCruiseModel(trace);
  const std::vector<bench::TestCase> random_cases =
      bench::MakeTable45Cases(trace);

  std::vector<Suite> suites;
  {
    Suite s;
    s.name = "mpeg";
    s.graph = &mpeg.graph;
    s.platform = &mpeg.platform;
    s.analysis = std::make_unique<ctg::ActivationAnalysis>(mpeg.graph);
    s.vectors = apps::GenerateMovieTrace(
        mpeg, apps::MpegMovieProfiles()[5] /* Shuttle: volatile */,
        kInstances);
    s.profile = s.vectors.ProfiledProbabilities(mpeg.graph);
    suites.push_back(std::move(s));
  }
  {
    Suite s;
    s.name = "cruise";
    s.graph = &cruise.graph;
    s.platform = &cruise.platform;
    s.analysis = std::make_unique<ctg::ActivationAnalysis>(cruise.graph);
    s.vectors = apps::GenerateRoadTrace(cruise, 1, kInstances, 42);
    s.profile = s.vectors.ProfiledProbabilities(cruise.graph);
    suites.push_back(std::move(s));
  }
  for (std::size_t c = 0; c < 2; ++c) {
    const bench::TestCase& test = random_cases[c];
    Suite s;
    s.name = "rand-" + test.label;
    s.graph = &test.rc.graph;
    s.platform = &test.rc.platform;
    s.analysis = std::make_unique<ctg::ActivationAnalysis>(test.rc.graph);
    s.vectors = bench::MakeFluctuatingVectors(test.rc.graph, kInstances,
                                              777 + c);
    s.profile = s.vectors.ProfiledProbabilities(test.rc.graph);
    suites.push_back(std::move(s));
  }

  // ------------------------------------------------------------- the sweep
  const std::vector<double> intensities = {0.0, 0.25, 0.5, 1.0};

  // Flat job list: suites x intensities x {degrade off, on}, plus one
  // fault-free control per suite. Every job is self-contained, so the
  // pool order never shows in the results.
  struct Job {
    std::size_t suite;
    double intensity = 0.0;
    bool degrade = false;
    bool control = false;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < suites.size(); ++s) {
    jobs.push_back(Job{s, 0.0, false, true});
    for (const double intensity : intensities) {
      jobs.push_back(Job{s, intensity, false, false});
      jobs.push_back(Job{s, intensity, true, false});
    }
  }
  const std::vector<SweepRow> rows =
      runtime::ParallelMap(pool, jobs.size(), [&](std::size_t j) {
        const Job& job = jobs[j];
        return job.control ? RunControl(suites[job.suite], metrics, trace)
                           : RunOne(suites[job.suite], job.intensity,
                                    job.degrade, metrics, trace);
      });
  const auto row_of = [&](std::size_t suite, double intensity,
                          bool degrade, bool control) -> const SweepRow& {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].suite == suite && jobs[j].control == control &&
          (control || (jobs[j].intensity == intensity &&
                       jobs[j].degrade == degrade))) {
        return rows[j];
      }
    }
    ACTG_CHECK(false, "sweep job not found");
  };

  // ------------------------------------------------------- report + gates
  util::PrintBanner(std::cout,
                    "Fault-injection sweep - miss rate and energy vs "
                    "injection intensity (1000 instances per run, "
                    "window 20, threshold 0.1)");

  const std::string csv_path = util::OutputPath("faults_sweep.csv");
  util::AtomicFile csv_file(csv_path);
  util::CsvWriter csv(csv_file.os());
  csv.WriteRow(std::vector<std::string>{
      "suite", "intensity", "degrade", "instances", "energy_mj", "misses",
      "miss_rate", "overrun_instances", "failed_pe_hits", "escalations",
      "oob_reschedules", "recoveries"});

  bool gates_ok = true;
  std::size_t misses_with_ladder = 0;
  std::size_t misses_without_ladder = 0;

  for (std::size_t s = 0; s < suites.size(); ++s) {
    util::TablePrinter table({"intensity", "ladder", "energy mJ",
                              "misses", "overruns", "PE hits",
                              "escalations", "oob", "recoveries"});
    for (const double intensity : intensities) {
      for (const bool degrade : {false, true}) {
        const SweepRow& row = row_of(s, intensity, degrade, false);
        table.BeginRow()
            .Cell(intensity, 2)
            .Cell(degrade ? "on" : "off")
            .Cell(row.summary.total_energy_mj, 1)
            .Cell(row.summary.deadline_misses)
            .Cell(row.summary.overrun_instances)
            .Cell(row.summary.failed_pe_hits)
            .Cell(row.escalations)
            .Cell(row.oob_reschedules)
            .Cell(row.recoveries);
        if (intensity > 0.0) {
          (degrade ? misses_with_ladder : misses_without_ladder) +=
              row.summary.deadline_misses;
        }
        csv.WriteRow(std::vector<std::string>{
            suites[s].name, util::TablePrinter::Format(intensity, 2),
            degrade ? "on" : "off", std::to_string(kInstances),
            util::TablePrinter::Format(row.summary.total_energy_mj, 3),
            std::to_string(row.summary.deadline_misses),
            util::TablePrinter::Format(row.summary.MissRate(), 4),
            std::to_string(row.summary.overrun_instances),
            std::to_string(row.summary.failed_pe_hits),
            std::to_string(row.escalations),
            std::to_string(row.oob_reschedules),
            std::to_string(row.recoveries)});
      }
    }
    util::PrintBanner(std::cout, "suite " + suites[s].name);
    table.Print(std::cout);

    // Gate 1: zero injection must be byte-identical to the fault-free
    // control - same energy bits, same misses, same reschedule count.
    const SweepRow& control = row_of(s, 0.0, false, true);
    const SweepRow& zero = row_of(s, 0.0, false, false);
    if (!BitIdentical(control.summary.total_energy_mj,
                      zero.summary.total_energy_mj) ||
        control.summary.deadline_misses != zero.summary.deadline_misses ||
        control.reschedules != zero.reschedules) {
      std::cout << "GATE FAIL (" << suites[s].name
                << "): zero-intensity run diverges from the fault-free "
                   "control\n";
      gates_ok = false;
    }
  }

  std::cout << "\nTotal misses under injection: ladder off "
            << misses_without_ladder << ", ladder on "
            << misses_with_ladder << "\n";
  // Gate 2: the ladder must not be worse than the no-degrade ablation.
  if (misses_with_ladder > misses_without_ladder) {
    std::cout << "GATE FAIL: degradation ladder increased total misses\n";
    gates_ok = false;
  }
  std::cout << (gates_ok ? "gates: OK" : "gates: FAIL") << "\n";
  csv_file.Commit().ThrowIfError();
  std::cout << "sweep series written to " << csv_path << "\n";

  sim::WriteMetricsReport(std::cerr, metrics);
  return gates_ok ? 0 : 1;
}
