/// \file actg_cli.cpp
/// Command-line driver around the library's file format, for using the
/// framework without writing C++:
///
///   actg_cli generate <tasks> <pes> <forks> <category 1|2> <seed> <prefix>
///       Generate a random CTG + platform and write <prefix>_ctg.txt /
///       <prefix>_platform.txt.
///   actg_cli schedule <ctg.txt> <platform.txt> [ref1|ref2|--policy <p>]
///       Schedule + stretch (default: the online algorithm) and print
///       the Gantt chart and expected energy under uniform
///       probabilities. --policy selects any registered stretch policy
///       by name (see dvfs::PolicyNames); ref1/ref2 run the paper's
///       reference pipelines.
///   actg_cli simulate <ctg.txt> <platform.txt> <instances> <seed>
///       Drive the graph with equal-average fluctuating vectors and
///       compare the non-adaptive online algorithm against the adaptive
///       controller at thresholds 0.5 and 0.1. With --faults <plan>
///       the run additionally injects the plan's faults (seeded from
///       <seed> unless the plan pins its own) and engages the adaptive
///       controller's graceful-degradation ladder; --no-degrade keeps
///       the ladder off for ablation. Without --faults the output is
///       identical to previous releases.
///       --reschedule-mode <full|incremental> selects how the adaptive
///       controller recomputes on a threshold crossing: a full DLS +
///       stretch pass (default, the reference semantics) or
///       warm-started incremental DLS (see adaptive::RescheduleMode).
///
/// Every command also understands --trace <file> (or the ACTG_TRACE
/// environment variable): the run's instrumented stages are written as
/// Chrome trace_event JSON to <file> plus a per-iteration timeline CSV
/// next to it.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "apps/common.h"
#include "cli_common.h"
#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "dvfs/policy.h"
#include "experiments.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "io/text_format.h"
#include "obs/setup.h"
#include "sched/gantt.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "sim/report.h"
#include "tgff/random_ctg.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace actg;

int Usage() {
  std::string policies;
  for (const std::string& name : dvfs::PolicyNames()) {
    if (!policies.empty()) policies += "|";
    policies += name;
  }
  std::cerr
      << "usage:\n"
      << "  actg_cli generate <tasks> <pes> <forks> <category 1|2> "
         "<seed> <prefix>\n"
      << "  actg_cli schedule <ctg.txt> <platform.txt> "
         "[ref1|ref2|--policy <" +
             policies + ">]\n"
      << "  actg_cli simulate <ctg.txt> <platform.txt> <instances> "
         "<seed> [--faults <plan> [--no-degrade]] "
         "[--reschedule-mode <full|incremental>]\n"
      << "common options: --trace <file> (Chrome trace JSON + timeline "
         "CSV)\n";
  return 2;
}

/// Optional flags of the simulate command, stripped from argv before
/// positional parsing (mirroring obs::ParseTracePath).
struct SimulateFlags {
  std::optional<std::string> plan_path;
  bool no_degrade = false;
  adaptive::RescheduleMode reschedule_mode = adaptive::RescheduleMode::kFull;
};

SimulateFlags ParseSimulateFlags(int& argc, char** argv) {
  SimulateFlags flags;
  flags.plan_path = cli::TakeFlag(argc, argv, "--faults");
  flags.no_degrade = cli::TakeSwitch(argc, argv, "--no-degrade");
  if (const auto name = cli::TakeFlag(argc, argv, "--reschedule-mode")) {
    const auto mode = adaptive::ParseRescheduleMode(*name);
    ACTG_CHECK(mode.has_value(),
               "unknown --reschedule-mode '" + *name +
                   "' (expected full or incremental)");
    flags.reschedule_mode = *mode;
  }
  return flags;
}

ctg::Ctg LoadCtg(const std::string& path) {
  std::ifstream in(path);
  ACTG_CHECK(in.good(), "cannot open CTG file: " + path);
  return io::ParseCtg(in).value();
}

arch::Platform LoadPlatform(const std::string& path) {
  std::ifstream in(path);
  ACTG_CHECK(in.good(), "cannot open platform file: " + path);
  return io::ParsePlatform(in).value();
}

int CmdGenerate(int argc, char** argv) {
  if (argc != 8) return Usage();
  tgff::RandomCtgParams params;
  params.task_count = std::atoi(argv[2]);
  params.pe_count = std::atoi(argv[3]);
  params.fork_count = std::atoi(argv[4]);
  params.category = std::atoi(argv[5]) == 2 ? tgff::Category::kFlat
                                            : tgff::Category::kForkJoin;
  params.seed = static_cast<std::uint64_t>(std::atoll(argv[6]));
  const std::string prefix = argv[7];

  util::Expected<tgff::RandomCase> generated = tgff::MakeRandomCtg(params);
  if (!generated.ok()) {
    std::cerr << "error: " << generated.error().message() << "\n";
    return 1;
  }
  tgff::RandomCase& rc = generated.value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.3);
  std::ofstream graph_out(prefix + "_ctg.txt");
  io::WriteCtg(graph_out, rc.graph);
  std::ofstream platform_out(prefix + "_platform.txt");
  io::WritePlatform(platform_out, rc.platform);
  std::cout << "wrote " << prefix << "_ctg.txt and " << prefix
            << "_platform.txt (" << rc.graph.task_count() << " tasks, "
            << rc.graph.ForkIds().size() << " forks, deadline "
            << rc.graph.deadline_ms() << " ms)\n";
  return 0;
}

int CmdSchedule(int argc, char** argv) {
  // Accept the algorithm either positionally (ref1/ref2, or a registry
  // policy name for backwards compatibility with the old online|...
  // spelling) or as --policy <name>.
  std::string algorithm = "online";
  if (argc == 6 && std::string(argv[4]) == "--policy") {
    algorithm = argv[5];
  } else if (argc == 5) {
    algorithm = argv[4];
  } else if (argc != 4) {
    return Usage();
  }
  const ctg::Ctg graph = LoadCtg(argv[2]);
  const arch::Platform platform = LoadPlatform(argv[3]);
  const ctg::ActivationAnalysis analysis(graph);
  const auto probs = apps::UniformProbabilities(graph);

  sched::Schedule schedule = [&] {
    if (algorithm == "ref1") {
      return dvfs::RunReference1(graph, analysis, platform, probs);
    }
    if (algorithm == "ref2") {
      return dvfs::RunReference2(graph, analysis, platform, probs);
    }
    // Everything else resolves through the policy registry (GetPolicy
    // reports the registered names on an unknown one).
    dvfs::GetPolicy(algorithm);
    return dvfs::RunWithPolicy(algorithm, graph, analysis, platform,
                               probs);
  }();
  schedule.Validate();

  sched::WriteGantt(std::cout, schedule);
  std::cout << "\nalgorithm:      " << algorithm
            << "\nworst makespan: " << sim::MaxScenarioMakespan(schedule)
            << " ms over all scenarios\n\n";
  sim::WriteReport(std::cout, sim::BuildReport(schedule, probs));
  return 0;
}

int CmdSimulate(int argc, char** argv, const SimulateFlags& flags) {
  if (argc != 6) return Usage();
  const ctg::Ctg graph = LoadCtg(argv[2]);
  const arch::Platform platform = LoadPlatform(argv[3]);
  const auto instances = static_cast<std::size_t>(std::atoll(argv[4]));
  const auto seed = static_cast<std::uint64_t>(std::atoll(argv[5]));
  const ctg::ActivationAnalysis analysis(graph);

  // Equal-average fluctuating vectors (the Tables 4/5 workload).
  const trace::BranchTrace vectors =
      bench::MakeFluctuatingVectors(graph, instances, seed);
  const auto profile = vectors.ProfiledProbabilities(graph);

  const sched::Schedule online =
      dvfs::RunOnlineAlgorithm(graph, analysis, platform, profile);

  if (!flags.plan_path.has_value()) {
    // The fault-free path: unchanged output, byte for byte.
    const sim::RunSummary base = sim::RunTrace(online, vectors);
    util::TablePrinter table({"configuration", "total energy (mJ)",
                              "avg (mJ)", "re-schedules", "misses"});
    table.BeginRow()
        .Cell("online (static profile)")
        .Cell(base.total_energy_mj, 1)
        .Cell(base.AverageEnergy(), 3)
        .Cell(0)
        .Cell(base.deadline_misses);
    bench::ExperimentSpec spec(graph, analysis, platform);
    spec.WithProfile(profile).WithWindow(20).WithRescheduleMode(
        flags.reschedule_mode);
    for (double threshold : {0.5, 0.1}) {
      bench::AdaptiveHarness harness =
          spec.WithThreshold(threshold).BuildAdaptive();
      const sim::RunSummary run = harness.Run(vectors);
      table.BeginRow()
          .Cell("adaptive T=" + util::TablePrinter::Format(threshold, 1))
          .Cell(run.total_energy_mj, 1)
          .Cell(run.AverageEnergy(), 3)
          .Cell(harness.reschedule_count())
          .Cell(run.deadline_misses);
    }
    table.Print(std::cout);
    return 0;
  }

  // Fault-injected path: same protocol, plus the injector's effects and
  // the degradation ladder (unless --no-degrade ablates it).
  std::ifstream plan_in(*flags.plan_path);
  ACTG_CHECK(plan_in.good(),
             "cannot open fault plan: " + *flags.plan_path);
  util::Expected<faults::FaultPlan> plan = faults::ParseFaultPlan(plan_in);
  if (!plan.ok()) {
    std::cerr << "error: " << plan.error().message() << "\n";
    return 1;
  }
  const faults::Injector injector(plan.value(), graph, platform, seed);

  const sim::RunSummary base =
      sim::RunTraceWithFaults(online, vectors, injector);
  util::TablePrinter table({"configuration", "total energy (mJ)",
                            "avg (mJ)", "re-schedules", "misses",
                            "overruns", "escalations"});
  table.BeginRow()
      .Cell("online (static profile)")
      .Cell(base.total_energy_mj, 1)
      .Cell(base.AverageEnergy(), 3)
      .Cell(0)
      .Cell(base.deadline_misses)
      .Cell(base.overrun_instances)
      .Cell(0);
  bench::ExperimentSpec spec(graph, analysis, platform);
  spec.WithProfile(profile).WithWindow(20).WithRescheduleMode(
      flags.reschedule_mode);
  if (!flags.no_degrade) {
    adaptive::DegradeOptions degrade;
    degrade.enabled = true;
    spec.WithDegrade(degrade);
  }
  for (double threshold : {0.5, 0.1}) {
    bench::AdaptiveHarness harness =
        spec.WithThreshold(threshold).BuildAdaptive();
    const sim::RunSummary run = harness.RunWithFaults(vectors, injector);
    table.BeginRow()
        .Cell("adaptive T=" + util::TablePrinter::Format(threshold, 1))
        .Cell(run.total_energy_mj, 1)
        .Cell(run.AverageEnergy(), 3)
        .Cell(harness.reschedule_count())
        .Cell(run.deadline_misses)
        .Cell(run.overrun_instances)
        .Cell(harness.controller().escalation_count());
  }
  table.Print(std::cout);
  std::cout << "\nfault plan: " << *flags.plan_path << " (intensity "
            << util::TablePrinter::Format(plan.value().intensity, 2)
            << ", ladder "
            << (flags.no_degrade ? "disabled" : "enabled") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  actg::obs::ScopedTracing tracing(argc, argv);
  try {
    const SimulateFlags simulate_flags = ParseSimulateFlags(argc, argv);
    if (argc < 2) return Usage();
    const std::string command = argv[1];
    if (command == "generate") return CmdGenerate(argc, argv);
    if (command == "schedule") return CmdSchedule(argc, argv);
    if (command == "simulate")
      return CmdSimulate(argc, argv, simulate_flags);
  } catch (const actg::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
