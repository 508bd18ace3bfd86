/// \file bench_table1.cpp
/// Reproduces paper Table 1: normalized expected energy of Reference
/// Algorithm 1 [10], Reference Algorithm 2 [17] and the online algorithm
/// on five random CTGs, with the online energy normalized to 100. Also
/// reports the per-CTG stretching runtimes backing the paper's claim
/// that the heuristic is orders of magnitude faster than the NLP
/// (paper: ~0.6 ms vs ~70 s, about 120000x).

#include <chrono>
#include <iostream>

#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "experiments.h"
#include "obs/setup.h"
#include "runtime/pool.h"
#include "sim/energy.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace actg;

  obs::ScopedTracing tracing(argc, argv);
  runtime::Pool pool(runtime::ParseJobs(argc, argv), tracing.session());

  util::PrintBanner(std::cout,
                    "Table 1 - Energy consumption of online algorithm "
                    "(normalized, online = 100)");

  util::TablePrinter table({"CTG", "a/b/c", "Reference Algorithm 1",
                            "Reference Algorithm 2", "Online Algorithm",
                            "online ms", "NLP ms"});

  // Energies are deterministic for any worker count; the two wall-clock
  // columns are measurements and vary run to run regardless of jobs.
  struct Row {
    double e_online = 0.0;
    double e_ref1 = 0.0;
    double e_ref2 = 0.0;
    double online_ms = 0.0;
    double nlp_ms = 0.0;
  };
  const std::vector<bench::TestCase> cases =
      bench::MakeTable1Cases(tracing.session());
  const std::vector<Row> rows = runtime::ParallelMap(
      pool, cases.size(), [&](std::size_t i) {
        const bench::TestCase& test = cases[i];
        const int index = static_cast<int>(i) + 1;
        const ctg::Ctg& graph = test.rc.graph;
        const arch::Platform& platform = test.rc.platform;
        const ctg::ActivationAnalysis analysis(graph);

        // "The branching probabilities for all branching nodes were
        // randomly generated."
        util::Random rng(99 + static_cast<std::uint64_t>(index));
        ctg::BranchProbabilities probs(graph.task_count());
        for (TaskId fork : graph.ForkIds()) {
          const double p = rng.Uniform(0.1, 0.9);
          probs.Set(fork, {p, 1.0 - p});
        }

        const auto t0 = Clock::now();
        const sched::Schedule online = dvfs::RunOnlineAlgorithm(
            graph, analysis, platform, probs, tracing.session());
        const auto t1 = Clock::now();
        const sched::Schedule ref2 = dvfs::RunReference2(
            graph, analysis, platform, probs, {}, tracing.session());
        const auto t2 = Clock::now();
        const sched::Schedule ref1 = dvfs::RunReference1(
            graph, analysis, platform, probs, tracing.session());

        const ctg::ActivationProbabilities p = analysis.Evaluate(probs);
        Row row;
        row.e_online = sim::ExpectedEnergy(online, p);
        row.e_ref1 = sim::ExpectedEnergy(ref1, p);
        row.e_ref2 = sim::ExpectedEnergy(ref2, p);
        row.online_ms = Ms(t0, t1);
        row.nlp_ms = Ms(t1, t2);
        return row;
      });

  double speedup_total = 0.0;
  int index = 0;
  for (const Row& row : rows) {
    const bench::TestCase& test = cases[static_cast<std::size_t>(index)];
    ++index;
    speedup_total += row.nlp_ms / std::max(row.online_ms, 1e-6);

    table.BeginRow()
        .Cell(index)
        .Cell(test.label)
        .Cell(100.0 * row.e_ref1 / row.e_online, 0)
        .Cell(100.0 * row.e_ref2 / row.e_online, 0)
        .Cell(100.0, 0)
        .Cell(row.online_ms, 3)
        .Cell(row.nlp_ms, 1);
  }
  table.Print(std::cout);

  std::cout << "\nAverage NLP/heuristic runtime ratio: "
            << util::TablePrinter::Format(speedup_total / 5.0, 0)
            << "x (paper: ~120000x between 0.6 ms heuristic and a 70 s "
               "NLP solver; our convex solver is far faster than a "
               "general NLP package, so the ratio is smaller but the "
               "ordering holds)\n";
  std::cout << "Paper reference values: Ref1 = 195/145/130/139/290, "
               "Ref2 = 87/93/95/91/97.\n";

  return 0;
}
