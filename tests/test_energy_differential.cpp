// Differential suite of the shared guard evaluation: the energy sums and
// the schedule report over one ActivationAnalysis::Evaluate against a
// reference copy of their per-call formulation (every edge guard rebuilt
// as X(src) ∧ X(dst) ∧ C(e) and every task and edge guard Shannon-
// expanded on each call). The production path builds the edge guards
// once, expands each distinct guard once per probability vector and
// shares the result between callers; every value it produces must be
// bit-identical to the reference's.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "sched/schedule.h"
#include "sim/energy.h"
#include "sim/report.h"
#include "tgff/random_ctg.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-call formulation

ctg::Guard RefEdgeGuard(const sched::Schedule& schedule, EdgeId eid) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const auto arity = graph.ArityFn();
  const ctg::Edge& e = graph.edge(eid);
  ctg::Guard guard = analysis.ActivationGuard(e.src).And(
      analysis.ActivationGuard(e.dst), arity);
  if (e.condition.has_value()) {
    guard = guard.AndCondition(*e.condition, arity);
  }
  return guard;
}

double RefExpectedComputeEnergy(const sched::Schedule& schedule,
                                const ctg::BranchProbabilities& probs) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  double total = 0.0;
  for (TaskId task : graph.TaskIds()) {
    total += analysis.ActivationProbability(task, probs) *
             schedule.ScaledEnergy(task);
  }
  return total;
}

double RefExpectedEnergy(const sched::Schedule& schedule,
                         const ctg::BranchProbabilities& probs) {
  const ctg::Ctg& graph = schedule.graph();
  double total = RefExpectedComputeEnergy(schedule, probs);
  for (EdgeId eid : graph.EdgeIds()) {
    const double energy = schedule.EdgeCommEnergy(eid);
    if (energy <= 0.0) continue;
    total += RefEdgeGuard(schedule, eid).Probability(probs) * energy;
  }
  return total;
}

double RefScenarioEnergy(const sched::Schedule& schedule,
                         const ctg::Minterm& scenario) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  double total = 0.0;
  for (TaskId task : graph.TaskIds()) {
    if (analysis.IsActive(task, scenario)) {
      total += schedule.ScaledEnergy(task);
    }
  }
  for (EdgeId eid : graph.EdgeIds()) {
    const double energy = schedule.EdgeCommEnergy(eid);
    if (energy <= 0.0) continue;
    const ctg::Guard guard = RefEdgeGuard(schedule, eid);
    bool active = false;
    for (const ctg::Minterm& m : guard.minterms()) {
      if (scenario.Implies(m)) {
        active = true;
        break;
      }
    }
    if (active) total += energy;
  }
  return total;
}

ScheduleReport RefBuildReport(const sched::Schedule& schedule,
                              const ctg::BranchProbabilities& probs) {
  const ctg::Ctg& graph = schedule.graph();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const arch::Platform& platform = schedule.platform();

  ScheduleReport report;
  report.makespan_ms = schedule.Makespan();
  report.deadline_ms = graph.deadline_ms();
  report.expected_energy_mj = RefExpectedEnergy(schedule, probs);
  report.expected_comm_energy_mj =
      report.expected_energy_mj - RefExpectedComputeEnergy(schedule, probs);

  report.pes.reserve(platform.pe_count());
  for (PeId pe : platform.PeIds()) {
    report.pes.push_back(PeReport{pe, 0, 0.0, 0.0, 0.0});
  }

  double weighted_speed = 0.0;
  double weight = 0.0;
  for (TaskId task : graph.TaskIds()) {
    const sched::TaskPlacement& placement = schedule.placement(task);
    const double p = analysis.ActivationProbability(task, probs);
    PeReport& pe_report = report.pes[placement.pe.index()];
    ++pe_report.task_count;
    pe_report.expected_busy_ms += p * schedule.ScaledWcet(task);
    pe_report.expected_energy_mj += p * schedule.ScaledEnergy(task);
    weighted_speed += p * placement.speed_ratio;
    weight += p;
  }
  for (PeReport& pe_report : report.pes) {
    pe_report.expected_utilization =
        report.makespan_ms > 0.0
            ? pe_report.expected_busy_ms / report.makespan_ms
            : 0.0;
  }
  report.mean_speed_ratio = weight > 0.0 ? weighted_speed / weight : 1.0;
  return report;
}

// ---------------------------------------------------------------------------
// Models and probability vectors

struct Model {
  std::string name;
  ctg::Ctg graph;
  arch::Platform platform;
};

std::vector<Model> Models() {
  std::vector<Model> models;
  {
    apps::Fig1Example ex = apps::MakeFig1Example();
    models.push_back({"fig1", std::move(ex.graph), std::move(ex.platform)});
  }
  {
    apps::MpegModel m = apps::MakeMpegModel();
    models.push_back({"mpeg", std::move(m.graph), std::move(m.platform)});
  }
  {
    apps::CruiseModel m = apps::MakeCruiseModel();
    models.push_back({"cruise", std::move(m.graph), std::move(m.platform)});
  }
  // random1 (fork-join) and random2 (flat), 12 seeds each, across sizes.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (auto category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      tgff::RandomCtgParams params;
      params.task_count = 14 + static_cast<int>(seed % 4) * 6;
      params.fork_count = 1 + static_cast<int>(seed % 4);
      params.pe_count = 2 + static_cast<int>(seed % 3);
      params.category = category;
      params.seed = 500 + seed;
      tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
      apps::AssignDeadline(rc.graph, rc.platform, 1.5);
      models.push_back(
          {std::string(category == tgff::Category::kForkJoin ? "random1"
                                                              : "random2") +
               "/" + std::to_string(seed),
           std::move(rc.graph), std::move(rc.platform)});
    }
  }
  return models;
}

/// Vector k of a model: uniform (k = 0), every fork certain of its
/// first (k = 1) or last (k = 2) outcome, and random distributions in
/// which some outcomes are exactly 0 or 1 (k >= 3).
ctg::BranchProbabilities Vector(const ctg::Ctg& graph, int k) {
  ctg::BranchProbabilities probs(graph.task_count());
  util::Random rng(1000 + static_cast<std::uint64_t>(k));
  for (TaskId fork : graph.ForkIds()) {
    const auto n = static_cast<std::size_t>(graph.OutcomeCount(fork));
    std::vector<double> dist(n, 0.0);
    if (k == 0) {
      for (double& p : dist) p = 1.0 / static_cast<double>(n);
    } else if (k == 1) {
      dist.front() = 1.0;
    } else if (k == 2) {
      dist.back() = 1.0;
    } else if (rng.Bernoulli(0.3)) {
      dist[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(n) - 1))] = 1.0;
    } else {
      double sum = 0.0;
      for (double& p : dist) {
        p = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.05, 1.0);
        sum += p;
      }
      if (sum == 0.0) {
        dist[0] = 1.0;
        sum = 1.0;
      }
      for (double& p : dist) p /= sum;
    }
    probs.Set(fork, dist);
  }
  return probs;
}

constexpr int kVectors = 12;

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void ExpectReportsEqual(const ScheduleReport& got,
                        const ScheduleReport& want) {
  EXPECT_EQ(got.makespan_ms, want.makespan_ms);
  EXPECT_EQ(got.deadline_ms, want.deadline_ms);
  EXPECT_EQ(got.expected_energy_mj, want.expected_energy_mj);
  EXPECT_EQ(got.expected_comm_energy_mj, want.expected_comm_energy_mj);
  EXPECT_EQ(got.mean_speed_ratio, want.mean_speed_ratio);
  ASSERT_EQ(got.pes.size(), want.pes.size());
  for (std::size_t i = 0; i < got.pes.size(); ++i) {
    EXPECT_EQ(got.pes[i].pe, want.pes[i].pe);
    EXPECT_EQ(got.pes[i].task_count, want.pes[i].task_count);
    EXPECT_EQ(got.pes[i].expected_busy_ms, want.pes[i].expected_busy_ms);
    EXPECT_EQ(got.pes[i].expected_utilization,
              want.pes[i].expected_utilization);
    EXPECT_EQ(got.pes[i].expected_energy_mj, want.pes[i].expected_energy_mj);
  }
}

// ---------------------------------------------------------------------------
// Tests

TEST(EnergyDifferential, EdgeGuardsAreTheReferenceConjunction) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    const ctg::ActivationAnalysis analysis(model.graph);
    const auto arity = model.graph.ArityFn();
    for (EdgeId eid : model.graph.EdgeIds()) {
      const ctg::Edge& e = model.graph.edge(eid);
      ctg::Guard want = analysis.ActivationGuard(e.src).And(
          analysis.ActivationGuard(e.dst), arity);
      if (e.condition.has_value()) {
        want = want.AndCondition(*e.condition, arity);
      }
      EXPECT_EQ(analysis.EdgeGuard(eid), want) << "edge " << eid.value;
    }
  }
}

TEST(EnergyDifferential, EvaluationEqualsPerGuardProbabilities) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    const ctg::ActivationAnalysis analysis(model.graph);
    for (int k = 0; k < kVectors; ++k) {
      SCOPED_TRACE("vector " + std::to_string(k));
      const ctg::BranchProbabilities probs = Vector(model.graph, k);
      const ctg::ActivationProbabilities p = analysis.Evaluate(probs);
      ASSERT_EQ(p.task_count(), model.graph.task_count());
      ASSERT_EQ(p.edge_count(), model.graph.edge_count());
      for (TaskId task : model.graph.TaskIds()) {
        EXPECT_EQ(Bits(p.task(task)),
                  Bits(analysis.ActivationProbability(task, probs)))
            << "task " << task.value;
      }
      for (EdgeId eid : model.graph.EdgeIds()) {
        EXPECT_EQ(Bits(p.edge(eid)),
                  Bits(analysis.EdgeGuard(eid).Probability(probs)))
            << "edge " << eid.value;
      }
    }
  }
}

TEST(EnergyDifferential, SharedEvaluationSumsEqualTheReference) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    const ctg::ActivationAnalysis analysis(model.graph);
    const ctg::BranchProbabilities uniform =
        apps::UniformProbabilities(model.graph);
    // The nominal DLS schedule is judged under every vector, as the
    // controller judges its running schedule under a new estimate.
    const sched::Schedule nominal =
        sched::RunDls(model.graph, analysis, model.platform, uniform);
    const std::vector<ctg::Minterm> scenarios =
        analysis.EnumerateScenarioAssignments();
    for (int k = 0; k < kVectors; ++k) {
      SCOPED_TRACE("vector " + std::to_string(k));
      const ctg::BranchProbabilities probs = Vector(model.graph, k);
      sched::Schedule stretched =
          sched::RunDls(model.graph, analysis, model.platform, probs);
      dvfs::StretchOnline(stretched, probs);
      const ctg::ActivationProbabilities p = analysis.Evaluate(probs);
      const sched::Schedule* const schedules[] = {&nominal, &stretched};
      for (const sched::Schedule* s : schedules) {
        const double want = RefExpectedEnergy(*s, probs);
        EXPECT_EQ(ExpectedEnergy(*s, p), want);
        EXPECT_EQ(ExpectedEnergy(*s, probs), want);
        const double want_compute = RefExpectedComputeEnergy(*s, probs);
        EXPECT_EQ(ExpectedComputeEnergy(*s, p), want_compute);
        EXPECT_EQ(ExpectedComputeEnergy(*s, probs), want_compute);
        ExpectReportsEqual(BuildReport(*s, probs), RefBuildReport(*s, probs));
      }
      if (k == 0) {
        for (const ctg::Minterm& scenario : scenarios) {
          EXPECT_EQ(ScenarioEnergy(stretched, scenario),
                    RefScenarioEnergy(stretched, scenario));
        }
      }
    }
  }
}

TEST(EnergyDifferential, ForeignEvaluationIsRejected) {
  const apps::Fig1Example fig1 = apps::MakeFig1Example();
  const ctg::ActivationAnalysis fig1_analysis(fig1.graph);
  const sched::Schedule fig1_schedule = sched::RunDls(
      fig1.graph, fig1_analysis, fig1.platform, fig1.probs);
  const apps::MpegModel mpeg = apps::MakeMpegModel();
  const ctg::ActivationAnalysis mpeg_analysis(mpeg.graph);
  const ctg::ActivationProbabilities foreign =
      mpeg_analysis.Evaluate(apps::UniformProbabilities(mpeg.graph));
  EXPECT_THROW(ExpectedEnergy(fig1_schedule, foreign), InvalidArgument);
  EXPECT_THROW(ExpectedComputeEnergy(fig1_schedule, foreign),
               InvalidArgument);
}

TEST(EnergyDifferential, StructuredModelsRepeatFewGuards) {
  // Each distinct DNF is expanded once per Evaluate.
  const apps::MpegModel mpeg = apps::MakeMpegModel();
  const ctg::ActivationAnalysis mpeg_analysis(mpeg.graph);
  EXPECT_EQ(mpeg.graph.task_count() + mpeg.graph.edge_count(), 104u);
  EXPECT_EQ(mpeg_analysis.distinct_guard_count(), 19u);
  const apps::CruiseModel cruise = apps::MakeCruiseModel();
  const ctg::ActivationAnalysis cruise_analysis(cruise.graph);
  EXPECT_EQ(cruise.graph.task_count() + cruise.graph.edge_count(), 66u);
  EXPECT_EQ(cruise_analysis.distinct_guard_count(), 5u);
}

}  // namespace
}  // namespace actg::sim
