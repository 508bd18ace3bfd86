// Differential suite of the shared guard evaluation: the energy sums,
// the schedule report and the online and NLP stretchers over one
// ActivationAnalysis::Evaluate against a reference copy of their
// per-call formulation (every edge guard rebuilt as X(src) ∧ X(dst) ∧
// C(e) and every task and edge guard Shannon-expanded on each call, one
// ActivationProbability per task in the stretchers). The production
// path builds the edge guards once, expands each distinct guard once per
// probability vector and shares the result between callers; every value
// it produces must be bit-identical to the reference's.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
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
#include "dvfs/path_engine.h"
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

/// The stretchers' shared step: speed for \p slack_ms, lock, commit.
void RefApplySlack(sched::Schedule& schedule, dvfs::PathEngine& paths,
                   TaskId task, double slack_ms) {
  const double wcet = schedule.NominalWcet(task);
  const double allotted = wcet + std::max(slack_ms, 0.0);
  const double sigma = schedule.platform().QuantizeSpeed(
      schedule.placement(task).pe, wcet / allotted);
  schedule.placement(task).speed_ratio = sigma;
  paths.CommitTask(task, wcet / sigma - wcet, wcet);
}

/// StretchOnline (no warm start) with one ActivationProbability per task.
void RefStretchOnline(sched::Schedule& schedule,
                      const ctg::BranchProbabilities& probs) {
  constexpr double kProbEps = 1e-9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const double deadline = schedule.graph().deadline_ms();
  dvfs::PathEngine paths(schedule.graph(), analysis, schedule.platform());
  paths.Enumerate(schedule);
  paths.BindProbabilities(probs);
  std::vector<TaskId> order = schedule.graph().TaskIds();
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return schedule.placement(a).order_index <
           schedule.placement(b).order_index;
  });
  for (TaskId task : order) {
    if (paths.Spanning(task).empty()) continue;
    const double wcet = schedule.NominalWcet(task);
    const double p_task = analysis.ActivationProbability(task, probs);
    const dvfs::PathEngine::SpanningScan scan =
        paths.ScanSpanning(task, deadline);
    double slk1 = 0.0;
    bool any_uncertain = false;
    for (const ctg::Minterm& m : analysis.Gamma(task)) {
      const dvfs::PathEngine::MintermProbe probe = paths.Probe(m);
      double best_ratio = kInf;
      double best_prob = 0.0;
      for (std::size_t j = 0; j < scan.entries.size(); ++j) {
        if (scan.prob_after[j] >= 1.0 - kProbEps) continue;
        if (!paths.GuardCompatibleWith(scan.entries[j].path, probe)) continue;
        if (scan.slack_ratio[j] < best_ratio) {
          best_ratio = scan.slack_ratio[j];
          best_prob = scan.prob_after[j];
        }
      }
      if (best_ratio < kInf) {
        any_uncertain = true;
        slk1 += best_prob * wcet * best_ratio * p_task;
      }
    }
    double slk2 = kInf;
    bool any_certain = false;
    for (std::size_t j = 0; j < scan.entries.size(); ++j) {
      if (scan.prob_after[j] < 1.0 - kProbEps) continue;
      const double candidate = wcet * scan.slack_ratio[j] * p_task;
      if (candidate < slk2) {
        slk2 = candidate;
        any_certain = true;
      }
    }
    double slack = 0.0;
    if (any_uncertain && any_certain) {
      slack = std::min(slk1, slk2);
    } else if (any_uncertain) {
      slack = slk1;
    } else if (any_certain) {
      slack = slk2;
    }
    for (const dvfs::PathEngine::SpanEntry& entry : paths.Spanning(task)) {
      slack = std::min(slack, deadline - paths.delay_ms(entry.path));
    }
    RefApplySlack(schedule, paths, task, std::max(slack, 0.0));
  }
  schedule.RecomputeTimes();
}

/// StretchNlp with one ActivationProbability per task.
void RefStretchNlp(sched::Schedule& schedule,
                   const ctg::BranchProbabilities& probs,
                   const dvfs::NlpOptions& options) {
  const ctg::ActivationAnalysis& analysis = schedule.analysis();
  const double deadline = schedule.graph().deadline_ms();
  dvfs::PathEngine paths(schedule.graph(), analysis, schedule.platform());
  paths.Enumerate(schedule);
  const std::size_t n = schedule.graph().task_count();
  std::vector<double> w(n), ub(n), g(n), t(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId id{static_cast<int>(i)};
    const PeId pe = schedule.placement(id).pe;
    w[i] = schedule.NominalWcet(id);
    ub[i] = w[i] / schedule.platform().pe(pe).min_speed_ratio;
    g[i] = analysis.ActivationProbability(id, probs) *
           schedule.platform().Energy(id, pe) * w[i] * w[i];
    t[i] = w[i];
  }
  struct Constraint {
    std::vector<std::size_t> members;
    double cap;
    double nominal;
  };
  std::vector<Constraint> constraints;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Constraint c{{}, deadline - paths.comm_ms(i), 0.0};
    for (TaskId task : paths.TasksOf(i)) {
      c.members.push_back(task.index());
      c.nominal += w[task.index()];
    }
    constraints.push_back(std::move(c));
  }
  const auto project = [&](int max_sweeps) {
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
      bool violated = false;
      for (const Constraint& c : constraints) {
        double total = 0.0;
        for (std::size_t i : c.members) total += t[i];
        if (total <= c.cap + 1e-9) continue;
        violated = true;
        const double denom = total - c.nominal;
        const double beta =
            denom > 1e-12
                ? std::clamp((c.cap - c.nominal) / denom, 0.0, 1.0)
                : 0.0;
        for (std::size_t i : c.members) t[i] = w[i] + beta * (t[i] - w[i]);
      }
      if (!violated) return true;
    }
    return false;
  };
  const auto objective = [&]() {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += g[i] / (t[i] * t[i]);
    return total;
  };
  ASSERT_TRUE(project(1 << 20));
  std::vector<double> best_t = t;
  double best_obj = objective();
  double step = options.initial_step;
  for (int iter = 0; iter < options.iterations; ++iter) {
    double max_dir = 0.0;
    std::vector<double> dir(n);
    for (std::size_t i = 0; i < n; ++i) {
      dir[i] = 2.0 * g[i] / (t[i] * t[i] * t[i]);
      max_dir = std::max(max_dir, dir[i]);
    }
    if (max_dir <= 0.0) break;
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = std::clamp(t[i] + step * w[i] * dir[i] / max_dir, w[i], ub[i]);
    }
    const bool feasible = project(options.projection_sweeps);
    const double obj = objective();
    if (feasible && obj < best_obj - 1e-12) {
      best_obj = obj;
      best_t = t;
    } else {
      t = best_t;
      step *= 0.7;
      if (step < 1e-6) break;
    }
  }
  t = best_t;
  std::vector<std::vector<std::size_t>> memberships(n);
  std::vector<double> path_total(constraints.size(), 0.0);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    for (std::size_t i : constraints[c].members) {
      memberships[i].push_back(c);
      path_total[c] += t[i];
    }
  }
  for (int round = 0; round < 8; ++round) {
    bool grew = false;
    for (std::size_t i = 0; i < n; ++i) {
      double room = ub[i] - t[i];
      for (std::size_t c : memberships[i]) {
        room = std::min(room, constraints[c].cap - path_total[c]);
      }
      if (room > 1e-9) {
        t[i] += room;
        grew = true;
        for (std::size_t c : memberships[i]) path_total[c] += room;
      }
    }
    if (!grew) break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    RefApplySlack(schedule, paths, TaskId{static_cast<int>(i)}, t[i] - w[i]);
  }
  schedule.RecomputeTimes();
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

void ExpectSameSpeeds(const sched::Schedule& got,
                      const sched::Schedule& want) {
  for (TaskId task : got.graph().TaskIds()) {
    EXPECT_EQ(Bits(got.placement(task).speed_ratio),
              Bits(want.placement(task).speed_ratio))
        << "task " << task.value;
    EXPECT_EQ(Bits(got.placement(task).finish_ms),
              Bits(want.placement(task).finish_ms))
        << "task " << task.value;
  }
}

TEST(StretchDifferential, OnlineSpeedsEqualThePerTaskReference) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    const ctg::ActivationAnalysis analysis(model.graph);
    dvfs::PathEngine engine(model.graph, analysis, model.platform);
    for (int k = 0; k < kVectors; ++k) {
      SCOPED_TRACE("vector " + std::to_string(k));
      const ctg::BranchProbabilities probs = Vector(model.graph, k);
      const sched::Schedule nominal =
          sched::RunDls(model.graph, analysis, model.platform, probs);
      sched::Schedule want = nominal;
      RefStretchOnline(want, probs);
      sched::Schedule got = nominal;
      dvfs::StretchOnline(got, probs);
      ExpectSameSpeeds(got, want);
      sched::Schedule reused = nominal;
      dvfs::StretchOnline(reused, probs, {}, &engine);
      ExpectSameSpeeds(reused, want);
    }
  }
}

TEST(StretchDifferential, NlpSpeedsEqualThePerTaskReference) {
  dvfs::NlpOptions options;
  options.iterations = 300;
  std::size_t checked = 0;
  for (const Model& model : Models()) {
    // Every structured model and one random model in four keep the
    // 300-iteration NLP cheap.
    if (model.name.rfind("random", 0) == 0 && checked++ % 4 != 0) continue;
    SCOPED_TRACE(model.name);
    const ctg::ActivationAnalysis analysis(model.graph);
    for (int k = 0; k < 4; ++k) {
      SCOPED_TRACE("vector " + std::to_string(k));
      const ctg::BranchProbabilities probs = Vector(model.graph, 3 * k);
      const sched::Schedule nominal =
          sched::RunDls(model.graph, analysis, model.platform, probs);
      sched::Schedule want = nominal;
      RefStretchNlp(want, probs, options);
      sched::Schedule got = nominal;
      dvfs::StretchNlp(got, probs, options);
      ExpectSameSpeeds(got, want);
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
