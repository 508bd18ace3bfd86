/// \file test_scheduled_dag.cpp
/// The compiled scheduled DAG (sched::ScheduledDag) against reference
/// copies of what every reader derived on its own before it existed:
/// the per-call successor lists (CTG edges by id, then control edges,
/// then pseudo edges) and their Kahn order, and the executor that
/// walked them with one IsActive() per task. Covers the Figure 1,
/// MPEG and cruise models and generated graphs, each on its full
/// platform and on a masked one; compilation, invalidation and sharing
/// between copies and cache entries; and instance execution bit for
/// bit, with and without injected faults.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "dvfs/stretch.h"
#include "faults/injector.h"
#include "runtime/schedule_cache.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "tgff/random_ctg.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg {
namespace {

// ---------------------------------------------------------------------------
// Reference derivations (the code the compiled DAG replaced)

using Adjacency =
    std::vector<std::vector<std::pair<TaskId, std::optional<EdgeId>>>>;

Adjacency ReferenceAdjacency(const sched::Schedule& schedule) {
  const ctg::Ctg& graph = schedule.graph();
  Adjacency out(graph.task_count());
  for (EdgeId eid : graph.EdgeIds()) {
    const ctg::Edge& e = graph.edge(eid);
    out[e.src.index()].emplace_back(e.dst, eid);
  }
  for (const sched::ExtraEdge& e : schedule.control_edges()) {
    out[e.src.index()].emplace_back(e.dst, std::nullopt);
  }
  for (const sched::ExtraEdge& e : schedule.pseudo_edges()) {
    out[e.src.index()].emplace_back(e.dst, std::nullopt);
  }
  return out;
}

std::vector<TaskId> ReferenceKahn(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<int> in_degree(n, 0);
  for (const auto& out : adj) {
    for (const auto& [dst, eid] : out) ++in_degree[dst.index()];
  }
  std::vector<TaskId> order;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) order.push_back(TaskId{static_cast<int>(i)});
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [dst, eid] : adj[order[head].index()]) {
      if (--in_degree[dst.index()] == 0) order.push_back(dst);
    }
  }
  return order;
}

/// The executor before the compiled DAG: its own adjacency and Kahn
/// order per call, and IsActive() per task.
sim::InstanceResult ReferenceExecute(const sched::Schedule& schedule,
                                     const ctg::BranchAssignment& assignment,
                                     const faults::InstanceFaults* faults) {
  const ctg::Ctg& graph = schedule.graph();
  const std::size_t n = graph.task_count();
  std::vector<bool> active(n, false);
  sim::InstanceResult result;
  for (TaskId task : graph.TaskIds()) {
    active[task.index()] = schedule.analysis().IsActive(task, assignment);
    if (active[task.index()]) ++result.active_tasks;
  }
  const Adjacency adj = ReferenceAdjacency(schedule);
  const std::vector<TaskId> order = ReferenceKahn(adj);
  const bool faulted = faults != nullptr && faults->any;
  result.faults_injected = faulted;
  std::vector<double> ready(n, 0.0);
  std::vector<double> finish(n, 0.0);
  for (const TaskId u : order) {
    if (!active[u.index()]) continue;
    double factor = 1.0;
    if (faulted) {
      if (!faults->task_time_factor.empty()) {
        factor = faults->task_time_factor[u.index()];
      }
      if (faults->PeFailed(schedule.placement(u).pe)) {
        factor *= faults->rerun_penalty;
        ++result.failed_pe_hits;
      }
    }
    const double scaled_wcet = schedule.ScaledWcet(u);
    const double start = ready[u.index()];
    finish[u.index()] = start + scaled_wcet * factor;
    result.energy_mj += schedule.ScaledEnergy(u) * factor;
    if (factor > 1.0) result.overrun_ms += scaled_wcet * (factor - 1.0);
    result.makespan_ms = std::max(result.makespan_ms, finish[u.index()]);
    for (const auto& [dst, eid] : adj[u.index()]) {
      if (!active[dst.index()]) continue;
      double arrival = finish[u.index()];
      if (eid.has_value()) {
        const ctg::Edge& e = graph.edge(*eid);
        if (e.condition.has_value() &&
            assignment.Get(e.condition->fork) != e.condition->outcome) {
          continue;
        }
        double comm = schedule.EdgeCommTime(*eid);
        if (faulted) comm *= faults->comm_time_factor;
        arrival += comm;
        result.energy_mj += schedule.EdgeCommEnergy(*eid);
      }
      ready[dst.index()] = std::max(ready[dst.index()], arrival);
    }
  }
  if (graph.deadline_ms() > 0.0) {
    result.deadline_met = result.makespan_ms <= graph.deadline_ms() + 1e-6;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Cases

/// One model with its analysis; constructed in place because the
/// analysis and schedules refer to the graph by address.
struct Model {
  const char* name;
  ctg::Ctg graph;
  arch::Platform platform;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;

  Model(const char* label, ctg::Ctg g, arch::Platform p)
      : name(label),
        graph(std::move(g)),
        platform(std::move(p)),
        analysis(graph),
        probs(apps::UniformProbabilities(graph)) {}

  /// The DLS schedule with only PE 0 masked out, or on every PE.
  sched::Schedule Schedule(bool masked) const {
    sched::DlsOptions options;
    if (masked) options.available_pes = arch::PeMask::WithoutBits(1);
    return sched::RunDls(graph, analysis, platform, probs, options);
  }
};

/// Runs \p fn on every model: Figure 1, MPEG, cruise and four
/// generated graphs.
template <typename Fn>
void ForEachModel(Fn&& fn) {
  {
    apps::Fig1Example ex = apps::MakeFig1Example();
    const Model m("fig1", std::move(ex.graph), std::move(ex.platform));
    fn(m);
  }
  {
    apps::MpegModel mpeg = apps::MakeMpegModel();
    const Model m("mpeg", std::move(mpeg.graph), std::move(mpeg.platform));
    fn(m);
  }
  {
    apps::CruiseModel cruise = apps::MakeCruiseModel();
    const Model m("cruise", std::move(cruise.graph),
                  std::move(cruise.platform));
    fn(m);
  }
  for (std::uint64_t seed : {3u, 11u}) {
    for (tgff::Category category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      tgff::RandomCtgParams params;
      params.task_count = 20;
      params.pe_count = 3;
      params.fork_count = 3;
      params.category = category;
      params.seed = seed;
      tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
      apps::AssignDeadline(rc.graph, rc.platform, 1.4);
      const Model m("random", std::move(rc.graph), std::move(rc.platform));
      fn(m);
    }
  }
}

void ExpectMatchesReference(const sched::Schedule& schedule) {
  const sched::ScheduledDag& dag = schedule.dag();
  const Adjacency adj = ReferenceAdjacency(schedule);
  ASSERT_EQ(dag.task_count(), adj.size());
  std::size_t arcs = 0;
  for (std::size_t u = 0; u < adj.size(); ++u) {
    ASSERT_EQ(dag.arc_end(u) - dag.arc_begin(u), adj[u].size()) << u;
    std::uint32_t arc = dag.arc_begin(u);
    for (const auto& [dst, eid] : adj[u]) {
      EXPECT_EQ(dag.target(arc), dst);
      EXPECT_EQ(dag.edge(arc), eid.value_or(EdgeId{}));
      ++arc;
    }
    arcs += adj[u].size();
  }
  EXPECT_EQ(dag.arc_count(), arcs);

  const std::vector<TaskId> order = ReferenceKahn(adj);
  ASSERT_EQ(dag.order().size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(dag.order()[k], order[k].index()) << k;
  }
  std::vector<std::uint32_t> sources;
  std::vector<bool> has_pred(adj.size(), false);
  for (const auto& out : adj) {
    for (const auto& [dst, eid] : out) has_pred[dst.index()] = true;
  }
  for (std::size_t u = 0; u < adj.size(); ++u) {
    if (!has_pred[u]) sources.push_back(static_cast<std::uint32_t>(u));
  }
  EXPECT_EQ(std::vector<std::uint32_t>(dag.sources().begin(),
                                       dag.sources().end()),
            sources);
}

/// True when both schedules read one compiled buffer.
bool ShareDag(const sched::Schedule& a, const sched::Schedule& b) {
  return a.dag().order().data() == b.dag().order().data();
}

void ExpectSameResult(const sim::InstanceResult& got,
                      const sim::InstanceResult& want) {
  EXPECT_EQ(got.energy_mj, want.energy_mj);
  EXPECT_EQ(got.makespan_ms, want.makespan_ms);
  EXPECT_EQ(got.deadline_met, want.deadline_met);
  EXPECT_EQ(got.active_tasks, want.active_tasks);
  EXPECT_EQ(got.overrun_ms, want.overrun_ms);
  EXPECT_EQ(got.failed_pe_hits, want.failed_pe_hits);
  EXPECT_EQ(got.faults_injected, want.faults_injected);
}

// ---------------------------------------------------------------------------
// Compilation

TEST(ScheduledDag, MatchesReferenceAdjacencyAndKahnOrder) {
  ForEachModel([](const Model& m) {
    for (const bool masked : {false, true}) {
      SCOPED_TRACE(std::string(m.name) + (masked ? " masked" : " full"));
      const sched::Schedule schedule = m.Schedule(masked);
      ExpectMatchesReference(schedule);
      EXPECT_EQ(schedule.dag().arc_count(),
                m.graph.edge_count() + schedule.control_edges().size() +
                    schedule.pseudo_edges().size());
    }
  });
}

TEST(ScheduledDag, EmptyUntilCompiled) {
  EXPECT_FALSE(sched::ScheduledDag().compiled());
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const sched::Schedule fresh(ex.graph, analysis, ex.platform);
  EXPECT_THROW(fresh.dag(), InternalError);
}

TEST(ScheduledDag, CycleIsRejected) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  sched::Schedule schedule =
      sched::RunDls(ex.graph, analysis, ex.platform, ex.probs);
  // τ8 is downstream of τ1; an order edge back closes a cycle.
  schedule.AddPseudoEdge(ex.tau(8), ex.tau(1));
  EXPECT_THROW(schedule.RecomputeTimes(), InternalError);
}

TEST(ScheduledDag, AddPseudoEdgeInvalidatesTheCompiledDag) {
  ForEachModel([](const Model& m) {
    SCOPED_TRACE(m.name);
    sched::Schedule schedule = m.Schedule(false);
    const sched::Schedule before = schedule;
    const std::span<const std::uint32_t> order = schedule.dag().order();
    // First to last in Kahn order keeps the DAG acyclic.
    const TaskId first{static_cast<int>(order.front())};
    const TaskId last{static_cast<int>(order.back())};
    schedule.AddPseudoEdge(first, last);
    EXPECT_THROW(schedule.dag(), InternalError);
    // A copy taken before keeps its own DAG.
    EXPECT_TRUE(before.dag().compiled());

    schedule.RecomputeTimes();
    EXPECT_FALSE(ShareDag(schedule, before));
    EXPECT_EQ(schedule.dag().arc_count(), before.dag().arc_count() + 1);
    const std::uint32_t added = schedule.dag().arc_end(first.index()) - 1;
    EXPECT_EQ(schedule.dag().target(added), last);
    EXPECT_FALSE(schedule.dag().edge(added).valid());
    ExpectMatchesReference(schedule);
  });
}

TEST(ScheduledDag, CopiesStretchesAndCacheHitsShareOneDag) {
  const apps::MpegModel mpeg = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(mpeg.graph);
  const ctg::BranchProbabilities probs =
      apps::UniformProbabilities(mpeg.graph);
  const sched::Schedule dls =
      sched::RunDls(mpeg.graph, analysis, mpeg.platform, probs);

  // Stretching and the panic rung's speed reset change speeds and
  // times, never the structure: RecomputeTimes keeps the DAG.
  sched::Schedule stretched = dls;
  EXPECT_TRUE(ShareDag(stretched, dls));
  dvfs::StretchOnline(stretched, probs);
  EXPECT_TRUE(ShareDag(stretched, dls));
  for (TaskId task : mpeg.graph.TaskIds()) {
    stretched.placement(task).speed_ratio = 1.0;
  }
  stretched.RecomputeTimes();
  EXPECT_TRUE(ShareDag(stretched, dls));

  runtime::ScheduleCache cache(runtime::ScheduleCacheOptions{});
  const runtime::ScheduleCacheKey key = runtime::MakeCacheKey(
      mpeg.graph, probs, 1, 2, 3, 0, "online");
  cache.Insert(key, runtime::ScheduleCacheEntry{stretched, {}});
  const std::optional<runtime::ScheduleCacheEntry> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(ShareDag(hit->schedule, dls));

  // Through the facade: the exact hit adopts the computed result's DAG.
  adaptive::ReschedulerConfig config;
  config.cache = runtime::CacheBinding{&cache, 7};
  adaptive::Rescheduler rescheduler(mpeg.graph, analysis, mpeg.platform,
                                    config);
  const adaptive::RescheduleRequest healthy{config.dls.available_pes, 0.0,
                                            "test"};
  const adaptive::RescheduleResult computed =
      rescheduler.Reschedule(probs, healthy);
  const adaptive::RescheduleResult exact =
      rescheduler.Reschedule(probs, healthy);
  EXPECT_EQ(computed.tier, adaptive::RescheduleTier::kFull);
  EXPECT_EQ(exact.tier, adaptive::RescheduleTier::kExact);
  EXPECT_TRUE(ShareDag(exact.schedule, computed.schedule));
}

// ---------------------------------------------------------------------------
// Execution

TEST(ScheduledDag, ActiveTasksEqualsPerTaskIsActive) {
  ForEachModel([](const Model& m) {
    SCOPED_TRACE(m.name);
    std::vector<ctg::BranchAssignment> assignments;
    for (const ctg::Minterm& scenario :
         m.analysis.EnumerateScenarioAssignments()) {
      assignments.push_back(sim::AssignmentFromScenario(m.graph, scenario));
    }
    // Every fork set, active or not.
    util::Random rng(5);
    for (int i = 0; i < 16; ++i) {
      ctg::BranchAssignment a(m.graph.task_count());
      for (TaskId fork : m.graph.ForkIds()) {
        a.Set(fork, static_cast<int>(rng.UniformInt(
                        0, m.graph.OutcomeCount(fork) - 1)));
      }
      assignments.push_back(std::move(a));
    }
    for (const ctg::BranchAssignment& a : assignments) {
      const std::vector<char> active = m.analysis.ActiveTasks(a);
      ASSERT_EQ(active.size(), m.graph.task_count());
      for (TaskId task : m.graph.TaskIds()) {
        EXPECT_EQ(active[task.index()] != 0, m.analysis.IsActive(task, a))
            << task.index();
      }
    }
  });
}

TEST(ScheduledDag, ExecuteInstanceMatchesReferenceExecutor) {
  ForEachModel([](const Model& m) {
    for (const bool masked : {false, true}) {
      SCOPED_TRACE(std::string(m.name) + (masked ? " masked" : " full"));
      sched::Schedule schedule = m.Schedule(masked);
      dvfs::StretchOnline(schedule, m.probs);

      // Fault variants: none; overrun factors alone; a failed PE with
      // its re-run penalty and a degraded link; all at once; and a
      // present but inert perturbation.
      util::Random rng(17);
      std::vector<double> factors(m.graph.task_count());
      for (double& f : factors) f = 1.0 + 0.5 * rng.UniformUnit();
      faults::InstanceFaults overruns;
      overruns.task_time_factor = factors;
      overruns.any = true;
      faults::InstanceFaults failed;
      failed.failed_pes = 0b10;
      failed.rerun_penalty = 2.0;
      failed.comm_time_factor = 1.3;
      failed.any = true;
      faults::InstanceFaults all = failed;
      all.task_time_factor = factors;
      all.failed_pes = 0b11;
      const faults::InstanceFaults inert;
      const faults::InstanceFaults* variants[] = {nullptr, &overruns,
                                                  &failed, &all, &inert};

      for (const ctg::Minterm& scenario :
           m.analysis.EnumerateScenarioAssignments()) {
        const ctg::BranchAssignment a =
            sim::AssignmentFromScenario(m.graph, scenario);
        for (const faults::InstanceFaults* f : variants) {
          ExpectSameResult(sim::ExecuteInstance(schedule, a, f),
                           ReferenceExecute(schedule, a, f));
        }
      }
    }
  });
}

}  // namespace
}  // namespace actg
