// Differential suite of the DLS scheduler: sched::RunDls against a
// reference copy of its straightforward formulation (every candidate's
// earliest start recomputed from a sorted copy of the PE timeline on
// every step, pseudo edges transitively reduced by one BFS per pair).
// The production scheduler caches earliest starts, keeps timelines
// sorted and reduces pseudo edges against a bitset closure; every
// schedule it produces must be bit-identical to the reference's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/common.h"
#include "arch/platform.h"
#include "check/fuzz.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "sched/dls.h"
#include "sched/schedule.h"
#include "sched/static_level.h"
#include "tgff/random_ctg.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::sched {
namespace {

// ---------------------------------------------------------------------------
// Reference scheduler

constexpr double kTimeEps = 1e-9;

/// Earliest start >= ready such that [start, start + duration) avoids
/// every blocking interval. \p busy must be sorted by start.
double EarliestGap(const std::vector<std::pair<double, double>>& busy,
                   double ready, double duration) {
  double t = ready;
  for (const auto& [begin, end] : busy) {
    if (end <= t + kTimeEps) continue;
    if (begin >= t + duration - kTimeEps) break;
    t = std::max(t, end);
  }
  return t;
}

/// True when \p dst is reachable from \p src over \p adj.
bool Reachable(const std::vector<std::vector<int>>& adj, int src, int dst) {
  if (src == dst) return true;
  std::vector<int> stack(1, src);
  std::vector<bool> seen(adj.size(), false);
  seen[static_cast<std::size_t>(src)] = true;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (v == dst) return true;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        stack.push_back(v);
      }
    }
  }
  return false;
}

/// The DLS of paper Section III.A (Eq. 1) in its direct form; same
/// contract as RunDls.
Schedule ReferenceRunDls(const ctg::Ctg& graph,
                         const ctg::ActivationAnalysis& analysis,
                         const arch::Platform& platform,
                         const ctg::BranchProbabilities& probs,
                         const DlsOptions& options) {
  struct Interval {
    double start;
    double finish;
    TaskId task;
  };
  const std::size_t n = graph.task_count();
  Schedule schedule(graph, analysis, platform);
  const std::vector<double> levels =
      ComputeStaticLevels(graph, platform, probs, options.level_policy);

  std::vector<int> pending_preds(n, 0);
  for (EdgeId eid : graph.EdgeIds()) {
    ++pending_preds[graph.edge(eid).dst.index()];
  }
  std::vector<std::vector<TaskId>> control_preds(n);
  for (const ExtraEdge& e : schedule.control_edges()) {
    control_preds[e.dst.index()].push_back(e.src);
    ++pending_preds[e.dst.index()];
  }
  std::vector<TaskId> ready_list;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending_preds[i] == 0) {
      ready_list.push_back(TaskId{static_cast<int>(i)});
    }
  }
  std::vector<std::vector<Interval>> timelines(platform.pe_count());

  const auto data_ready_on = [&](TaskId task, PeId pe) {
    double ready = 0.0;
    for (EdgeId eid : graph.InEdges(task)) {
      const ctg::Edge& e = graph.edge(eid);
      const TaskPlacement& src = schedule.placement(e.src);
      ready = std::max(ready, src.finish_ms + platform.CommTime(
                                                  e.comm_kbytes, src.pe, pe));
    }
    for (TaskId fork : control_preds[task.index()]) {
      ready = std::max(ready, schedule.placement(fork).finish_ms);
    }
    return ready;
  };

  const auto earliest_start = [&](TaskId task, PeId pe) {
    const double ready = data_ready_on(task, pe);
    std::vector<std::pair<double, double>> busy;
    for (const Interval& iv : timelines[pe.index()]) {
      if (options.mutex_aware &&
          analysis.MutuallyExclusive(task, iv.task)) {
        continue;
      }
      busy.emplace_back(iv.start, iv.finish);
    }
    std::sort(busy.begin(), busy.end());
    return EarliestGap(busy, ready, platform.Wcet(task, pe));
  };

  int order = 0;
  while (!ready_list.empty()) {
    double best_dl = -std::numeric_limits<double>::infinity();
    double best_at = 0.0;
    TaskId best_task;
    PeId best_pe;
    for (TaskId task : ready_list) {
      const double avg_wcet = platform.AverageWcet(task);
      for (PeId pe : platform.PeIds()) {
        if (options.fixed_mapping != nullptr) {
          if ((*options.fixed_mapping)[task.index()] != pe) continue;
        } else {
          if (options.pinned_mapping != nullptr) {
            const PeId pin = (*options.pinned_mapping)[task.index()];
            if (pin.valid() && pin != pe) continue;
          }
          if (!options.available_pes.Contains(pe)) continue;
        }
        const double at = earliest_start(task, pe);
        const double delta = avg_wcet - platform.Wcet(task, pe);
        const double dl = levels[task.index()] - at + delta;
        const bool better =
            dl > best_dl + kTimeEps ||
            (dl > best_dl - kTimeEps &&
             (at < best_at - kTimeEps ||
              (at < best_at + kTimeEps &&
               (!best_task.valid() || task < best_task ||
                (task == best_task && pe < best_pe)))));
        if (better) {
          best_dl = dl;
          best_at = at;
          best_task = task;
          best_pe = pe;
        }
      }
    }
    ACTG_ASSERT(best_task.valid(), "DLS selected no candidate");

    TaskPlacement& p = schedule.placement(best_task);
    p.pe = best_pe;
    p.start_ms = best_at;
    p.finish_ms = best_at + platform.Wcet(best_task, best_pe);
    p.speed_ratio = 1.0;
    p.order_index = order++;
    timelines[best_pe.index()].push_back(
        Interval{p.start_ms, p.finish_ms, best_task});
    for (EdgeId eid : graph.InEdges(best_task)) {
      const ctg::Edge& e = graph.edge(eid);
      const TaskPlacement& src = schedule.placement(e.src);
      CommPlacement& comm = schedule.comm(eid);
      comm.start_ms = src.finish_ms;
      comm.finish_ms =
          src.finish_ms +
          platform.CommTime(e.comm_kbytes, src.pe, best_pe);
    }

    ready_list.erase(
        std::find(ready_list.begin(), ready_list.end(), best_task));
    for (EdgeId eid : graph.OutEdges(best_task)) {
      const TaskId dst = graph.edge(eid).dst;
      if (--pending_preds[dst.index()] == 0) ready_list.push_back(dst);
    }
    for (const ExtraEdge& e : schedule.control_edges()) {
      if (e.src == best_task &&
          --pending_preds[e.dst.index()] == 0) {
        ready_list.push_back(e.dst);
      }
    }
  }

  std::vector<std::vector<int>> adj(n);
  for (EdgeId eid : graph.EdgeIds()) {
    adj[graph.edge(eid).src.index()].push_back(graph.edge(eid).dst.value);
  }
  for (const ExtraEdge& e : schedule.control_edges()) {
    adj[e.src.index()].push_back(e.dst.value);
  }
  for (auto& timeline : timelines) {
    std::sort(timeline.begin(), timeline.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.task < b.task;
              });
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      for (std::size_t j = i + 1; j < timeline.size(); ++j) {
        const TaskId a = timeline[i].task;
        const TaskId b = timeline[j].task;
        if (options.mutex_aware && analysis.MutuallyExclusive(a, b))
          continue;
        if (!Reachable(adj, a.value, b.value)) {
          schedule.AddPseudoEdge(a, b);
          adj[a.index()].push_back(b.value);
        }
      }
    }
  }
  schedule.RecomputeTimes();
  return schedule;
}

// ---------------------------------------------------------------------------
// Comparison

/// EXPECT_EQ on every placement field, comm window and the ordered
/// pseudo-edge list.
void ExpectSameSchedule(const Schedule& want, const Schedule& got,
                        const std::string& where) {
  const ctg::Ctg& graph = want.graph();
  for (TaskId task : graph.TaskIds()) {
    const TaskPlacement& w = want.placement(task);
    const TaskPlacement& g = got.placement(task);
    EXPECT_EQ(w.pe, g.pe) << where << " task " << task.value;
    EXPECT_EQ(w.start_ms, g.start_ms) << where << " task " << task.value;
    EXPECT_EQ(w.finish_ms, g.finish_ms) << where << " task " << task.value;
    EXPECT_EQ(w.speed_ratio, g.speed_ratio)
        << where << " task " << task.value;
    EXPECT_EQ(w.order_index, g.order_index)
        << where << " task " << task.value;
  }
  for (EdgeId edge : graph.EdgeIds()) {
    EXPECT_EQ(want.comm(edge).start_ms, got.comm(edge).start_ms)
        << where << " edge " << edge.value;
    EXPECT_EQ(want.comm(edge).finish_ms, got.comm(edge).finish_ms)
        << where << " edge " << edge.value;
  }
  const std::vector<ExtraEdge>& wp = want.pseudo_edges();
  const std::vector<ExtraEdge>& gp = got.pseudo_edges();
  EXPECT_EQ(wp.size(), gp.size()) << where;
  for (std::size_t i = 0; i < std::min(wp.size(), gp.size()); ++i) {
    EXPECT_EQ(wp[i].src, gp[i].src) << where << " pseudo edge " << i;
    EXPECT_EQ(wp[i].dst, gp[i].dst) << where << " pseudo edge " << i;
  }
}

/// Runs one option set through the reference, a fresh RunDls and a
/// RunDls on the shared \p workspace, and compares all three; true
/// when the test has no failure so far.
bool ExpectSameAsReference(const ctg::Ctg& graph,
                           const ctg::ActivationAnalysis& analysis,
                           const arch::Platform& platform,
                           const ctg::BranchProbabilities& probs,
                           const DlsOptions& options,
                           DlsWorkspace& workspace, const std::string& where) {
  const Schedule want =
      ReferenceRunDls(graph, analysis, platform, probs, options);
  const Schedule fresh = RunDls(graph, analysis, platform, probs, options);
  const Schedule reused =
      RunDls(graph, analysis, platform, probs, options, &workspace);
  ExpectSameSchedule(want, fresh, where + " fresh");
  ExpectSameSchedule(want, reused, where + " reused workspace");
  return !::testing::Test::HasFailure();
}

/// Every option variant the production scheduler distinguishes: free
/// mapping under no mask, the case's mask and a single surviving PE; a
/// fixed mapping; and a pinned mapping under the case's mask. Stops at
/// the first mismatching variant.
void CheckVariants(const ctg::Ctg& graph,
                   const ctg::ActivationAnalysis& analysis,
                   const arch::Platform& platform,
                   const ctg::BranchProbabilities& probs,
                   const DlsOptions& base, std::uint64_t case_mask,
                   util::Random& rng, DlsWorkspace& workspace,
                   const std::string& where) {
  const int pe_count = static_cast<int>(platform.pe_count());
  const arch::PeMask mask = arch::PeMask::WithoutBits(case_mask);

  DlsOptions masked = base;
  masked.available_pes = mask;

  const int survivor = rng.UniformInt(0, pe_count - 1);
  DlsOptions single_pe = base;
  single_pe.available_pes = arch::PeMask::WithoutBits(
      ((1ULL << pe_count) - 1) & ~(1ULL << survivor));

  std::vector<PeId> fixed(graph.task_count());
  for (PeId& pe : fixed) pe = PeId{rng.UniformInt(0, pe_count - 1)};
  DlsOptions fixed_mapping = base;
  fixed_mapping.fixed_mapping = &fixed;

  // Pin about half the tasks to random available PEs; the rest map
  // freely (the incremental scheduler's warm-start shape).
  std::vector<PeId> available;
  for (int k = 0; k < pe_count; ++k) {
    if (mask.Contains(PeId{k})) available.push_back(PeId{k});
  }
  std::vector<PeId> pins(graph.task_count());
  for (PeId& pin : pins) {
    if (rng.Bernoulli(0.5)) {
      pin = available[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(available.size()) - 1))];
    }
  }
  DlsOptions pinned = masked;
  pinned.pinned_mapping = &pins;

  const std::pair<const char*, const DlsOptions*> variants[] = {
      {"free", &base},
      {"case mask", &masked},
      {"single surviving PE", &single_pe},
      {"fixed mapping", &fixed_mapping},
      {"pinned mapping", &pinned},
  };
  for (const auto& [name, options] : variants) {
    if (!ExpectSameAsReference(graph, analysis, platform, probs, *options,
                               workspace, where + " " + name)) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzed cases

struct LevelCase {
  bool mutex_aware;
  LevelPolicy level_policy;
};

void PrintTo(const LevelCase& c, std::ostream* os) {
  *os << (c.mutex_aware ? "mutex-aware" : "mutex-blind") << ", "
      << (c.level_policy == LevelPolicy::kProbabilityWeighted
              ? "probability-weighted"
              : "worst-case");
}

class DlsDifferential : public ::testing::TestWithParam<LevelCase> {};

// >= 1k actg_fuzz specs, each under every option variant. One workspace
// serves the whole stream, so it is reused across graphs of different
// task and PE counts.
TEST_P(DlsDifferential, MatchesReferenceAcrossFuzzedCases) {
  const util::Random root(2027);
  constexpr std::uint64_t kCases = 1024;
  DlsWorkspace workspace;
  for (std::uint64_t i = 0; i < kCases; ++i) {
    const check::FuzzCaseSpec spec = check::RandomSpec(root, i);
    const check::FuzzCase c = check::Materialize(spec);
    const ctg::ActivationAnalysis analysis(c.graph);
    const ctg::BranchProbabilities probs =
        check::CaseProbabilities(c.graph, spec.prob_seed);
    DlsOptions base;
    base.mutex_aware = GetParam().mutex_aware;
    base.level_policy = GetParam().level_policy;
    util::Random rng = root.Fork(kCases + i);
    CheckVariants(c.graph, analysis, c.platform, probs, base, c.masked_pes,
                  rng, workspace, "case " + std::to_string(i));
    if (HasFailure()) return;
  }
}

// Graphs past 64 tasks take more than one word per closure row.
TEST_P(DlsDifferential, MatchesReferenceOnWideGraphs) {
  const util::Random root(77);
  DlsWorkspace workspace;
  for (int i = 0; i < 12; ++i) {
    util::Random rng = root.Fork(static_cast<std::uint64_t>(i));
    tgff::RandomCtgParams params;
    params.task_count = rng.UniformInt(65, 160);
    params.fork_count = rng.UniformInt(0, 8);
    params.pe_count = rng.UniformInt(1, 6);
    params.category =
        i % 2 == 0 ? tgff::Category::kForkJoin : tgff::Category::kFlat;
    params.seed = rng.engine().Next();
    tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
    apps::AssignDeadline(rc.graph, rc.platform, 1.5);
    const ctg::ActivationAnalysis analysis(rc.graph);
    const ctg::BranchProbabilities probs =
        check::CaseProbabilities(rc.graph, rng.engine().Next());
    DlsOptions base;
    base.mutex_aware = GetParam().mutex_aware;
    base.level_policy = GetParam().level_policy;
    const std::uint64_t case_mask =
        params.pe_count >= 2
            ? 1ULL << rng.UniformInt(0, params.pe_count - 1)
            : 0;
    CheckVariants(rc.graph, analysis, rc.platform, probs, base, case_mask,
                  rng, workspace, "wide graph " + std::to_string(i));
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, DlsDifferential,
    ::testing::Values(LevelCase{true, LevelPolicy::kProbabilityWeighted},
                      LevelCase{true, LevelPolicy::kWorstCase},
                      LevelCase{false, LevelPolicy::kProbabilityWeighted},
                      LevelCase{false, LevelPolicy::kWorstCase}),
    [](const ::testing::TestParamInfo<LevelCase>& info) {
      return std::string(info.param.mutex_aware ? "MutexAware"
                                                : "MutexBlind") +
             (info.param.level_policy == LevelPolicy::kProbabilityWeighted
                  ? "ProbWeighted"
                  : "WorstCase");
    });

}  // namespace
}  // namespace actg::sched
