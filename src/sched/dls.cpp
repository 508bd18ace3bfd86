#include "sched/dls.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "obs/trace.h"
#include "runtime/metrics.h"
#include "util/error.h"

namespace actg::sched {

namespace {

constexpr double kTimeEps = 1e-9;

/// Row \p task of an ancestor closure with \p words words per row.
std::uint64_t* Row(std::vector<std::uint64_t>& bits, std::size_t words,
                   std::size_t task) {
  return bits.data() + task * words;
}

bool TestBit(const std::uint64_t* row, std::size_t bit) {
  return ((row[bit / 64] >> (bit % 64)) & 1ULL) != 0;
}

/// row |= other | {bit}.
void Absorb(std::uint64_t* row, const std::uint64_t* other,
            std::size_t bit, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) row[w] |= other[w];
  row[bit / 64] |= 1ULL << (bit % 64);
}

}  // namespace

util::Error DlsOptions::Validate() const {
  if (fixed_mapping != nullptr) {
    if (fixed_mapping->empty()) {
      return util::Error::Invalid(
          "DlsOptions: fixed_mapping, when set, must not be empty");
    }
    for (PeId pe : *fixed_mapping) {
      if (!pe.valid()) {
        return util::Error::Invalid(
            "DlsOptions: fixed_mapping contains an invalid PE id");
      }
    }
  }
  if (pinned_mapping != nullptr && pinned_mapping->empty()) {
    return util::Error::Invalid(
        "DlsOptions: pinned_mapping, when set, must not be empty");
  }
  if (available_pes.removed_bits() == ~0ULL) {
    return util::Error::Invalid(
        "DlsOptions: available_pes must leave at least one PE");
  }
  return {};
}

std::vector<PeId> RoundRobinMapping(const ctg::Ctg& graph,
                                    const arch::Platform& platform) {
  std::vector<PeId> mapping(graph.task_count());
  int next = 0;
  for (TaskId task : graph.TopologicalOrder()) {
    mapping[task.index()] =
        PeId{next++ % static_cast<int>(platform.pe_count())};
  }
  return mapping;
}

Schedule RunDls(const ctg::Ctg& graph,
                const ctg::ActivationAnalysis& analysis,
                const arch::Platform& platform,
                const ctg::BranchProbabilities& probs,
                const DlsOptions& options, DlsWorkspace* workspace) {
  const runtime::ScopedTimer stage_timer(runtime::Metrics::Global(),
                                         "stage.dls");
  options.Validate().ThrowIfError();
  const std::size_t n = graph.task_count();
  obs::ScopedSpan span(obs::TraceSession::Current(), "sched.dls", "sched");
  if (span.enabled()) {
    span.AddArg(obs::IntArg("tasks", static_cast<std::int64_t>(n)));
  }
  Schedule schedule(graph, analysis, platform);
  if (options.fixed_mapping != nullptr) {
    ACTG_CHECK(options.fixed_mapping->size() == n,
               "fixed_mapping must assign a PE to every task");
  }
  if (options.pinned_mapping != nullptr) {
    ACTG_CHECK(options.pinned_mapping->size() == n,
               "pinned_mapping must carry an entry for every task");
    for (PeId pe : *options.pinned_mapping) {
      ACTG_CHECK(!pe.valid() || options.available_pes.Contains(pe),
                 "pinned_mapping pins a task to an unavailable PE");
    }
  }
  ACTG_CHECK(options.available_pes.CountAvailable(platform.pe_count()) > 0,
             "available_pes masks out every PE of the platform");

  DlsWorkspace local_workspace;
  DlsWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;

  ws.levels.clear();
  ComputeStaticLevels(graph, platform, probs, options.level_policy)
      .swap(ws.levels);
  const std::vector<double>& levels = ws.levels;

  // Predecessor bookkeeping over the base scheduled DAG (CTG edges plus
  // implied fork -> or-node control dependencies).
  ws.pending_preds.assign(n, 0);
  std::vector<int>& pending_preds = ws.pending_preds;
  for (EdgeId eid : graph.EdgeIds()) {
    ++pending_preds[graph.edge(eid).dst.index()];
  }
  ws.control_preds.resize(n);
  for (auto& preds : ws.control_preds) preds.clear();
  std::vector<std::vector<TaskId>>& control_preds = ws.control_preds;
  for (const ExtraEdge& e : schedule.control_edges()) {
    control_preds[e.dst.index()].push_back(e.src);
    ++pending_preds[e.dst.index()];
  }

  // Per-PE committed intervals: (start, finish, task), kept sorted by
  // (start, finish) so the gap search walks them in place.
  using Interval = DlsWorkspace::Interval;
  const std::size_t pe_count = platform.pe_count();
  ws.timelines.resize(pe_count);
  for (auto& timeline : ws.timelines) timeline.clear();
  std::vector<std::vector<Interval>>& timelines = ws.timelines;

  // Ancestor closure of the base scheduled DAG, filled row by row as
  // tasks commit (the commit order is a topological order).
  const std::size_t words = (n + 63) / 64;
  ws.ancestors.assign(n * words, 0);
  std::vector<std::uint64_t>& ancestors = ws.ancestors;

  const auto candidate = [&](TaskId task, PeId pe) {
    if (options.fixed_mapping != nullptr) {
      return (*options.fixed_mapping)[task.index()] == pe;
    }
    if (options.pinned_mapping != nullptr) {
      const PeId pin = (*options.pinned_mapping)[task.index()];
      if (pin.valid() && pin != pe) return false;
    }
    return options.available_pes.Contains(pe);
  };

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

  // AT(task, pe): the earliest start >= data arrival such that
  // [start, start + WCET) avoids every committed interval of pe that
  // is not mutually exclusive with task.
  const auto earliest_start = [&](TaskId task, PeId pe) {
    double t = data_ready_on(task, pe);
    const double duration = platform.Wcet(task, pe);
    for (const Interval& iv : timelines[pe.index()]) {
      if (options.mutex_aware && analysis.MutuallyExclusive(task, iv.task)) {
        continue;
      }
      if (iv.finish <= t + kTimeEps) continue;
      if (iv.start >= t + duration - kTimeEps) break;
      t = std::max(t, iv.finish);
    }
    return t;
  };

  // AT depends on the predecessors' placements, fixed once the task is
  // ready, and on one PE timeline: compute it on entry and refresh only
  // the PE that received the last commit.
  ws.ready_list.clear();
  ws.ready_at.clear();
  std::vector<DlsWorkspace::ReadyTask>& ready_list = ws.ready_list;
  std::vector<double>& ready_at = ws.ready_at;
  const auto make_ready = [&](TaskId task) {
    ready_list.push_back({task, platform.AverageWcet(task)});
    for (std::size_t k = 0; k < pe_count; ++k) {
      const PeId pe{static_cast<int>(k)};
      ready_at.push_back(candidate(task, pe) ? earliest_start(task, pe)
                                             : 0.0);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (pending_preds[i] == 0) make_ready(TaskId{static_cast<int>(i)});
  }

  int order = 0;
  while (!ready_list.empty()) {
    // Select the (task, PE) pair with the maximum dynamic level.
    double best_dl = -std::numeric_limits<double>::infinity();
    double best_at = 0.0;
    TaskId best_task;
    PeId best_pe;
    std::size_t best_entry = 0;
    for (std::size_t r = 0; r < ready_list.size(); ++r) {
      const TaskId task = ready_list[r].task;
      const double* at_row = ready_at.data() + r * pe_count;
      for (std::size_t k = 0; k < pe_count; ++k) {
        const PeId pe{static_cast<int>(k)};
        if (!candidate(task, pe)) continue;
        const double at = at_row[k];
        const double delta = ready_list[r].avg_wcet - platform.Wcet(task, pe);
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
          best_entry = r;
        }
      }
    }
    ACTG_ASSERT(best_task.valid(), "DLS selected no candidate");

    // Commit the placement and its incoming communications.
    TaskPlacement& p = schedule.placement(best_task);
    p.pe = best_pe;
    p.start_ms = best_at;
    p.finish_ms = best_at + platform.Wcet(best_task, best_pe);
    p.speed_ratio = 1.0;
    p.order_index = order++;
    std::vector<Interval>& timeline = timelines[best_pe.index()];
    const Interval committed{p.start_ms, p.finish_ms, best_task};
    timeline.insert(
        std::upper_bound(timeline.begin(), timeline.end(), committed,
                         [](const Interval& a, const Interval& b) {
                           if (a.start != b.start) return a.start < b.start;
                           return a.finish < b.finish;
                         }),
        committed);
    std::uint64_t* row = Row(ancestors, words, best_task.index());
    for (EdgeId eid : graph.InEdges(best_task)) {
      const ctg::Edge& e = graph.edge(eid);
      const TaskPlacement& src = schedule.placement(e.src);
      CommPlacement& comm = schedule.comm(eid);
      comm.start_ms = src.finish_ms;
      comm.finish_ms =
          src.finish_ms +
          platform.CommTime(e.comm_kbytes, src.pe, best_pe);
      Absorb(row, Row(ancestors, words, e.src.index()), e.src.index(),
             words);
    }
    for (TaskId fork : control_preds[best_task.index()]) {
      Absorb(row, Row(ancestors, words, fork.index()), fork.index(), words);
    }

    const auto entry = static_cast<std::ptrdiff_t>(best_entry);
    const auto stride = static_cast<std::ptrdiff_t>(pe_count);
    ready_list.erase(ready_list.begin() + entry);
    ready_at.erase(ready_at.begin() + entry * stride,
                   ready_at.begin() + (entry + 1) * stride);
    for (std::size_t r = 0; r < ready_list.size(); ++r) {
      if (candidate(ready_list[r].task, best_pe)) {
        ready_at[r * pe_count + best_pe.index()] =
            earliest_start(ready_list[r].task, best_pe);
      }
    }
    for (EdgeId eid : graph.OutEdges(best_task)) {
      const TaskId dst = graph.edge(eid).dst;
      if (--pending_preds[dst.index()] == 0) make_ready(dst);
    }
    for (const ExtraEdge& e : schedule.control_edges()) {
      if (e.src == best_task &&
          --pending_preds[e.dst.index()] == 0) {
        make_ready(e.dst);
      }
    }
  }

  // Derive pseudo order edges: every ordered non-mutex pair sharing a PE,
  // transitively reduced against the DAG built so far.
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
        // A mutual-exclusion-aware scheduler knows that exclusive tasks
        // never execute together, so it neither serializes them nor
        // derives order constraints between them. A mutex-blind tool
        // (Reference Algorithm 1) serializes them on the PE *and* its
        // downstream slack analysis sees the resulting impossible
        // both-branches chains, wasting deadline margin on them.
        if (options.mutex_aware && analysis.MutuallyExclusive(a, b))
          continue;
        ACTG_ASSERT(timeline[i].finish <= timeline[j].start + 1e-6,
                    "non-mutex tasks overlap on one PE after DLS");
        if (TestBit(Row(ancestors, words, b.index()), a.index())) continue;
        schedule.AddPseudoEdge(a, b);
        // a and its ancestors now reach b and every task b reaches.
        const std::uint64_t* from = Row(ancestors, words, a.index());
        for (std::size_t y = 0; y < n; ++y) {
          std::uint64_t* to = Row(ancestors, words, y);
          if (y == b.index() || TestBit(to, b.index())) {
            Absorb(to, from, a.index(), words);
          }
        }
      }
    }
  }

  // Canonicalize times as ASAP over the final scheduled DAG.
  schedule.RecomputeTimes();
  return schedule;
}

}  // namespace actg::sched
