#include "dvfs/path_engine.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "runtime/metrics.h"
#include "util/error.h"

namespace actg::dvfs {

namespace {

/// Largest pool size the store's 32-bit offsets can address.
constexpr std::size_t kMaxPoolSize =
    std::numeric_limits<std::uint32_t>::max();

std::uint32_t Offset(std::size_t size) {
  return static_cast<std::uint32_t>(size);
}

std::uint64_t Mix(std::uint64_t hash, std::uint64_t value) {
  hash = (hash ^ value) * 0x9E3779B97F4A7C15ULL;
  return hash ^ (hash >> 29);
}

/// Hash of a compiled path guard. The outcome bits determine the masks
/// within one condition space, so they alone identify a minterm.
std::uint64_t HashGuard(const ctg::BitGuard& guard) {
  std::uint64_t hash = 0;
  for (const ctg::BitMinterm& m : guard.minterms()) {
    for (const std::uint64_t word : m.bits) hash = Mix(hash, word);
  }
  return hash;
}

std::uint64_t HashGuard(const ctg::Guard& guard) {
  std::uint64_t hash = 0;
  for (const ctg::Minterm& m : guard.minterms()) {
    for (const ctg::Condition& c : m.conditions()) {
      hash = Mix(hash, (static_cast<std::uint64_t>(c.fork.value) << 32) ^
                           static_cast<std::uint32_t>(c.outcome));
    }
    hash = Mix(hash, ~std::uint64_t{0});  // minterm separator
  }
  return hash;
}

}  // namespace

PathEngine::PathEngine(const ctg::Ctg& graph,
                       const ctg::ActivationAnalysis& analysis,
                       const arch::Platform& platform,
                       PathEngineOptions options) {
  Bind(graph, analysis, platform, options);
  if (!options_.force_dnf && !use_bitset_) Count("guard.dnf_fallbacks");
  ClearPaths();
}

void PathEngine::Bind(const ctg::Ctg& graph,
                      const ctg::ActivationAnalysis& analysis,
                      const arch::Platform& platform,
                      PathEngineOptions options) {
  ACTG_CHECK(&analysis.graph() == &graph,
             "PathEngine analysis must be over the engine's graph");
  graph_ = &graph;
  analysis_ = &analysis;
  platform_ = &platform;
  options_ = options;
  dls_workspace_.metrics = options_.metrics;
  dls_workspace_.trace = options_.trace;
  // The compiled edge conditions live in the analysis, beside the task
  // guards; a graph whose guards or conditions do not fit the bit width
  // falls back to the DNF algebra.
  use_bitset_ = !options_.force_dnf && analysis.bit_edge_conditions();
}

void PathEngine::Rebind(const ctg::Ctg& graph,
                        const ctg::ActivationAnalysis& analysis,
                        const arch::Platform& platform,
                        PathEngineOptions options) {
  const bool same_model = graph_ == &graph && analysis_ == &analysis &&
                          platform_ == &platform &&
                          options_.force_dnf == options.force_dnf;
  Bind(graph, analysis, platform, options);
  if (same_model) return;
  ++enumeration_id_;
  ClearPaths();
}

void PathEngine::Count(const char* name, std::uint64_t delta) const {
  if (options_.metrics != nullptr) options_.metrics->Increment(name, delta);
}

void PathEngine::ClearPaths() {
  task_begin_.assign(1, 0);
  task_pool_.clear();
  cond_begin_.assign(1, 0);
  cond_pool_.clear();
  guard_id_.clear();
  table_.clear();
  table_pool_.clear();
  dnf_table_.clear();
  comm_.clear();
  delay_.clear();
  unlocked_.clear();
  nominal_delay_.clear();
  nominal_unlocked_.clear();
  edge_prob_.clear();
  // All-zero row offsets make every spanning list empty; span_pool_
  // keeps its stale entries so BuildSpanning() overwrites instead of
  // re-initializing them.
  span_begin_.assign(graph_->task_count() + 1, 0);
}

void PathEngine::Enumerate(const sched::Schedule& schedule,
                           bool drop_unrealizable) {
  ACTG_CHECK(&schedule.graph() == graph_,
             "Enumerate requires a schedule over the engine's graph");
  runtime::StageProbe probe(options_.metrics, options_.trace,
                            "dvfs.enumerate", "dvfs");

  // Invalidate the previous enumeration before the DFS: if it throws, a
  // caller still holding the old id must not rewind what is left.
  ++enumeration_id_;
  ClearPaths();
  task_stack_.clear();
  edge_stack_.clear();

  const std::size_t n = graph_->task_count();
  if (use_bitset_) {
    bit_stack_.resize(n + 1);
  } else {
    dnf_stack_.resize(n + 1);
  }
  task_exec_ms_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    task_exec_ms_[t] = schedule.ScaledWcet(TaskId{static_cast<int>(t)});
  }
  edge_comm_ms_.resize(graph_->edge_count());
  for (std::size_t e = 0; e < edge_comm_ms_.size(); ++e) {
    edge_comm_ms_[e] = schedule.EdgeCommTime(EdgeId{static_cast<int>(e)});
  }

  const sched::ScheduledDag& dag = schedule.dag();
  try {
    for (const std::uint32_t s : dag.sources()) {
      const TaskId source{static_cast<int>(s)};
      if (use_bitset_) {
        bit_stack_[0] = analysis_->BitActivationGuard(source);
        if (drop_unrealizable && bit_stack_[0].IsFalse()) continue;
        VisitBit(dag, source, 0, drop_unrealizable);
      } else {
        dnf_stack_[0] = analysis_->ActivationGuard(source);
        if (drop_unrealizable && dnf_stack_[0].IsFalse()) continue;
        VisitDnf(dag, source, 0, drop_unrealizable);
      }
    }
  } catch (...) {
    ClearPaths();
    throw;
  }
  nominal_delay_ = delay_;
  nominal_unlocked_ = unlocked_;
  BuildSpanning();
  Count("engine.paths", size());
  if (probe.tracing()) {
    probe.AddArg(obs::IntArg("paths", static_cast<std::int64_t>(size())));
    probe.AddArg(obs::IntArg("bitset", use_bitset_ ? 1 : 0));
  }
}

void PathEngine::VisitBit(const sched::ScheduledDag& dag, TaskId task,
                          std::size_t depth, bool drop_unrealizable) {
  task_stack_.push_back(task);
  bool extended = false;
  for (std::uint32_t arc = dag.arc_begin(task.index());
       arc < dag.arc_end(task.index()); ++arc) {
    const TaskId dst = dag.target(arc);
    const EdgeId eid = dag.edge(arc);
    ctg::BitGuard& next = bit_stack_[depth + 1];
    next = bit_stack_[depth];
    next.AndWith(analysis_->BitActivationGuard(dst), and_scratch_);
    if (eid.valid() && analysis_->HasEdgeCondition(eid)) {
      next.AndWithMinterm(analysis_->BitEdgeCondition(eid));
    }
    if (drop_unrealizable && next.IsFalse()) continue;
    extended = true;
    edge_stack_.push_back(eid);
    VisitBit(dag, dst, depth + 1, drop_unrealizable);
    edge_stack_.pop_back();
  }
  if (!extended) Emit(depth);
  task_stack_.pop_back();
}

void PathEngine::VisitDnf(const sched::ScheduledDag& dag, TaskId task,
                          std::size_t depth, bool drop_unrealizable) {
  const auto arity = graph_->ArityFn();
  task_stack_.push_back(task);
  bool extended = false;
  for (std::uint32_t arc = dag.arc_begin(task.index());
       arc < dag.arc_end(task.index()); ++arc) {
    const TaskId dst = dag.target(arc);
    const EdgeId eid = dag.edge(arc);
    ctg::Guard next =
        dnf_stack_[depth].And(analysis_->ActivationGuard(dst), arity);
    if (eid.valid()) {
      const auto& cond = graph_->edge(eid).condition;
      if (cond.has_value()) next = next.AndCondition(*cond, arity);
    }
    if (drop_unrealizable && next.IsFalse()) continue;
    extended = true;
    dnf_stack_[depth + 1] = std::move(next);
    edge_stack_.push_back(eid);
    VisitDnf(dag, dst, depth + 1, drop_unrealizable);
    edge_stack_.pop_back();
  }
  if (!extended) Emit(depth);
  task_stack_.pop_back();
}

void PathEngine::Emit(std::size_t depth) {
  ACTG_CHECK(size() < options_.max_paths,
             "Path enumeration exceeded max_paths");
  ACTG_CHECK(task_pool_.size() + task_stack_.size() <= kMaxPoolSize,
             "Path enumeration exceeded the path store's 32-bit offsets");
  task_pool_.insert(task_pool_.end(), task_stack_.begin(),
                    task_stack_.end());
  task_begin_.push_back(Offset(task_pool_.size()));
  guard_id_.push_back(InternGuard(depth));
  // Delay accumulation order matches PathSet::PathSet exactly (edges in
  // path order, then tasks in path order) so results stay bit-identical.
  double comm = 0.0;
  for (std::size_t k = 0; k < edge_stack_.size(); ++k) {
    const EdgeId eid = edge_stack_[k];
    if (!eid.valid()) continue;
    comm += edge_comm_ms_[eid.index()];
    if (analysis_->HasEdgeCondition(eid)) {
      cond_pool_.push_back(CondEdge{Offset(k), eid});
    }
  }
  cond_begin_.push_back(Offset(cond_pool_.size()));
  double delay = comm;
  double unlocked = 0.0;
  for (TaskId task : task_stack_) {
    const double exec = task_exec_ms_[task.index()];
    delay += exec;
    unlocked += exec;
  }
  comm_.push_back(comm);
  delay_.push_back(delay);
  unlocked_.push_back(unlocked);
}

std::uint32_t PathEngine::InternGuard(std::size_t depth) {
  // Sibling paths mostly share a guard, so the previous path's id is
  // the first candidate; the table is scanned by hash only on a change.
  if (!guard_id_.empty() && SameGuard(guard_id_.back(), depth)) {
    return guard_id_.back();
  }
  const std::uint64_t hash = use_bitset_ ? HashGuard(bit_stack_[depth])
                                         : HashGuard(dnf_stack_[depth]);
  for (std::size_t k = 0; k < table_.size(); ++k) {
    if (table_[k].hash == hash && SameGuard(k, depth)) return Offset(k);
  }
  TableEntry entry{.hash = hash};
  if (use_bitset_) {
    const std::vector<ctg::BitMinterm>& minterms =
        bit_stack_[depth].minterms();
    ACTG_CHECK(table_pool_.size() + minterms.size() <= kMaxPoolSize,
               "Path enumeration exceeded the path store's 32-bit offsets");
    entry.begin = Offset(table_pool_.size());
    table_pool_.insert(table_pool_.end(), minterms.begin(), minterms.end());
    entry.end = Offset(table_pool_.size());
  } else {
    dnf_table_.push_back(dnf_stack_[depth]);
  }
  table_.push_back(entry);
  return Offset(table_.size() - 1);
}

bool PathEngine::SameGuard(std::size_t id, std::size_t depth) const {
  if (!use_bitset_) return dnf_table_[id] == dnf_stack_[depth];
  const std::vector<ctg::BitMinterm>& minterms = bit_stack_[depth].minterms();
  return table_[id].end - table_[id].begin == minterms.size() &&
         std::equal(minterms.begin(), minterms.end(),
                    table_pool_.begin() + table_[id].begin);
}

void PathEngine::BuildSpanning() {
  // Counting sort of (path, position) by task; filling in increasing
  // path order keeps every row in the order PathSet appends it.
  const std::size_t n = graph_->task_count();
  for (TaskId task : task_pool_) ++span_begin_[task.index() + 1];
  for (std::size_t t = 0; t < n; ++t) span_begin_[t + 1] += span_begin_[t];
  span_pool_.resize(task_pool_.size());
  span_cursor_.assign(span_begin_.begin(), span_begin_.end() - 1);
  for (std::size_t i = 0; i < size(); ++i) {
    const std::uint32_t begin = task_begin_[i];
    for (std::uint32_t k = begin; k < task_begin_[i + 1]; ++k) {
      span_pool_[span_cursor_[task_pool_[k].index()]++] =
          SpanEntry{static_cast<std::uint32_t>(i), k - begin};
    }
  }
}

void PathEngine::CheckPath(std::size_t i) const {
  ACTG_CHECK(i < size(), "path index out of range");
}

std::span<const TaskId> PathEngine::TasksOf(std::size_t i) const {
  CheckPath(i);
  return {task_pool_.data() + task_begin_[i],
          task_begin_[i + 1] - task_begin_[i]};
}

std::span<const PathEngine::CondEdge> PathEngine::CondEdgesOf(
    std::size_t i) const {
  CheckPath(i);
  return {cond_pool_.data() + cond_begin_[i],
          cond_begin_[i + 1] - cond_begin_[i]};
}

double PathEngine::SlackRatio(std::size_t i, double deadline_ms) const {
  CheckPath(i);
  return SlackRatioOf(i, deadline_ms);
}

double PathEngine::SlackRatioOf(std::size_t i, double deadline_ms) const {
  if (unlocked_[i] <= 0.0) return 0.0;
  return std::max(deadline_ms - delay_[i], 0.0) / unlocked_[i];
}

std::span<const PathEngine::SpanEntry> PathEngine::Spanning(
    TaskId task) const {
  ACTG_CHECK(task.valid() && task.index() < graph_->task_count(),
             "task id out of range");
  return {span_pool_.data() + span_begin_[task.index()],
          span_begin_[task.index() + 1] - span_begin_[task.index()]};
}

PathEngine::MintermProbe PathEngine::Probe(const ctg::Minterm& m) const {
  MintermProbe probe;
  if (use_bitset_) {
    const bool ok = analysis_->space().Encode(m, probe.bits);
    ACTG_ASSERT(ok, "minterm outside the engine's condition space");
  } else {
    probe.minterm = &m;
  }
  return probe;
}

bool PathEngine::GuardCompatibleWith(std::size_t i,
                                     const MintermProbe& probe) const {
  CheckPath(i);
  return TableCompatible(guard_id_[i], probe);
}

bool PathEngine::TableCompatible(std::size_t id,
                                 const MintermProbe& probe) const {
  if (!use_bitset_) return dnf_table_[id].CompatibleWith(*probe.minterm);
  for (std::uint32_t k = table_[id].begin; k < table_[id].end; ++k) {
    if (table_pool_[k].CompatibleWith(probe.bits)) return true;
  }
  return false;
}

std::span<const ctg::BitMinterm> PathEngine::GuardMinterms(
    std::uint32_t id) const {
  ACTG_CHECK(use_bitset_, "GuardMinterms is only available in bitset mode");
  ACTG_CHECK(id < guard_count(), "guard id out of range");
  return {table_pool_.data() + table_[id].begin,
          table_[id].end - table_[id].begin};
}

PathEngine::GuardMatch PathEngine::MatchGuards(const MintermProbe& probe) {
  compatible_.assign(guard_count(), GuardMatch::kUntested);
  return GuardMatch(*this, probe, compatible_.data());
}

std::size_t PathEngine::PositionOf(std::size_t i, TaskId task) const {
  const std::span<const TaskId> tasks = TasksOf(i);
  const auto it = std::find(tasks.begin(), tasks.end(), task);
  ACTG_CHECK(it != tasks.end(), "Path does not span the task");
  return static_cast<std::size_t>(it - tasks.begin());
}

double PathEngine::ProbAfter(std::size_t i, TaskId task,
                             const ctg::BranchProbabilities& probs) const {
  const std::size_t pos = PositionOf(i, task);
  double joint = 1.0;
  // The edge between tasks[k] and tasks[k+1] has source position k; it
  // lies after the task when k >= pos.
  for (std::uint32_t c = cond_begin_[i]; c < cond_begin_[i + 1]; ++c) {
    if (cond_pool_[c].position >= pos) {
      joint *= probs.Of(*graph_->edge(cond_pool_[c].edge).condition);
    }
  }
  return joint;
}

void PathEngine::BindProbabilities(const ctg::BranchProbabilities& probs) {
  edge_prob_.assign(graph_->edge_count(), 1.0);
  for (std::size_t e = 0; e < edge_prob_.size(); ++e) {
    const EdgeId eid{static_cast<int>(e)};
    if (!analysis_->HasEdgeCondition(eid)) continue;
    edge_prob_[e] = probs.Of(*graph_->edge(eid).condition);
  }
}

PathEngine::SpanningScan PathEngine::ScanSpanning(TaskId task,
                                                  double deadline_ms) {
  ACTG_ASSERT(edge_prob_.size() == graph_->edge_count(),
              "ScanSpanning requires BindProbabilities");
  const std::span<const SpanEntry> entries = Spanning(task);
  scan_prob_after_.resize(entries.size());
  scan_slack_ratio_.resize(entries.size());
  for (std::size_t j = 0; j < entries.size(); ++j) {
    const std::uint32_t i = entries[j].path;
    // prob(p, τ) exactly as ProbAfter computes it: 1.0 times the
    // probability of every conditional edge at or after the task's
    // position, left to right.
    double joint = 1.0;
    for (std::uint32_t c = cond_begin_[i]; c < cond_begin_[i + 1]; ++c) {
      if (cond_pool_[c].position >= entries[j].position) {
        joint *= edge_prob_[cond_pool_[c].edge.index()];
      }
    }
    scan_prob_after_[j] = joint;
    scan_slack_ratio_[j] = SlackRatioOf(i, deadline_ms);
  }
  return {entries, scan_prob_after_, scan_slack_ratio_};
}

void PathEngine::CommitTask(TaskId task, double extra_ms,
                            double nominal_ms) {
  for (const SpanEntry& entry : Spanning(task)) {
    delay_[entry.path] += extra_ms;
    unlocked_[entry.path] =
        std::max(unlocked_[entry.path] - nominal_ms, 0.0);
  }
}

void PathEngine::RewindCommits() {
  edge_prob_.clear();
  std::copy(nominal_delay_.begin(), nominal_delay_.end(), delay_.begin());
  std::copy(nominal_unlocked_.begin(), nominal_unlocked_.end(),
            unlocked_.begin());
}

double PathEngine::MaxDelay() const {
  double best = 0.0;
  for (double delay : delay_) best = std::max(best, delay);
  return best;
}

const ctg::Guard& PathEngine::DnfGuard(std::size_t i) const {
  ACTG_CHECK(!use_bitset_, "DnfGuard is only available in DNF mode");
  CheckPath(i);
  return dnf_table_[guard_id_[i]];
}

}  // namespace actg::dvfs
