#include "tgff/random_ctg.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.h"

namespace actg::tgff {

namespace {

/// Minimum number of tasks a conditional block with \p forks forks
/// (itself plus nested ones) requires: fork + or-join + two arms.
int MinBlockTasks(int forks) { return 4 * forks; }

/// Splits \p total into \p minima.size() parts, each at least its
/// minimum, distributing the surplus randomly with the given relative
/// weights (uniform when \p weights is empty).
std::vector<int> SplitBudget(int total, const std::vector<int>& minima,
                             util::Random& rng,
                             const std::vector<double>& weights = {}) {
  int base = 0;
  for (int m : minima) base += m;
  ACTG_ASSERT(total >= base, "budget smaller than the sum of minima");
  std::vector<int> parts = minima;
  const std::vector<double> w =
      weights.empty() ? std::vector<double>(minima.size(), 1.0) : weights;
  ACTG_ASSERT(w.size() == minima.size(), "weight/minima size mismatch");
  for (int surplus = total - base; surplus > 0; --surplus) {
    parts[rng.Categorical(w)] += 1;
  }
  return parts;
}

/// Graph construction state shared by the recursive builders.
struct Gen {
  ctg::CtgBuilder builder;
  util::Random rng;
  const RandomCtgParams* params;
  int next_name = 0;

  explicit Gen(const RandomCtgParams& p) : rng(p.seed), params(&p) {}

  TaskId NewTask() { return builder.AddTask(NextName()); }
  TaskId NewOrTask() { return builder.AddOrTask(NextName()); }
  /// "t<n>", appended: GCC 12.2 flags `"t" + std::to_string(n)` with a
  /// false -Wrestrict.
  std::string NextName() {
    std::string name = "t";
    name += std::to_string(next_name++);
    return name;
  }
  double Comm() {
    return rng.Uniform(params->comm_min_kb, params->comm_max_kb);
  }
};

/// A sub-graph with a unique entry and a unique exit task.
struct Segment {
  TaskId entry;
  TaskId exit;
};

/// Builds a chain of \p tasks tasks (>= 1). With spare budget it may
/// widen into 2-wide parallel stages (fork-join parallelism; only used
/// for Category 1). First and last stages stay single so the segment has
/// a unique entry and exit.
Segment BuildChain(Gen& gen, int tasks, bool allow_parallel) {
  ACTG_ASSERT(tasks >= 1, "chain needs at least one task");
  std::vector<std::vector<TaskId>> stages;
  int remaining = tasks;
  while (remaining > 0) {
    // Widen interior stages (TGFF-style graphs have parallel width;
    // width above the PE count is what makes the mapping decisions and
    // the mutual-exclusion-aware PE sharing matter). First and last
    // stages stay single so the segment has a unique entry and exit.
    int width = 1;
    if (allow_parallel && !stages.empty() && remaining > 2) {
      const double draw = gen.rng.UniformUnit();
      if (remaining > 3 && draw < 0.25) {
        width = 3;
      } else if (draw < 0.60) {
        width = 2;
      }
    }
    std::vector<TaskId> stage;
    for (int i = 0; i < width; ++i) stage.push_back(gen.NewTask());
    remaining -= width;
    stages.push_back(std::move(stage));
  }
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    for (TaskId src : stages[s]) {
      for (TaskId dst : stages[s + 1]) {
        gen.builder.AddEdge(src, dst, gen.Comm());
      }
    }
  }
  return Segment{stages.front().front(), stages.back().front()};
}

Segment BuildCondBlock(Gen& gen, int tasks, int forks);

/// Builds an arm: a chain with up to \p forks nested conditional blocks
/// spliced in (Category 1 nesting).
Segment BuildArm(Gen& gen, int tasks, int forks) {
  if (forks == 0) return BuildChain(gen, tasks, /*allow_parallel=*/true);
  // Reserve a chain task before and (optionally) after the nested block
  // when budget allows, then recurse.
  const int block_min = MinBlockTasks(forks);
  int pre = 0;
  int post = 0;
  int spare = tasks - block_min;
  ACTG_ASSERT(spare >= 0, "arm budget below nested block minimum");
  if (spare > 0) {
    pre = gen.rng.UniformInt(0, spare);
    spare -= pre;
    post = gen.rng.UniformInt(0, spare);
  }
  const int block_tasks = tasks - pre - post;
  Segment block = BuildCondBlock(gen, block_tasks, forks);
  Segment result = block;
  if (pre > 0) {
    Segment chain = BuildChain(gen, pre, true);
    gen.builder.AddEdge(chain.exit, block.entry, gen.Comm());
    result.entry = chain.entry;
  }
  if (post > 0) {
    Segment chain = BuildChain(gen, post, true);
    gen.builder.AddEdge(block.exit, chain.entry, gen.Comm());
    result.exit = chain.exit;
  }
  return result;
}

/// Builds a conditional block: fork task, two mutually exclusive arms,
/// or-node join. Consumes exactly \p tasks tasks and \p forks forks
/// (the block's own fork plus nested ones distributed into the arms).
Segment BuildCondBlock(Gen& gen, int tasks, int forks) {
  ACTG_ASSERT(forks >= 1, "conditional block needs a fork");
  ACTG_ASSERT(tasks >= MinBlockTasks(forks),
              "conditional block budget too small");
  const TaskId fork = gen.NewTask();
  const TaskId join = gen.NewOrTask();

  const int nested = forks - 1;
  const int arm_forks_a = nested > 0 ? gen.rng.UniformInt(0, nested) : 0;
  const int arm_forks_b = nested - arm_forks_a;
  const std::vector<int> arm_tasks = SplitBudget(
      tasks - 2,
      {std::max(1, MinBlockTasks(arm_forks_a)),
       std::max(1, MinBlockTasks(arm_forks_b))},
      gen.rng);

  const Segment arm_a = BuildArm(gen, arm_tasks[0], arm_forks_a);
  const Segment arm_b = BuildArm(gen, arm_tasks[1], arm_forks_b);
  gen.builder.AddConditionalEdge(fork, arm_a.entry, 0, gen.Comm());
  gen.builder.AddConditionalEdge(fork, arm_b.entry, 1, gen.Comm());
  gen.builder.AddEdge(arm_a.exit, join, gen.Comm());
  gen.builder.AddEdge(arm_b.exit, join, gen.Comm());
  return Segment{fork, join};
}

/// Category 1: pre-chain, a sequence of (possibly nested) conditional
/// blocks separated by chains, post-chain.
void BuildForkJoin(Gen& gen, int tasks, int forks) {
  if (forks == 0) {
    BuildChain(gen, tasks, true);
    return;
  }
  // Choose how many top-level blocks carry the forks.
  const int top_blocks = gen.rng.UniformInt(1, forks);
  std::vector<int> block_forks(static_cast<std::size_t>(top_blocks), 1);
  for (int extra = forks - top_blocks; extra > 0; --extra) {
    block_forks[static_cast<std::size_t>(
        gen.rng.UniformInt(0, top_blocks - 1))] += 1;
  }
  // Budget: one entry task, one exit task, blocks in between. Surplus
  // tasks go predominantly into the conditional blocks — the paper's
  // CTGs are dominated by their conditional branches ("branches which
  // may activate or deactivate a large set of operations", Section I),
  // which is what makes mutual-exclusion-aware scheduling matter.
  std::vector<int> minima{1};  // entry chain
  std::vector<double> weights{1.0};
  for (int f : block_forks) {
    minima.push_back(MinBlockTasks(f));
    weights.push_back(6.0);
  }
  minima.push_back(1);  // exit chain
  weights.push_back(1.0);
  const std::vector<int> budget =
      SplitBudget(tasks, minima, gen.rng, weights);

  Segment head = BuildChain(gen, budget.front(), true);
  TaskId tail = head.exit;
  for (int b = 0; b < top_blocks; ++b) {
    const Segment block = BuildCondBlock(
        gen, budget[static_cast<std::size_t>(b) + 1],
        block_forks[static_cast<std::size_t>(b)]);
    gen.builder.AddEdge(tail, block.entry, gen.Comm());
    tail = block.exit;
  }
  Segment foot = BuildChain(gen, budget.back(), true);
  gen.builder.AddEdge(tail, foot.entry, gen.Comm());
}

/// Category 2: a root task spawns one plain chain plus one sub-chain per
/// fork; each fork's arms run to their own sinks (no joins, no nesting,
/// no parallel stages).
void BuildFlat(Gen& gen, int tasks, int forks) {
  if (forks == 0) {
    BuildChain(gen, tasks, false);
    return;
  }
  // Minimum per fork chain: fork task + one task per arm = 3. The root
  // task is created outside the budget split. Unlike Category 1, the
  // unconditional main chain carries most of the surplus work: without
  // fork-join nesting the conditional side chains stay comparatively
  // small, which is part of why the paper finds the adaptive algorithm
  // "favors the application in the first category".
  std::vector<int> minima{1};  // main chain
  std::vector<double> weights{4.0};
  for (int f = 0; f < forks; ++f) {
    minima.push_back(3);
    weights.push_back(1.0);
  }
  const std::vector<int> budget =
      SplitBudget(tasks - 1, minima, gen.rng, weights);

  const TaskId root = gen.NewTask();
  const Segment main_chain = BuildChain(gen, budget[0], false);
  gen.builder.AddEdge(root, main_chain.entry, gen.Comm());

  for (int f = 0; f < forks; ++f) {
    int chain_tasks = budget[static_cast<std::size_t>(f) + 1];
    // Optional unconditional prefix before the fork.
    TaskId attach = root;
    while (chain_tasks > 3 && gen.rng.Bernoulli(0.5)) {
      const TaskId pre = gen.NewTask();
      gen.builder.AddEdge(attach, pre, gen.Comm());
      attach = pre;
      --chain_tasks;
    }
    const TaskId fork = gen.NewTask();
    gen.builder.AddEdge(attach, fork, gen.Comm());
    --chain_tasks;
    const std::vector<int> arms =
        SplitBudget(chain_tasks, {1, 1}, gen.rng);
    const Segment arm_a = BuildChain(gen, arms[0], false);
    const Segment arm_b = BuildChain(gen, arms[1], false);
    gen.builder.AddConditionalEdge(fork, arm_a.entry, 0, gen.Comm());
    gen.builder.AddConditionalEdge(fork, arm_b.entry, 1, gen.Comm());
  }
}

arch::Platform BuildPlatform(const ctg::Ctg& graph,
                             const RandomCtgParams& params,
                             util::Random& rng) {
  arch::PlatformBuilder builder(
      graph.task_count(), static_cast<std::size_t>(params.pe_count),
      params.bandwidth_kb_per_ms, params.tx_energy_mj_per_kb);
  std::vector<double> pe_power(static_cast<std::size_t>(params.pe_count));
  for (auto& power : pe_power) {
    power = rng.Uniform(params.power_min, params.power_max);
  }
  for (int pe = 0; pe < params.pe_count; ++pe) {
    builder.SetMinSpeedRatio(PeId{pe}, params.min_speed_ratio);
  }
  for (TaskId task : graph.TaskIds()) {
    const double base = rng.Uniform(params.wcet_min_ms, params.wcet_max_ms);
    for (int pe = 0; pe < params.pe_count; ++pe) {
      const double wcet =
          base * rng.Uniform(params.hetero_min, params.hetero_max);
      const double energy = wcet * pe_power[static_cast<std::size_t>(pe)] *
                            rng.Uniform(0.9, 1.1);
      builder.SetTaskCost(task, PeId{pe}, wcet, energy);
    }
  }
  return std::move(builder).Build();
}

}  // namespace

util::Error RandomCtgParams::Validate() const {
  if (task_count < 1) {
    return util::Error::Invalid(
        "RandomCtgParams: task_count must be >= 1");
  }
  if (fork_count < 0) {
    return util::Error::Invalid(
        "RandomCtgParams: fork_count must be >= 0");
  }
  if (pe_count < 1) {
    return util::Error::Invalid("RandomCtgParams: pe_count must be >= 1");
  }
  const int min_tasks = category == Category::kForkJoin
                            ? MinBlockTasks(fork_count) + 2
                            : 2 + 3 * fork_count;
  if (task_count < min_tasks) {
    return util::Error::Invalid(
        "RandomCtgParams: task_count too small for the requested "
        "fork_count (need >= " +
        std::to_string(min_tasks) + ")");
  }
  if (!(wcet_min_ms > 0.0) || wcet_max_ms < wcet_min_ms) {
    return util::Error::Invalid(
        "RandomCtgParams: WCET range must be positive and ordered");
  }
  if (!(hetero_min > 0.0) || hetero_max < hetero_min) {
    return util::Error::Invalid(
        "RandomCtgParams: heterogeneity range must be positive and "
        "ordered");
  }
  if (!(power_min > 0.0) || power_max < power_min) {
    return util::Error::Invalid(
        "RandomCtgParams: power range must be positive and ordered");
  }
  if (comm_min_kb < 0.0 || comm_max_kb < comm_min_kb) {
    return util::Error::Invalid(
        "RandomCtgParams: comm range must be non-negative and ordered");
  }
  if (!(bandwidth_kb_per_ms > 0.0)) {
    return util::Error::Invalid(
        "RandomCtgParams: bandwidth must be positive");
  }
  if (!(min_speed_ratio > 0.0) || min_speed_ratio > 1.0) {
    return util::Error::Invalid(
        "RandomCtgParams: min_speed_ratio must lie in (0, 1]");
  }
  return {};
}

util::Expected<RandomCase> MakeRandomCtg(const RandomCtgParams& params) {
  if (util::Error err = params.Validate()) return err;

  Gen gen(params);
  if (params.category == Category::kForkJoin) {
    BuildForkJoin(gen, params.task_count, params.fork_count);
  } else {
    BuildFlat(gen, params.task_count, params.fork_count);
  }
  ctg::Ctg graph = std::move(gen.builder).Build();
  ACTG_ASSERT(static_cast<int>(graph.task_count()) == params.task_count,
              "generator produced the wrong task count");
  ACTG_ASSERT(static_cast<int>(graph.ForkIds().size()) ==
                  params.fork_count,
              "generator produced the wrong fork count");
  arch::Platform platform = BuildPlatform(graph, params, gen.rng);
  return RandomCase{std::move(graph), std::move(platform)};
}

}  // namespace actg::tgff
