#include "check/fuzz.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "ctg/activation.h"
#include "dvfs/policy.h"
#include "faults/injector.h"
#include "io/text_format.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/error.h"
#include "util/line_reader.h"

namespace actg::check {

namespace {

/// Substream tags so the probability, trace and injector draws never
/// alias even though they all derive from one case seed.
constexpr std::uint64_t kProbStream = 0x70726F6273ULL;   // "probs"
constexpr std::uint64_t kTraceStream = 0x7472616365ULL;  // "trace"
constexpr std::uint64_t kFaultStream = 0x66617565ULL;

}  // namespace

trace::BranchTrace SampleTrace(const ctg::Ctg& graph,
                               const ctg::BranchProbabilities& probs,
                               std::size_t instances, std::uint64_t seed) {
  const util::Random root = util::Random(seed).Fork(kTraceStream);
  trace::BranchTrace trace(graph.task_count());
  std::vector<double> weights;
  for (std::size_t i = 0; i < instances; ++i) {
    util::Random rng = root.Fork(i);
    ctg::BranchAssignment assignment(graph.task_count());
    for (TaskId fork : graph.ForkIds()) {
      weights.clear();
      for (int o = 0; o < graph.OutcomeCount(fork); ++o) {
        weights.push_back(probs.Outcome(fork, o));
      }
      assignment.Set(fork, static_cast<int>(rng.Categorical(weights)));
    }
    trace.Append(assignment);
  }
  return trace;
}

namespace {

/// Rebuilds the case's graph without one task and/or one edge. Returns
/// nullopt when the mutated graph no longer validates (e.g. a fork lost
/// an outcome), so the shrinker simply skips that mutation.
std::optional<ctg::Ctg> RebuildGraph(const ctg::Ctg& graph,
                                     int skip_task, int skip_edge) {
  try {
    ctg::CtgBuilder builder;
    std::vector<TaskId> remap(graph.task_count(), TaskId{});
    for (TaskId t : graph.TaskIds()) {
      if (t.index() == static_cast<std::size_t>(skip_task)) continue;
      const ctg::Task& task = graph.task(t);
      remap[t.index()] = task.join == ctg::JoinType::kOr
                             ? builder.AddOrTask(task.name)
                             : builder.AddTask(task.name);
    }
    for (EdgeId eid : graph.EdgeIds()) {
      if (eid.index() == static_cast<std::size_t>(skip_edge)) continue;
      const ctg::Edge& e = graph.edge(eid);
      if (e.src.index() == static_cast<std::size_t>(skip_task) ||
          e.dst.index() == static_cast<std::size_t>(skip_task)) {
        continue;
      }
      if (e.condition.has_value()) {
        builder.AddConditionalEdge(remap[e.src.index()],
                                   remap[e.dst.index()],
                                   e.condition->outcome, e.comm_kbytes);
      } else {
        builder.AddEdge(remap[e.src.index()], remap[e.dst.index()],
                        e.comm_kbytes);
      }
    }
    ctg::Ctg rebuilt = std::move(builder).Build();
    if (graph.deadline_ms() > 0.0) rebuilt.SetDeadline(graph.deadline_ms());
    return rebuilt;
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Rebuilds the platform keeping only the listed original task/PE
/// indices (both in ascending order).
std::optional<arch::Platform> RebuildPlatform(
    const arch::Platform& platform, const std::vector<int>& keep_tasks,
    const std::vector<int>& keep_pes) {
  try {
    arch::PlatformBuilder builder(keep_tasks.size(), keep_pes.size());
    for (std::size_t p = 0; p < keep_pes.size(); ++p) {
      const arch::PeInfo& info = platform.pe(PeId{keep_pes[p]});
      builder.SetPeName(PeId{static_cast<int>(p)}, info.name);
      if (!info.speed_levels.empty()) {
        builder.SetSpeedLevels(PeId{static_cast<int>(p)},
                               info.speed_levels);
      } else {
        builder.SetMinSpeedRatio(PeId{static_cast<int>(p)},
                                 info.min_speed_ratio);
      }
    }
    for (std::size_t t = 0; t < keep_tasks.size(); ++t) {
      for (std::size_t p = 0; p < keep_pes.size(); ++p) {
        builder.SetTaskCost(TaskId{static_cast<int>(t)},
                            PeId{static_cast<int>(p)},
                            platform.Wcet(TaskId{keep_tasks[t]},
                                          PeId{keep_pes[p]}),
                            platform.Energy(TaskId{keep_tasks[t]},
                                            PeId{keep_pes[p]}));
      }
    }
    for (std::size_t a = 0; a < keep_pes.size(); ++a) {
      for (std::size_t b = a + 1; b < keep_pes.size(); ++b) {
        builder.SetLink(PeId{static_cast<int>(a)},
                        PeId{static_cast<int>(b)},
                        platform.Bandwidth(PeId{keep_pes[a]},
                                           PeId{keep_pes[b]}),
                        platform.TxEnergyPerKb(PeId{keep_pes[a]},
                                               PeId{keep_pes[b]}));
      }
    }
    return std::move(builder).Build();
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<int> AllIndices(std::size_t n, int skip = -1) {
  std::vector<int> indices;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) != skip) indices.push_back(static_cast<int>(i));
  }
  return indices;
}

std::optional<FuzzCase> WithoutTask(const FuzzCase& c, int task) {
  std::optional<ctg::Ctg> graph = RebuildGraph(c.graph, task, -1);
  if (!graph.has_value()) return std::nullopt;
  std::optional<arch::Platform> platform = RebuildPlatform(
      c.platform, AllIndices(c.graph.task_count(), task),
      AllIndices(c.platform.pe_count()));
  if (!platform.has_value()) return std::nullopt;
  FuzzCase out = c;
  out.graph = std::move(*graph);
  out.platform = std::move(*platform);
  return out;
}

std::optional<FuzzCase> WithoutEdge(const FuzzCase& c, int edge) {
  std::optional<ctg::Ctg> graph = RebuildGraph(c.graph, -1, edge);
  if (!graph.has_value()) return std::nullopt;
  FuzzCase out = c;
  out.graph = std::move(*graph);
  return out;
}

std::optional<FuzzCase> WithoutPe(const FuzzCase& c, int pe) {
  if (c.platform.pe_count() <= 1 || c.masked_pes != 0) return std::nullopt;
  std::optional<arch::Platform> platform = RebuildPlatform(
      c.platform, AllIndices(c.graph.task_count()),
      AllIndices(c.platform.pe_count(), pe));
  if (!platform.has_value()) return std::nullopt;
  FuzzCase out = c;
  out.platform = std::move(*platform);
  return out;
}

/// Single-knob simplifications, cheapest semantics first.
std::vector<FuzzCase> KnobCandidates(const FuzzCase& c) {
  std::vector<FuzzCase> candidates;
  const auto with = [&](auto mutate) {
    FuzzCase cand = c;
    mutate(cand);
    candidates.push_back(std::move(cand));
  };
  if (c.reschedule_mode != adaptive::RescheduleMode::kFull) {
    with([](FuzzCase& x) {
      x.reschedule_mode = adaptive::RescheduleMode::kFull;
    });
  }
  if (c.adaptive) with([](FuzzCase& x) { x.adaptive = false; });
  if (c.with_faults) {
    with([](FuzzCase& x) {
      x.with_faults = false;
      x.faults = faults::FaultPlan{};
    });
  }
  if (c.masked_pes != 0) with([](FuzzCase& x) { x.masked_pes = 0; });
  if (c.policy != "proportional") {
    with([](FuzzCase& x) { x.policy = "proportional"; });
  }
  if (c.mutex_aware) with([](FuzzCase& x) { x.mutex_aware = false; });
  if (c.prob_weighted) with([](FuzzCase& x) { x.prob_weighted = false; });
  return candidates;
}

}  // namespace

FuzzCaseSpec RandomSpec(const util::Random& root, std::uint64_t index) {
  util::Random rng = root.Fork(index);
  FuzzCaseSpec spec;
  spec.params.seed = rng.engine().Next();
  spec.params.category = rng.Bernoulli(0.5) ? tgff::Category::kForkJoin
                                            : tgff::Category::kFlat;
  spec.params.fork_count = rng.UniformInt(0, 4);
  // Minimum counts mirror RandomCtgParams::Validate: a fork-join block
  // needs 4 tasks per fork plus source/sink, a flat arm 3 per fork.
  const int min_tasks =
      spec.params.category == tgff::Category::kForkJoin
          ? 4 * spec.params.fork_count + 2
          : 2 + 3 * spec.params.fork_count;
  spec.params.task_count = min_tasks + rng.UniformInt(0, 12);
  spec.params.pe_count = rng.UniformInt(1, 4);
  spec.deadline_factor = rng.Uniform(1.2, 3.0);
  const double policy_pick = rng.UniformUnit();
  spec.policy = policy_pick < 0.5 ? "online"
                : policy_pick < 0.85 ? "proportional"
                                     : "nlp";
  spec.mutex_aware = rng.Bernoulli(0.85);
  spec.prob_weighted = rng.Bernoulli(0.85);
  if (spec.params.pe_count >= 2 && rng.Bernoulli(0.3)) {
    spec.masked_pes = 1ULL << rng.UniformInt(0, spec.params.pe_count - 1);
  }
  spec.prob_seed = rng.engine().Next();
  spec.trace_instances =
      static_cast<std::size_t>(rng.UniformInt(12, 40));
  spec.adaptive = rng.Bernoulli(0.3);
  // A slice of the adaptive cases drives the warm-start path with the
  // built-in differential check armed (see FuzzCase::reschedule_mode).
  if (spec.adaptive && rng.Bernoulli(0.35)) {
    spec.reschedule_mode = adaptive::RescheduleMode::kIncremental;
  }
  if (rng.Bernoulli(0.4)) {
    spec.with_faults = true;
    spec.faults.intensity = rng.Uniform(0.3, 1.0);
    spec.faults.overrun = {rng.Uniform(0.0, 0.3), 1.0,
                           rng.Uniform(1.0, 2.5)};
    spec.faults.dropout = {rng.Uniform(0.0, 0.1),
                           static_cast<std::size_t>(rng.UniformInt(1, 3)),
                           rng.Uniform(1.0, 3.0)};
    spec.faults.link = {rng.Uniform(0.0, 0.2), rng.Uniform(0.25, 1.0),
                        static_cast<std::size_t>(rng.UniformInt(1, 3))};
    spec.faults.drift = {rng.Uniform(0.0, 0.4),
                         static_cast<std::size_t>(rng.UniformInt(8, 32))};
  }
  return spec;
}

FuzzCase Materialize(const FuzzCaseSpec& spec) {
  tgff::RandomCase rc = tgff::MakeRandomCtg(spec.params).value();
  apps::AssignDeadline(rc.graph, rc.platform, spec.deadline_factor);
  return FuzzCase{std::move(rc.graph),   std::move(rc.platform),
                  spec.policy,           spec.mutex_aware,
                  spec.prob_weighted,    spec.masked_pes,
                  spec.prob_seed,        spec.trace_instances,
                  spec.adaptive,         spec.reschedule_mode,
                  spec.with_faults,      spec.faults};
}

ctg::BranchProbabilities CaseProbabilities(const ctg::Ctg& graph,
                                           std::uint64_t seed) {
  const util::Random root = util::Random(seed).Fork(kProbStream);
  ctg::BranchProbabilities probs(graph.task_count());
  for (TaskId fork : graph.ForkIds()) {
    util::Random rng = root.Fork(fork.index());
    std::vector<double> dist(graph.OutcomeCount(fork));
    double sum = 0.0;
    for (double& p : dist) {
      p = rng.Uniform(0.05, 1.0);  // floor keeps every outcome reachable
      sum += p;
    }
    for (double& p : dist) p /= sum;
    probs.Set(fork, std::move(dist));
  }
  return probs;
}

Report RunCase(const FuzzCase& c) {
  Report report;
  try {
    const ctg::ActivationAnalysis analysis(c.graph);
    const ctg::BranchProbabilities probs =
        CaseProbabilities(c.graph, c.prob_seed);
    sched::DlsOptions dls;
    dls.mutex_aware = c.mutex_aware;
    dls.level_policy = c.prob_weighted
                           ? sched::LevelPolicy::kProbabilityWeighted
                           : sched::LevelPolicy::kWorstCase;
    dls.available_pes = arch::PeMask::WithoutBits(c.masked_pes);

    sched::Schedule schedule =
        sched::RunDls(c.graph, analysis, c.platform, probs, dls);
    Expectations expect;
    expect.available_pes = dls.available_pes;
    report.Merge(CheckSchedule(schedule, expect));

    // The stretchers guarantee the deadline only when the nominal
    // schedule was feasible; establish the claim before stretching.
    const double deadline = c.graph.deadline_ms();
    if (deadline > 0.0) {
      expect.deadline_feasible =
          sim::MaxScenarioMakespan(schedule) <= deadline + 1e-9;
      dvfs::ApplyPolicy(c.policy, schedule, probs);
      report.Merge(CheckSchedule(schedule, expect));
    }

    // Every execution scenario through the executor, re-verified.
    for (const ctg::Minterm& scenario :
         analysis.EnumerateScenarioAssignments()) {
      const ctg::BranchAssignment assignment =
          sim::AssignmentFromScenario(c.graph, scenario);
      report.Merge(CheckInstance(
          schedule, assignment, sim::ExecuteInstance(schedule, assignment)));
    }

    // A random trace, optionally fault-injected.
    const trace::BranchTrace trace =
        SampleTrace(c.graph, probs, c.trace_instances, c.prob_seed);
    std::optional<faults::Injector> injector;
    if (c.with_faults) {
      injector.emplace(c.faults, c.graph, c.platform,
                       util::Random(c.prob_seed)
                           .Fork(kFaultStream)
                           .engine()
                           .Next());
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ctg::BranchAssignment assignment = trace.At(i);
      std::optional<faults::InstanceFaults> f;
      if (injector.has_value()) {
        injector->ApplyDrift(i, assignment);
        f = injector->ForInstance(i);
      }
      const faults::InstanceFaults* faults = f.has_value() ? &*f : nullptr;
      report.Merge(CheckInstance(
          schedule, assignment,
          sim::ExecuteInstance(schedule, assignment, faults), faults));
    }

    // The adaptive controller with its validator hooks armed: every
    // reschedule it performs is oracle-checked from the inside.
    if (c.adaptive) {
      adaptive::AdaptiveOptions options;
      options.window_length = 8;
      options.threshold = 0.2;
      options.dls = dls;
      options.policy = c.policy;
      options.validate_schedules = true;
      options.reschedule.mode = c.reschedule_mode;
      // Every warm-started result is differentially checked against a
      // from-scratch recompute inside the facade.
      options.reschedule.verify_incremental =
          c.reschedule_mode == adaptive::RescheduleMode::kIncremental;
      adaptive::AdaptiveController controller(c.graph, analysis,
                                              c.platform, probs, options);
      adaptive::RunAdaptive(controller, trace,
                            injector.has_value() ? &*injector : nullptr);
      report.Merge(CheckSchedule(controller.current_schedule(), expect));
    }
  } catch (const std::exception& e) {
    report.Add("pipeline.exception", e.what());
  }
  return report;
}

FuzzCase Shrink(const FuzzCase& c,
                const std::function<bool(const FuzzCase&)>& still_fails) {
  FuzzCase current = c;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const FuzzCase& cand : KnobCandidates(current)) {
      if (still_fails(cand)) {
        current = cand;
        progress = true;
      }
    }
    for (int t = static_cast<int>(current.graph.task_count()) - 1; t >= 0;
         --t) {
      if (t >= static_cast<int>(current.graph.task_count())) continue;
      if (std::optional<FuzzCase> cand = WithoutTask(current, t);
          cand.has_value() && still_fails(*cand)) {
        current = std::move(*cand);
        progress = true;
      }
    }
    for (int e = static_cast<int>(current.graph.edge_count()) - 1; e >= 0;
         --e) {
      if (e >= static_cast<int>(current.graph.edge_count())) continue;
      if (std::optional<FuzzCase> cand = WithoutEdge(current, e);
          cand.has_value() && still_fails(*cand)) {
        current = std::move(*cand);
        progress = true;
      }
    }
    for (int p = static_cast<int>(current.platform.pe_count()) - 1; p >= 0;
         --p) {
      if (p >= static_cast<int>(current.platform.pe_count())) continue;
      if (std::optional<FuzzCase> cand = WithoutPe(current, p);
          cand.has_value() && still_fails(*cand)) {
        current = std::move(*cand);
        progress = true;
      }
    }
    while (current.trace_instances > 1) {
      FuzzCase cand = current;
      cand.trace_instances /= 2;
      if (!still_fails(cand)) break;
      current = std::move(cand);
      progress = true;
    }
  }
  return current;
}

void WriteRepro(std::ostream& os, const FuzzCase& c) {
  os << "fuzzcase v1\n";
  os << "policy " << c.policy << "\n";
  os << "mutex_aware " << (c.mutex_aware ? 1 : 0) << "\n";
  os << "prob_weighted " << (c.prob_weighted ? 1 : 0) << "\n";
  os << "mask " << c.masked_pes << "\n";
  os << "prob_seed " << c.prob_seed << "\n";
  os << "trace_instances " << c.trace_instances << "\n";
  os << "adaptive " << (c.adaptive ? 1 : 0) << "\n";
  os << "reschedule " << adaptive::RescheduleModeName(c.reschedule_mode)
     << "\n";
  if (c.with_faults) {
    os << "faults\n";
    faults::WriteFaultPlan(os, c.faults);
  }
  os << "graph\n";
  io::WriteCtg(os, c.graph);
  os << "platform\n";
  io::WritePlatform(os, c.platform);
  os << "end\n";
}

namespace {

FuzzCase ReadRepro(util::LineReader& reader) {
  reader.ExpectHeader("fuzzcase v1");
  std::string policy = "online";
  bool mutex_aware = true;
  bool prob_weighted = true;
  std::uint64_t masked_pes = 0;
  std::uint64_t prob_seed = 1;
  std::size_t trace_instances = 24;
  bool adaptive = false;
  adaptive::RescheduleMode reschedule_mode = adaptive::RescheduleMode::kFull;
  bool with_faults = false;
  faults::FaultPlan fault_plan;
  std::optional<ctg::Ctg> graph;
  std::optional<arch::Platform> platform;
  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "policy") {
      policy = reader.Operand("<name>");
    } else if (directive == "mutex_aware") {
      mutex_aware = reader.Flag(reader.Operand("<0|1>"));
    } else if (directive == "prob_weighted") {
      prob_weighted = reader.Flag(reader.Operand("<0|1>"));
    } else if (directive == "mask") {
      masked_pes = reader.U64(reader.Operand("<bitmask>"));
    } else if (directive == "prob_seed") {
      prob_seed = reader.U64(reader.Operand("<seed>"));
    } else if (directive == "trace_instances") {
      trace_instances = reader.U64(reader.Operand("<count>"));
    } else if (directive == "adaptive") {
      adaptive = reader.Flag(reader.Operand("<0|1>"));
    } else if (directive == "reschedule") {
      const std::string& name = reader.Operand("<mode>");
      const auto mode = adaptive::ParseRescheduleMode(name);
      if (!mode.has_value()) {
        reader.Fail("unknown reschedule mode '" + name + "'");
      }
      reschedule_mode = *mode;
    } else if (directive == "faults") {
      reader.Operands(0, "no operands");
      fault_plan = faults::ReadFaultPlan(reader);
      with_faults = true;
    } else if (directive == "graph") {
      reader.Operands(0, "no operands");
      graph.emplace(io::ReadCtg(reader));
    } else if (directive == "platform") {
      reader.Operands(0, "no operands");
      platform.emplace(io::ReadPlatform(reader));
    } else {
      reader.UnknownDirective();
    }
  }
  if (!graph.has_value()) reader.Fail("missing embedded graph");
  if (!platform.has_value()) reader.Fail("missing embedded platform");
  if (platform->task_count() != graph->task_count()) {
    reader.Fail("platform and graph disagree on the task count");
  }
  if (platform->pe_count() <= 64 &&
      arch::PeMask::WithoutBits(masked_pes)
              .CountAvailable(platform->pe_count()) == 0) {
    reader.Fail("mask removes every PE");
  }
  return FuzzCase{std::move(*graph), std::move(*platform),
                  std::move(policy), mutex_aware,
                  prob_weighted,     masked_pes,
                  prob_seed,         trace_instances,
                  adaptive,          reschedule_mode,
                  with_faults,       std::move(fault_plan)};
}

}  // namespace

util::Expected<FuzzCase> ParseRepro(std::istream& is) {
  return util::ParseLines(is, "fuzzcase", ReadRepro);
}

}  // namespace actg::check
