/// \file test_path_engine.cpp
/// Equivalence tests of the reusable dvfs::PathEngine against the
/// from-scratch PathSet enumeration, over generated Category-1 and
/// Category-2 CTGs, the MPEG model and a generated CTG scheduled on a
/// single surviving PE: same paths in the same order, same delays and
/// probabilities, same guard predicates — in bitset mode and in the
/// force_dnf fallback mode — every entry of the compact path store
/// (spanning (path, position) rows, conditional-edge lists, prob(p,τ)
/// and slack ratios of the stretch scan) bit for bit, and identical
/// results whether an engine is fresh, reused across enumerations and
/// stretch calls, or rewound.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "dvfs/path_engine.h"
#include "dvfs/paths.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg {
namespace {

tgff::RandomCase Generate(tgff::Category category, std::uint64_t seed,
                          double deadline_factor, int task_count = 18,
                          int fork_count = 2) {
  tgff::RandomCtgParams params;
  params.task_count = task_count;
  params.pe_count = 3;
  params.fork_count = fork_count;
  params.category = category;
  params.seed = seed;
  auto generated = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(generated.graph, generated.platform, deadline_factor);
  return generated;
}

struct Case {
  tgff::RandomCase rc;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;
  /// PEs the scheduler may place on (all unless a case masks some).
  arch::PeMask mask;

  Case(tgff::Category category, std::uint64_t seed)
      : Case(Generate(category, seed, 1.3)) {}

  explicit Case(tgff::RandomCase generated, arch::PeMask pes = {})
      : rc(std::move(generated)),
        analysis(rc.graph),
        probs(apps::UniformProbabilities(rc.graph)),
        mask(pes) {}

  /// The case's nominal DLS schedule under its PE mask.
  sched::Schedule Schedule() const {
    sched::DlsOptions options;
    options.available_pes = mask;
    return sched::RunDls(rc.graph, analysis, rc.platform, probs, options);
  }
};

/// Runs \p fn on each generated case. Cases are constructed in place
/// (never moved): the analysis and schedules reference the graph by
/// address.
template <typename Fn>
void ForEachCase(Fn&& fn) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    for (tgff::Category category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      const Case c(category, seed);
      fn(c);
    }
  }
}

/// The generated case the one-PE tests mask: 36 paths on its three
/// PEs, 865 when the mask leaves PE 0 alone.
Case OnePeCase() {
  return Case(Generate(tgff::Category::kFlat, 8, 3.0),
              arch::PeMask::WithoutBits(0b110));
}

/// ForEachCase, plus the MPEG model (9 forks) and OnePeCase(), where
/// every task shares one timeline and the pseudo edges multiply the
/// paths.
template <typename Fn>
void ForEachStoreCase(Fn&& fn) {
  ForEachCase(fn);
  {
    apps::MpegModel mpeg = apps::MakeMpegModel();
    const Case c(
        tgff::RandomCase{std::move(mpeg.graph), std::move(mpeg.platform)});
    fn(c);
  }
  {
    const Case c = OnePeCase();
    fn(c);
  }
}

/// Asserts that an engine's enumeration matches a PathSet of the same
/// schedule element for element: every entry of the compact store —
/// tasks, conditional-edge lists, comm/delay/unlocked, each task's
/// spanning (path, position) row — and the stretch scan's
/// prob(p,τ) and slack ratio per (path, position), all compared with
/// EXPECT_EQ, i.e. bit for bit.
void ExpectMatchesPathSet(dvfs::PathEngine& engine,
                          const dvfs::PathSet& expected,
                          const Case& c) {
  ASSERT_EQ(engine.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const dvfs::Path& path = expected.path(i);
    const auto tasks = engine.TasksOf(i);
    ASSERT_EQ(tasks.size(), path.tasks.size()) << "path " << i;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      EXPECT_EQ(tasks[k], path.tasks[k]) << "path " << i;
    }
    std::vector<dvfs::PathEngine::CondEdge> conditional;
    for (std::size_t k = 0; k < path.edges.size(); ++k) {
      const std::optional<EdgeId>& edge = path.edges[k];
      if (edge.has_value() && c.rc.graph.edge(*edge).condition.has_value()) {
        conditional.push_back({static_cast<std::uint32_t>(k), *edge});
      }
    }
    const auto cond_edges = engine.CondEdgesOf(i);
    EXPECT_EQ(std::vector<dvfs::PathEngine::CondEdge>(cond_edges.begin(),
                                                      cond_edges.end()),
              conditional)
        << "path " << i;
    EXPECT_EQ(engine.comm_ms(i), path.comm_ms);
    EXPECT_EQ(engine.delay_ms(i), path.delay_ms);
    EXPECT_EQ(engine.unlocked_ms(i), path.unlocked_ms);

    // Guard predicates agree for every scenario minterm and for every
    // Γ(τ) minterm of the tasks on the path.
    for (const ctg::Minterm& scenario :
         c.analysis.EnumerateScenarioAssignments()) {
      EXPECT_EQ(engine.GuardCompatibleWith(i, engine.Probe(scenario)),
                path.guard.CompatibleWith(scenario));
    }
    for (TaskId task : path.tasks) {
      for (const ctg::Minterm& m : c.analysis.Gamma(task)) {
        EXPECT_EQ(engine.GuardCompatibleWith(i, engine.Probe(m)),
                  path.guard.CompatibleWith(m));
      }
      EXPECT_EQ(engine.ProbAfter(i, task, c.probs),
                expected.ProbAfter(i, task, c.probs));
    }
  }
  EXPECT_EQ(engine.MaxDelay(), expected.MaxDelay());

  const double deadline = c.rc.graph.deadline_ms();
  engine.BindProbabilities(c.probs);
  for (TaskId task : c.rc.graph.TaskIds()) {
    const std::vector<std::size_t>& reference = expected.Spanning(task);
    const dvfs::PathEngine::SpanningScan scan =
        engine.ScanSpanning(task, deadline);
    ASSERT_EQ(scan.entries.size(), reference.size());
    ASSERT_EQ(scan.prob_after.size(), reference.size());
    ASSERT_EQ(scan.slack_ratio.size(), reference.size());
    for (std::size_t j = 0; j < reference.size(); ++j) {
      const std::size_t i = reference[j];
      EXPECT_EQ(scan.entries[j].path, i);
      EXPECT_EQ(scan.entries[j].position, expected.PositionOf(i, task));
      EXPECT_EQ(scan.prob_after[j], expected.ProbAfter(i, task, c.probs))
          << "path " << i << " task " << task.value;
      EXPECT_EQ(scan.slack_ratio[j], expected.path(i).SlackRatio(deadline))
          << "path " << i << " task " << task.value;
    }
  }
}

TEST(PathEngine, MatchesPathSetOnGeneratedCtgs) {
  ForEachStoreCase([&](const Case& c) {
    const sched::Schedule schedule = c.Schedule();
    for (bool drop_unrealizable : {true, false}) {
      const dvfs::PathSet expected(schedule, 1 << 20, drop_unrealizable);
      for (bool force_dnf : {false, true}) {
        dvfs::PathEngine engine(
            c.rc.graph, c.analysis, c.rc.platform,
            dvfs::PathEngineOptions{.force_dnf = force_dnf});
        EXPECT_EQ(engine.using_bitset(), !force_dnf);
        engine.Enumerate(schedule, drop_unrealizable);
        ExpectMatchesPathSet(engine, expected, c);
      }
    }
  });
}

TEST(PathEngine, ReuseAcrossEnumerationsMatchesFreshEngine) {
  ForEachCase([&](const Case& c) {
    sched::Schedule stretched =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
    dvfs::StretchOnline(stretched, c.probs);
    const sched::Schedule nominal =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);

    // One engine enumerates nominal, then stretched, then nominal
    // again; each enumeration must equal a fresh PathSet of the same
    // schedule (reuse leaves no residue in the pooled storage).
    dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
    engine.Enumerate(nominal);
    ExpectMatchesPathSet(engine, dvfs::PathSet(nominal), c);
    engine.Enumerate(stretched);
    ExpectMatchesPathSet(engine, dvfs::PathSet(stretched), c);
    engine.Enumerate(nominal);
    ExpectMatchesPathSet(engine, dvfs::PathSet(nominal), c);
  });
}

TEST(PathEngine, CommitTaskMatchesPathSet) {
  ForEachStoreCase([&](const Case& c) {
    const sched::Schedule schedule = c.Schedule();
    dvfs::PathSet expected(schedule);
    dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
    engine.Enumerate(schedule);

    // Commit every task once, in schedule order, with a synthetic
    // extension; the running delays — and with them every slack ratio
    // of the scan — must track exactly.
    for (TaskId task : c.rc.graph.TaskIds()) {
      const double nominal = schedule.placement(task).finish_ms -
                             schedule.placement(task).start_ms;
      expected.CommitTask(task, 0.25, nominal);
      engine.CommitTask(task, 0.25, nominal);
    }
    ExpectMatchesPathSet(engine, expected, c);

    // A rewind restores the post-enumeration store exactly.
    engine.RewindCommits();
    ExpectMatchesPathSet(engine, dvfs::PathSet(schedule), c);
  });
}

TEST(PathEngine, StretchResultsBitIdenticalAcrossModes) {
  // The configurations the stretchers support — transient engine (no
  // engine argument), persistent bitset engine, persistent force_dnf
  // engine, and either engine rewound instead of re-enumerated — must
  // produce bit-identical schedules.
  ForEachStoreCase([&](const Case& c) {
    auto stretch = [&](dvfs::PathEngine* engine,
                       const dvfs::StretchWarmStart* warm = nullptr) {
      sched::Schedule s = c.Schedule();
      const dvfs::StretchStats stats =
          dvfs::StretchOnline(s, c.probs, {}, engine, warm);
      EXPECT_GT(stats.path_count, 0u);
      return s;
    };

    const sched::Schedule baseline = stretch(nullptr);
    auto expect_same = [&](const sched::Schedule& candidate) {
      for (TaskId task : c.rc.graph.TaskIds()) {
        const auto& a = baseline.placement(task);
        const auto& b = candidate.placement(task);
        EXPECT_EQ(a.speed_ratio, b.speed_ratio);
        EXPECT_EQ(a.start_ms, b.start_ms);
        EXPECT_EQ(a.finish_ms, b.finish_ms);
        EXPECT_EQ(a.pe, b.pe);
      }
    };
    double slowdown = 0.0;
    for (TaskId task : c.rc.graph.TaskIds()) {
      slowdown += 1.0 - baseline.placement(task).speed_ratio;
    }
    EXPECT_GT(slowdown, 0.0) << "the case must exercise the slack scan";
    dvfs::PathEngine bit_engine(c.rc.graph, c.analysis, c.rc.platform);
    dvfs::PathEngine dnf_engine(
        c.rc.graph, c.analysis, c.rc.platform,
        dvfs::PathEngineOptions{.force_dnf = true});
    dvfs::StretchWarmStart rewind;
    rewind.reuse_enumeration = true;
    // Two rounds through each persistent engine: the second round runs
    // on warmed pools and must not drift.
    for (int round = 0; round < 2; ++round) {
      for (dvfs::PathEngine* engine : {&bit_engine, &dnf_engine}) {
        expect_same(stretch(engine));
        // Same shape again: the stretcher rewinds the committed delays
        // instead of enumerating.
        const std::uint64_t id = engine->enumeration_id();
        expect_same(stretch(engine, &rewind));
        EXPECT_EQ(engine->enumeration_id(), id);
      }
    }
  });
}

TEST(PathEngine, ScanRefusesProbabilitiesBoundBeforeEnumerateOrRewind) {
  // A binding belongs to one stretch over the store: a scan after the
  // next Enumerate() or RewindCommits() must bind again instead of
  // reading the previous stretch's probabilities.
  const Case c(tgff::Category::kForkJoin, 7);
  const sched::Schedule schedule = c.Schedule();
  const double deadline = c.rc.graph.deadline_ms();
  const TaskId task = schedule.graph().TaskIds().front();
  dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
  engine.Enumerate(schedule);
  EXPECT_THROW(engine.ScanSpanning(task, deadline), InternalError);
  engine.BindProbabilities(c.probs);
  EXPECT_NO_THROW(engine.ScanSpanning(task, deadline));

  engine.RewindCommits();
  EXPECT_THROW(engine.ScanSpanning(task, deadline), InternalError);
  engine.BindProbabilities(c.probs);
  EXPECT_NO_THROW(engine.ScanSpanning(task, deadline));

  engine.Enumerate(schedule);
  EXPECT_THROW(engine.ScanSpanning(task, deadline), InternalError);
}

// An engine is re-pointed at its borrower on every lease. Rebinding it
// to the model it holds keeps the enumeration, so its owner can still
// rewind it; rebinding it to another model empties the store and
// advances the id, and the engine then enumerates that model exactly as
// a fresh engine does (capacity kept, no residue).
TEST(PathEngine, RebindKeepsTheEnumerationOnlyForTheSameModel) {
  const Case a(tgff::Category::kForkJoin, 3);
  const Case b(Generate(tgff::Category::kFlat, 4, 1.3, 24));
  ASSERT_NE(a.rc.graph.task_count(), b.rc.graph.task_count());
  const sched::Schedule schedule_a = a.Schedule();
  const sched::Schedule schedule_b = b.Schedule();

  dvfs::PathEngine engine(a.rc.graph, a.analysis, a.rc.platform);
  engine.Enumerate(schedule_a);
  const std::uint64_t id = engine.enumeration_id();
  const std::size_t paths = engine.size();
  ASSERT_GT(paths, 0u);
  engine.Rebind(a.rc.graph, a.analysis, a.rc.platform,
                dvfs::PathEngineOptions{.max_paths = paths});
  EXPECT_EQ(engine.enumeration_id(), id);
  EXPECT_EQ(engine.options().max_paths, paths);
  ExpectMatchesPathSet(engine, dvfs::PathSet(schedule_a), a);

  engine.Rebind(b.rc.graph, b.analysis, b.rc.platform, {});
  EXPECT_NE(engine.enumeration_id(), id);
  EXPECT_EQ(engine.size(), 0u);
  for (TaskId task : b.rc.graph.TaskIds()) {
    EXPECT_TRUE(engine.Spanning(task).empty());
  }
  engine.Enumerate(schedule_b);
  ExpectMatchesPathSet(engine, dvfs::PathSet(schedule_b), b);

  // Back to the first model: its store was replaced, so it is
  // enumerated afresh.
  const std::uint64_t id_b = engine.enumeration_id();
  engine.Rebind(a.rc.graph, a.analysis, a.rc.platform, {});
  EXPECT_NE(engine.enumeration_id(), id_b);
  EXPECT_EQ(engine.size(), 0u);
  engine.Enumerate(schedule_a);
  ExpectMatchesPathSet(engine, dvfs::PathSet(schedule_a), a);
}

TEST(PathEngine, FailedEnumerationLeavesNothingToRewind) {
  const Case c = OnePeCase();
  const sched::Schedule masked = c.Schedule();
  const sched::Schedule healthy =
      sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
  const std::size_t masked_paths = dvfs::PathSet(masked).size();
  ASSERT_GT(masked_paths, dvfs::PathSet(healthy).size() + 1);

  // Room for the healthy shape, not for the masked one.
  dvfs::PathEngine engine(
      c.rc.graph, c.analysis, c.rc.platform,
      dvfs::PathEngineOptions{.max_paths = masked_paths - 1});
  engine.Enumerate(healthy);
  const std::uint64_t healthy_id = engine.enumeration_id();
  EXPECT_THROW(engine.Enumerate(masked), InvalidArgument);
  EXPECT_NE(engine.enumeration_id(), healthy_id);
  EXPECT_EQ(engine.size(), 0u);
  for (TaskId task : c.rc.graph.TaskIds()) {
    EXPECT_TRUE(engine.Spanning(task).empty());
  }
  engine.RewindCommits();
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_EQ(engine.MaxDelay(), 0.0);

  // The engine stays usable: the next enumeration is complete.
  engine.Enumerate(healthy);
  ExpectMatchesPathSet(engine, dvfs::PathSet(healthy), c);
}

// ---------------------------------------------------------------------------
// Interned path guards against the per-path guard store they replaced

/// The per-path guard copies the engine stored before it interned its
/// guards: path i's compiled guard, rebuilt from a PathSet's tasks and
/// edges with the conjunctions the DFS runs, in its order, and the
/// compatibility loop over its minterms.
class PerPathGuards {
 public:
  PerPathGuards(const dvfs::PathSet& paths,
                const ctg::ActivationAnalysis& analysis) {
    ctg::BitGuard scratch;
    begin_.push_back(0);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const dvfs::Path& path = paths.path(i);
      ctg::BitGuard guard = analysis.BitActivationGuard(path.tasks[0]);
      for (std::size_t k = 1; k < path.tasks.size(); ++k) {
        guard.AndWith(analysis.BitActivationGuard(path.tasks[k]), scratch);
        const std::optional<EdgeId>& edge = path.edges[k - 1];
        if (edge.has_value() && analysis.HasEdgeCondition(*edge)) {
          guard.AndWithMinterm(analysis.BitEdgeCondition(*edge));
        }
      }
      pool_.insert(pool_.end(), guard.minterms().begin(),
                   guard.minterms().end());
      begin_.push_back(pool_.size());
    }
  }

  std::span<const ctg::BitMinterm> Guard(std::size_t i) const {
    return {pool_.data() + begin_[i], begin_[i + 1] - begin_[i]};
  }

  bool CompatibleWith(std::size_t i, const ctg::BitMinterm& probe) const {
    for (const ctg::BitMinterm& m : Guard(i)) {
      if (m.CompatibleWith(probe)) return true;
    }
    return false;
  }

 private:
  std::vector<std::size_t> begin_;
  std::vector<ctg::BitMinterm> pool_;
};

/// Words of a compiled guard, as an ordered map key.
std::vector<std::uint64_t> GuardKey(std::span<const ctg::BitMinterm> guard) {
  std::vector<std::uint64_t> key;
  for (const ctg::BitMinterm& m : guard) {
    key.insert(key.end(), m.bits.begin(), m.bits.end());
    key.insert(key.end(), m.mask.begin(), m.mask.end());
  }
  return key;
}

/// Fig. 1, MPEG on its three PEs and on two, the cruise controller and
/// four generated CTGs (one-PE MPEG, at 413,850 paths, is left to
/// bench_micro).
template <typename Fn>
void ForEachGuardCase(Fn&& fn) {
  {
    apps::Fig1Example fig1 = apps::MakeFig1Example();
    const Case c(
        tgff::RandomCase{std::move(fig1.graph), std::move(fig1.platform)});
    fn(c);
  }
  for (const std::uint64_t removed : {0b000u, 0b100u}) {
    apps::MpegModel mpeg = apps::MakeMpegModel();
    const Case c(
        tgff::RandomCase{std::move(mpeg.graph), std::move(mpeg.platform)},
        arch::PeMask::WithoutBits(removed));
    fn(c);
  }
  {
    apps::CruiseModel cruise = apps::MakeCruiseModel();
    const Case c(
        tgff::RandomCase{std::move(cruise.graph), std::move(cruise.platform)});
    fn(c);
  }
  for (std::uint64_t seed : {7u, 8u}) {
    for (tgff::Category category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      const Case c(category, seed);
      fn(c);
    }
  }
}

TEST(PathEngineGuards, EqualGuardsShareOneIdAndTheTableHoldsEachOnce) {
  ForEachGuardCase([&](const Case& c) {
    const sched::Schedule schedule = c.Schedule();
    for (bool drop_unrealizable : {true, false}) {
      const dvfs::PathSet expected(schedule, 1 << 20, drop_unrealizable);
      const PerPathGuards reference(expected, c.analysis);
      dvfs::PathEngine bits(c.rc.graph, c.analysis, c.rc.platform);
      dvfs::PathEngine dnf(c.rc.graph, c.analysis, c.rc.platform,
                           dvfs::PathEngineOptions{.force_dnf = true});
      bits.Enumerate(schedule, drop_unrealizable);
      dnf.Enumerate(schedule, drop_unrealizable);
      ASSERT_EQ(bits.size(), expected.size());
      ASSERT_EQ(dnf.size(), expected.size());

      // Bitset mode: each id holds its paths' guard, minterm for
      // minterm; ids and distinct guards correspond one to one.
      std::map<std::vector<std::uint64_t>, std::uint32_t> bit_ids;
      std::vector<char> used(bits.guard_count(), 0);
      for (std::size_t i = 0; i < bits.size(); ++i) {
        const std::uint32_t id = bits.guard_ids()[i];
        ASSERT_LT(id, bits.guard_count());
        const std::span<const ctg::BitMinterm> stored = bits.GuardMinterms(id);
        const std::span<const ctg::BitMinterm> want = reference.Guard(i);
        ASSERT_TRUE(std::equal(stored.begin(), stored.end(), want.begin(),
                               want.end()))
            << "path " << i;
        const auto [it, inserted] = bit_ids.emplace(GuardKey(want), id);
        EXPECT_EQ(it->second, id) << "path " << i;
        used[id] = 1;
      }
      EXPECT_EQ(bit_ids.size(), bits.guard_count());
      EXPECT_EQ(std::count(used.begin(), used.end(), 1),
                static_cast<std::ptrdiff_t>(bits.guard_count()));
      EXPECT_LE(bits.guard_count(), bits.size());

      // DNF mode: the same with the PathSet's DNF guards; paths sharing
      // an id read one object. Entries: (guard, its first path).
      std::vector<std::pair<ctg::Guard, std::size_t>> dnf_firsts;
      for (std::size_t i = 0; i < dnf.size(); ++i) {
        const ctg::Guard& want = expected.path(i).guard;
        EXPECT_EQ(dnf.DnfGuard(i), want) << "path " << i;
        const auto it = std::find_if(
            dnf_firsts.begin(), dnf_firsts.end(),
            [&](const auto& entry) { return entry.first == want; });
        if (it == dnf_firsts.end()) {
          dnf_firsts.emplace_back(want, i);
          continue;
        }
        EXPECT_EQ(dnf.guard_ids()[i], dnf.guard_ids()[it->second])
            << "path " << i;
        EXPECT_EQ(&dnf.DnfGuard(i), &dnf.DnfGuard(it->second));
      }
      EXPECT_EQ(dnf_firsts.size(), dnf.guard_count());
    }
  });
}

TEST(PathEngineGuards, CompatibilityMatchesTheDnfEngineAndThePerPathStore) {
  ForEachGuardCase([&](const Case& c) {
    const sched::Schedule schedule = c.Schedule();
    const dvfs::PathSet expected(schedule);
    const PerPathGuards reference(expected, c.analysis);
    dvfs::PathEngine bits(c.rc.graph, c.analysis, c.rc.platform);
    dvfs::PathEngine dnf(c.rc.graph, c.analysis, c.rc.platform,
                         dvfs::PathEngineOptions{.force_dnf = true});
    bits.Enumerate(schedule);
    dnf.Enumerate(schedule);
    ASSERT_EQ(bits.size(), expected.size());
    // Every path against every Γ(τ) minterm of the graph, through the
    // per-path test and through the memoized match the stretch reads.
    for (const ctg::Minterm& m : c.analysis.AllMinterms()) {
      ctg::BitMinterm encoded;
      ASSERT_TRUE(c.analysis.space().Encode(m, encoded));
      const dvfs::PathEngine::MintermProbe bit_probe = bits.Probe(m);
      const dvfs::PathEngine::MintermProbe dnf_probe = dnf.Probe(m);
      dvfs::PathEngine::GuardMatch bit_match = bits.MatchGuards(bit_probe);
      dvfs::PathEngine::GuardMatch dnf_match = dnf.MatchGuards(dnf_probe);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        const bool want = reference.CompatibleWith(i, encoded);
        ASSERT_EQ(expected.path(i).guard.CompatibleWith(m), want) << i;
        ASSERT_EQ(bits.GuardCompatibleWith(i, bit_probe), want) << i;
        ASSERT_EQ(dnf.GuardCompatibleWith(i, dnf_probe), want) << i;
        ASSERT_EQ(bit_match(bits.guard_ids()[i]), want) << i;
        ASSERT_EQ(dnf_match(dnf.guard_ids()[i]), want) << i;
      }
    }
  });
}

TEST(PathEngineGuards, AllPoliciesGiveBitwiseEqualSchedulesInBothModes) {
  ForEachGuardCase([&](const Case& c) {
    for (const std::string& name : dvfs::PolicyNames()) {
      SCOPED_TRACE(name);
      const auto stretch = [&](dvfs::PathEngine& engine) {
        sched::Schedule s = c.Schedule();
        dvfs::PolicyContext ctx;
        ctx.schedule = &s;
        ctx.probs = &c.probs;
        ctx.nlp.iterations = 25;  // the NLP reads paths, never guards
        dvfs::GetPolicy(name).Apply(engine, ctx);
        return s;
      };
      dvfs::PathEngine fresh(c.rc.graph, c.analysis, c.rc.platform);
      const sched::Schedule baseline = stretch(fresh);
      dvfs::PathEngine bits(c.rc.graph, c.analysis, c.rc.platform);
      dvfs::PathEngine dnf(c.rc.graph, c.analysis, c.rc.platform,
                           dvfs::PathEngineOptions{.force_dnf = true});
      // The second round runs on warmed tables.
      for (int round = 0; round < 2; ++round) {
        for (dvfs::PathEngine* engine : {&bits, &dnf}) {
          const sched::Schedule got = stretch(*engine);
          for (TaskId task : c.rc.graph.TaskIds()) {
            const auto& a = baseline.placement(task);
            const auto& b = got.placement(task);
            EXPECT_EQ(a.speed_ratio, b.speed_ratio);
            EXPECT_EQ(a.start_ms, b.start_ms);
            EXPECT_EQ(a.finish_ms, b.finish_ms);
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace actg
