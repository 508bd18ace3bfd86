#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/fig1_example.h"
#include "check/validator.h"
#include "corpus_file.h"
#include "ctg/activation.h"
#include "experiments.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "obs/trace.h"
#include "runtime/pool.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "util/error.h"

namespace actg::faults {
namespace {

/// A plan where every fault class is active, scaled by one intensity.
FaultPlan FullPlan(double intensity = 1.0) {
  FaultPlan plan;
  plan.intensity = intensity;
  plan.overrun.probability = 0.2;
  plan.overrun.min_factor = 1.2;
  plan.overrun.max_factor = 1.8;
  plan.dropout.probability = 0.05;
  plan.dropout.duration = 3;
  plan.dropout.rerun_penalty = 2.0;
  plan.link.probability = 0.1;
  plan.link.bandwidth_factor = 0.5;
  plan.link.duration = 2;
  plan.drift.max_flip_probability = 0.3;
  plan.drift.ramp_instances = 50;
  return plan;
}

TEST(FaultPlanValidate, DefaultPlanIsValidAndEmpty) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.Validate());
  EXPECT_TRUE(plan.Empty());
  EXPECT_FALSE(FullPlan().Empty());
  EXPECT_TRUE(FullPlan(0.0).Empty());
}

TEST(FaultPlanValidate, RejectsEachBadKnob) {
  const auto broken = [](auto mutate) {
    FaultPlan plan = FullPlan();
    mutate(plan);
    return bool(plan.Validate());
  };
  EXPECT_TRUE(broken([](FaultPlan& p) { p.intensity = -0.1; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.overrun.probability = 1.5; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.overrun.min_factor = 0.9; }));
  EXPECT_TRUE(broken([](FaultPlan& p) {
    p.overrun.min_factor = 2.0;
    p.overrun.max_factor = 1.5;
  }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.dropout.probability = -1.0; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.dropout.duration = 0; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.dropout.rerun_penalty = 0.5; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.link.bandwidth_factor = 0.0; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.link.bandwidth_factor = 1.5; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.link.duration = 0; }));
  EXPECT_TRUE(
      broken([](FaultPlan& p) { p.drift.max_flip_probability = 2.0; }));
  EXPECT_TRUE(broken([](FaultPlan& p) { p.drift.ramp_instances = 0; }));
}

TEST(FaultPlanText, RoundTripsEveryField) {
  FaultPlan plan = FullPlan(0.75);
  plan.seed = 424242;
  std::ostringstream out;
  WriteFaultPlan(out, plan);
  std::istringstream in(out.str());
  const util::Expected<FaultPlan> parsed = ParseFaultPlan(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const FaultPlan& back = parsed.value();
  EXPECT_DOUBLE_EQ(back.intensity, plan.intensity);
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_DOUBLE_EQ(back.overrun.probability, plan.overrun.probability);
  EXPECT_DOUBLE_EQ(back.overrun.min_factor, plan.overrun.min_factor);
  EXPECT_DOUBLE_EQ(back.overrun.max_factor, plan.overrun.max_factor);
  EXPECT_DOUBLE_EQ(back.dropout.probability, plan.dropout.probability);
  EXPECT_EQ(back.dropout.duration, plan.dropout.duration);
  EXPECT_DOUBLE_EQ(back.dropout.rerun_penalty,
                   plan.dropout.rerun_penalty);
  EXPECT_DOUBLE_EQ(back.link.probability, plan.link.probability);
  EXPECT_DOUBLE_EQ(back.link.bandwidth_factor,
                   plan.link.bandwidth_factor);
  EXPECT_EQ(back.link.duration, plan.link.duration);
  EXPECT_DOUBLE_EQ(back.drift.max_flip_probability,
                   plan.drift.max_flip_probability);
  EXPECT_EQ(back.drift.ramp_instances, plan.drift.ramp_instances);
}

TEST(FaultPlanText, MalformedInputIsAnErrorValue) {
  for (const char* text : {
           "faults v2\nend\n",                    // wrong header
           "faults v1\noverrun 0.5\nend\n",       // missing operands
           "faults v1\nwhatever 1 2 3\nend\n",    // unknown directive
           "faults v1\noverrun 0.5 1.1 2.0\n",    // missing end
           "faults v1\nintensity -3\nend\n",      // fails Validate
       }) {
    std::istringstream in(text);
    const util::Expected<FaultPlan> parsed = ParseFaultPlan(in);
    EXPECT_FALSE(parsed.ok()) << text;
    EXPECT_FALSE(parsed.error().message().empty()) << text;
  }
  std::istringstream in("faults v1\nbogus\nend\n");
  EXPECT_NE(ParseFaultPlan(in).error().message().find("line 2"),
            std::string::npos);
}

// The seed used to read back through a double (rounded past 2^53), and
// doubles were written with six significant digits.
TEST(FaultPlanText, SeedAndDoublesRoundTripExactly) {
  FaultPlan plan = FullPlan(0.123456789);
  plan.seed = 9408751927250898473ULL;
  plan.overrun.min_factor = 1.0000001;
  plan.link.bandwidth_factor = 1.0 / 3.0;
  std::ostringstream out;
  WriteFaultPlan(out, plan);
  std::istringstream in(out.str());
  const util::Expected<FaultPlan> parsed = ParseFaultPlan(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().seed, 9408751927250898473ULL);
  EXPECT_EQ(parsed.value().intensity, plan.intensity);
  EXPECT_EQ(parsed.value().overrun.min_factor, plan.overrun.min_factor);
  EXPECT_EQ(parsed.value().link.bandwidth_factor,
            plan.link.bandwidth_factor);
  // Values that six digits hold keep their short text.
  EXPECT_NE(out.str().find("dropout 0.05 3 2\n"), std::string::npos)
      << out.str();
}

// Malformed corpus (corpus_file.h): every tests/corpus/faults file must
// be rejected with the diagnostic pinned in its first line.
TEST(FaultPlanMalformedCorpus, EveryFileIsRejectedWithItsPinnedDiagnostic) {
  const std::vector<corpus::Case> cases = corpus::Load("faults");
  ASSERT_GE(cases.size(), 6u) << "corpus went missing";
  for (const corpus::Case& c : cases) {
    SCOPED_TRACE(c.name());
    ASSERT_FALSE(c.expect.empty())
        << "corpus file lacks a '# expect: <substring>' first line";
    std::istringstream in(c.contents);
    const util::Error error = ParseFaultPlan(in).error();
    EXPECT_FALSE(error.ok()) << "malformed input parsed successfully";
    EXPECT_NE(error.message().find(c.expect), std::string::npos)
        << "diagnostic was: " << error.message();
  }
}

class InjectorFixture : public ::testing::Test {
 protected:
  InjectorFixture() : ex_(apps::MakeFig1Example()), analysis_(ex_.graph) {}

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
};

TEST_F(InjectorFixture, PureFunctionOfPlanSeedAndInstance) {
  const Injector a(FullPlan(), ex_.graph, ex_.platform, 7);
  const Injector b(FullPlan(), ex_.graph, ex_.platform, 7);
  bool any_fired = false;
  for (std::size_t i = 0; i < 200; ++i) {
    const InstanceFaults fa = a.ForInstance(i);
    // Query b out of order and repeatedly: no hidden state allowed.
    const InstanceFaults fb = b.ForInstance(i);
    const InstanceFaults fb2 = b.ForInstance(i);
    EXPECT_EQ(fa.task_time_factor, fb.task_time_factor);
    EXPECT_EQ(fa.failed_pes, fb.failed_pes);
    EXPECT_DOUBLE_EQ(fa.rerun_penalty, fb.rerun_penalty);
    EXPECT_DOUBLE_EQ(fa.comm_time_factor, fb.comm_time_factor);
    EXPECT_EQ(fa.any, fb.any);
    EXPECT_EQ(fb.failed_pes, fb2.failed_pes);
    any_fired = any_fired || fa.any;
  }
  EXPECT_TRUE(any_fired) << "plan never fired in 200 instances";
  // A different seed realizes a different fault sequence.
  const Injector c(FullPlan(), ex_.graph, ex_.platform, 8);
  bool differs = false;
  for (std::size_t i = 0; i < 200 && !differs; ++i) {
    const InstanceFaults fa = a.ForInstance(i);
    const InstanceFaults fc = c.ForInstance(i);
    differs = fa.any != fc.any || fa.failed_pes != fc.failed_pes ||
              fa.task_time_factor != fc.task_time_factor;
  }
  EXPECT_TRUE(differs);
}

TEST_F(InjectorFixture, PlanSeedOverridesCallerSeed) {
  FaultPlan pinned = FullPlan();
  pinned.seed = 99;
  const Injector with_plan_seed(pinned, ex_.graph, ex_.platform, 7);
  const Injector reference(pinned, ex_.graph, ex_.platform, 12345);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(with_plan_seed.ForInstance(i).failed_pes,
              reference.ForInstance(i).failed_pes);
    EXPECT_EQ(with_plan_seed.ForInstance(i).task_time_factor,
              reference.ForInstance(i).task_time_factor);
  }
}

TEST_F(InjectorFixture, EmptyPlanNeverPerturbs) {
  const Injector off(FullPlan(0.0), ex_.graph, ex_.platform, 7);
  ctg::BranchAssignment assignment(ex_.graph.task_count());
  for (TaskId fork : ex_.graph.ForkIds()) assignment.Set(fork, 0);
  for (std::size_t i = 0; i < 100; ++i) {
    const InstanceFaults f = off.ForInstance(i);
    EXPECT_FALSE(f.any);
    EXPECT_TRUE(f.task_time_factor.empty());
    EXPECT_EQ(f.failed_pes, 0u);
    ctg::BranchAssignment drifted = assignment;
    off.ApplyDrift(i, drifted);
    for (TaskId fork : ex_.graph.ForkIds()) {
      EXPECT_EQ(drifted.Get(fork), assignment.Get(fork));
    }
  }
}

TEST_F(InjectorFixture, DropoutWindowsCoverConsecutiveInstances) {
  FaultPlan plan;
  plan.dropout.probability = 0.2;
  plan.dropout.duration = 3;
  const Injector injector(plan, ex_.graph, ex_.platform, 11);
  // A duration-1 injector with the same seed and probability draws the
  // identical start events, so it recovers the per-instance raw starts;
  // the windowed mask must equal the union of the starts covering each
  // instance, run through the outage clamp (never the whole platform —
  // the highest-index PE survives).
  FaultPlan single = plan;
  single.dropout.duration = 1;
  const Injector probe(single, ex_.graph, ex_.platform, 11);
  const std::uint64_t all = (1ULL << ex_.platform.pe_count()) - 1;
  constexpr std::size_t kSpan = 300;
  std::vector<std::uint64_t> starts(kSpan);
  for (std::size_t i = 0; i < kSpan; ++i) {
    starts[i] = probe.ForInstance(i).failed_pes;
  }
  bool any_window = false;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < kSpan; ++i) {
    std::uint64_t expected = 0;
    bool ambiguous = false;
    for (std::size_t back = 0;
         back < plan.dropout.duration && back <= i; ++back) {
      // A probe value of all-but-highest is ambiguous: it is either the
      // raw draw or the probe's own clamp of an every-PE draw. Skip
      // instances covered by one; the rest reconstruct exactly.
      ambiguous = ambiguous || starts[i - back] == (all >> 1);
      expected |= starts[i - back];
    }
    if (ambiguous) continue;
    ++checked;
    if (expected == all) expected = all >> 1;
    EXPECT_EQ(injector.ForInstance(i).failed_pes, expected)
        << "instance " << i;
    any_window = any_window || expected != 0;
  }
  EXPECT_GT(checked, kSpan / 2);
  EXPECT_TRUE(any_window) << "plan never dropped a PE in " << kSpan
                          << " instances";
}

// InstanceFaults is a public struct: a caller-built factor vector that
// is shorter than the task count must be rejected, not read past its end
// (by the executor or by the oracle's independent replay).
TEST_F(InjectorFixture, ShortTaskTimeFactorIsRejected) {
  const auto probs = apps::UniformProbabilities(ex_.graph);
  const sched::Schedule schedule =
      sched::RunDls(ex_.graph, analysis_, ex_.platform, probs);
  ctg::BranchAssignment assignment(ex_.graph.task_count());
  for (TaskId fork : ex_.graph.ForkIds()) assignment.Set(fork, 0);
  const sim::InstanceResult clean =
      sim::ExecuteInstance(schedule, assignment);

  InstanceFaults faults;
  faults.any = true;
  faults.task_time_factor.assign(ex_.graph.task_count() - 1, 1.5);
  EXPECT_THROW(sim::ExecuteInstance(schedule, assignment, &faults),
               InvalidArgument);
  EXPECT_THROW(check::CheckInstance(schedule, assignment, clean, &faults),
               InvalidArgument);
  EXPECT_THROW(check::ValidateInstance(schedule, assignment, clean, &faults),
               InvalidArgument);
  faults.task_time_factor.assign(ex_.graph.task_count() + 1, 1.5);
  EXPECT_THROW(sim::ExecuteInstance(schedule, assignment, &faults),
               InvalidArgument);

  // One entry per task, or none, is accepted.
  faults.task_time_factor.assign(ex_.graph.task_count(), 1.5);
  EXPECT_NO_THROW(sim::ExecuteInstance(schedule, assignment, &faults));
  faults.task_time_factor.clear();
  faults.failed_pes = 1ULL;
  faults.rerun_penalty = 2.0;
  const sim::InstanceResult hit =
      sim::ExecuteInstance(schedule, assignment, &faults);
  EXPECT_NO_THROW(check::ValidateInstance(schedule, assignment, hit, &faults));
}

TEST_F(InjectorFixture, ExecutorReportsOverrunsAndFailedPeHits) {
  const auto probs = apps::UniformProbabilities(ex_.graph);
  const sched::Schedule schedule =
      sched::RunDls(ex_.graph, analysis_, ex_.platform, probs);
  ctg::BranchAssignment assignment(ex_.graph.task_count());
  for (TaskId fork : ex_.graph.ForkIds()) assignment.Set(fork, 0);

  check::Validate(schedule);
  const sim::InstanceResult clean =
      sim::ExecuteInstance(schedule, assignment);
  check::ValidateInstance(schedule, assignment, clean);
  EXPECT_EQ(clean.overrun_ms, 0.0);
  EXPECT_EQ(clean.failed_pe_hits, 0u);
  EXPECT_FALSE(clean.faults_injected);

  InstanceFaults faults;
  faults.any = true;
  faults.task_time_factor.assign(ex_.graph.task_count(), 1.5);
  faults.failed_pes = 1ULL;  // PE 0 down
  faults.rerun_penalty = 2.0;
  faults.comm_time_factor = 2.0;
  const sim::InstanceResult hit =
      sim::ExecuteInstance(schedule, assignment, &faults);
  check::ValidateInstance(schedule, assignment, hit, &faults);
  EXPECT_TRUE(hit.faults_injected);
  EXPECT_GT(hit.overrun_ms, 0.0);
  EXPECT_GT(hit.failed_pe_hits, 0u);
  EXPECT_GT(hit.makespan_ms, clean.makespan_ms);
  EXPECT_GT(hit.energy_mj, clean.energy_mj);

  // The identity perturbation is bit-identical to no faults at all.
  InstanceFaults identity;
  const sim::InstanceResult same =
      sim::ExecuteInstance(schedule, assignment, &identity);
  EXPECT_EQ(std::memcmp(&same.energy_mj, &clean.energy_mj,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&same.makespan_ms, &clean.makespan_ms,
                        sizeof(double)),
            0);
}

TEST(DegradeOptionsValidate, RejectsBadKnobsOnlyWhenEnabled) {
  adaptive::DegradeOptions degrade;
  degrade.miss_burst = 0;  // ignored while disabled
  EXPECT_FALSE(degrade.Validate());
  degrade.enabled = true;
  EXPECT_TRUE(degrade.Validate());
  degrade.miss_burst = 2;
  EXPECT_FALSE(degrade.Validate());
  degrade.burst_window = 0;
  EXPECT_TRUE(degrade.Validate());
  degrade.burst_window = 8;
  degrade.panic_instances = 0;
  EXPECT_TRUE(degrade.Validate());
  degrade.panic_instances = 16;
  degrade.backoff_initial = 0;
  EXPECT_TRUE(degrade.Validate());
}

/// Everything one fault-injected adaptive run produced that the
/// determinism contract covers: summary aggregates (energy compared by
/// bits), the full escalation sequence, and the controller counters.
struct UnitOutcome {
  std::uint64_t energy_bits = 0;
  std::size_t misses = 0;
  std::size_t overruns = 0;
  std::size_t faulted = 0;
  std::size_t reschedules = 0;
  std::vector<std::string> escalations;

  bool operator==(const UnitOutcome& other) const {
    return energy_bits == other.energy_bits && misses == other.misses &&
           overruns == other.overruns && faulted == other.faulted &&
           reschedules == other.reschedules &&
           escalations == other.escalations;
  }
};

std::string TimelineKey(const obs::TimelineRow& row) {
  std::ostringstream key;
  key << row.unit << '|' << row.iteration << '|' << row.pe << '|'
      << row.active_tasks << '|' << row.busy_ms << '|'
      << row.mean_speed_ratio << '|' << row.reschedules;
  return key.str();
}

TEST(DegradeDeterminism, JobsOneVersusFourSameLadderAndTimeline) {
  // Mirror of the obs jobs-determinism test for the degradation ladder:
  // identical plan + seeds at --jobs 1 and --jobs 4 must produce
  // identical miss counts, escalation sequences and timeline rows.
  // Parallelism only ever runs *independent units* concurrently, so the
  // per-unit controller state machine must not notice the pool size.
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  constexpr std::size_t kUnits = 4;
  constexpr std::size_t kInstances = 300;

  const auto run = [&](std::size_t jobs) {
    obs::TraceSession session;
    runtime::Pool pool(jobs);
    const std::vector<UnitOutcome> outcomes = runtime::ParallelMap(
        pool, kUnits, [&](std::size_t unit) {
          const trace::BranchTrace vectors = bench::MakeFluctuatingVectors(
              ex.graph, kInstances, 100 + unit);
          const auto profile = vectors.ProfiledProbabilities(ex.graph);

          adaptive::AdaptiveOptions options;
          options.window_length = 20;
          options.threshold = 0.1;
          options.degrade.enabled = true;
          options.trace = &session;
          adaptive::AdaptiveController controller(
              ex.graph, analysis, ex.platform, profile, options);

          const Injector injector(FullPlan(), ex.graph, ex.platform,
                                  9000 + unit);
          const sim::RunSummary summary =
              adaptive::RunAdaptive(controller, vectors, &injector);
          UnitOutcome outcome;
          std::memcpy(&outcome.energy_bits, &summary.total_energy_mj,
                      sizeof(double));
          outcome.misses = summary.deadline_misses;
          outcome.overruns = summary.overrun_instances;
          outcome.faulted = summary.faulted_instances;
          outcome.reschedules = controller.reschedule_count();
          for (const adaptive::DegradeEvent& event :
               controller.degrade_log()) {
            outcome.escalations.push_back(
                std::to_string(event.instance) + "|" +
                std::to_string(static_cast<int>(event.level)) + "|" +
                event.reason);
          }
          return outcome;
        });

    std::vector<std::string> timeline;
    for (const obs::TimelineRow& row : session.Timeline()) {
      timeline.push_back(TimelineKey(row));
    }
    std::sort(timeline.begin(), timeline.end());
    return std::make_pair(outcomes, timeline);
  };

  const auto sequential = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(sequential.first.size(), parallel.first.size());
  for (std::size_t u = 0; u < kUnits; ++u) {
    EXPECT_TRUE(sequential.first[u] == parallel.first[u]) << "unit " << u;
  }
  EXPECT_EQ(sequential.second, parallel.second);

  // The drive must actually exercise the ladder, or the test proves
  // nothing: some unit has to escalate.
  std::size_t total_escalations = 0;
  for (const UnitOutcome& outcome : sequential.first) {
    total_escalations += outcome.escalations.size();
  }
  EXPECT_GT(total_escalations, 0u);
}

}  // namespace
}  // namespace actg::faults
