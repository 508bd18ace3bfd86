/// \file fuzz.h
/// Property-based fuzzing of the whole scheduling pipeline.
///
/// A FuzzCase is one fully concrete pipeline input: a CTG + platform
/// (structured-random via tgff, or explicit after shrinking), the
/// scheduler/stretcher knobs, an optional PE mask and FaultPlan, and the
/// seeds for branch probabilities and the executed trace. RunCase drives
/// DLS -> stretch policy -> simulation (scenario sweep + random trace,
/// optionally the adaptive controller) and feeds every intermediate
/// product to the check:: oracle; any Violation is a bug in the library,
/// never in the case.
///
/// On a failing case, Shrink greedily drops tasks, edges, faults and
/// knobs while the violation still reproduces, and Write/ParseRepro give
/// the shrunken case a replayable text form (committed under
/// tests/corpus/check/ and replayed by ctest).
///
/// Everything is deterministic: cases derive from util::Random::Fork
/// substreams of one root seed, so `actg_fuzz --seed S --cases N` is
/// exactly reproducible and any single case can be regenerated in
/// isolation.

#ifndef ACTG_CHECK_FUZZ_H
#define ACTG_CHECK_FUZZ_H

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>

#include "adaptive/rescheduler.h"
#include "arch/platform.h"
#include "check/validator.h"
#include "ctg/graph.h"
#include "faults/plan.h"
#include "tgff/random_ctg.h"
#include "trace/trace.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::check {

/// One concrete pipeline input. Value-semantic (graphs and platforms
/// copy), so the shrinker can propose mutated candidates freely.
struct FuzzCase {
  ctg::Ctg graph;            ///< deadline already assigned
  arch::Platform platform;
  std::string policy = "online";  ///< dvfs policy name (dvfs::PolicyNames)
  bool mutex_aware = true;
  bool prob_weighted = true;      ///< DLS level policy
  std::uint64_t masked_pes = 0;   ///< PeMask bits (never all PEs)
  std::uint64_t prob_seed = 1;    ///< branch probabilities + trace seed
  std::size_t trace_instances = 24;
  bool adaptive = false;          ///< also run the adaptive controller
  /// Reschedule mode of the adaptive controller. Incremental cases run
  /// with verify_incremental armed, so every warm-started result is
  /// differentially checked against a from-scratch recompute inside the
  /// pipeline.
  adaptive::RescheduleMode reschedule_mode = adaptive::RescheduleMode::kFull;
  bool with_faults = false;
  faults::FaultPlan faults;
};

/// Structured-random case description: the tgff generator parameters
/// plus the pipeline knobs. Kept separate from FuzzCase so a case stays
/// regenerable from its seed until shrinking makes it explicit.
struct FuzzCaseSpec {
  tgff::RandomCtgParams params;
  double deadline_factor = 2.0;
  std::string policy = "online";
  bool mutex_aware = true;
  bool prob_weighted = true;
  std::uint64_t masked_pes = 0;
  std::uint64_t prob_seed = 1;
  std::size_t trace_instances = 24;
  bool adaptive = false;
  adaptive::RescheduleMode reschedule_mode = adaptive::RescheduleMode::kFull;
  bool with_faults = false;
  faults::FaultPlan faults;
};

/// Draws a random spec for fuzz case number \p index from \p root
/// (Fork(index) substream): graph category/size, policy, knobs, mask
/// and fault plan. Always valid by construction.
FuzzCaseSpec RandomSpec(const util::Random& root, std::uint64_t index);

/// Generates the spec's graph/platform and assigns the deadline
/// (deadline_factor x nominal DLS makespan, the paper's convention).
FuzzCase Materialize(const FuzzCaseSpec& spec);

/// Branch probabilities used by RunCase: an independent random
/// distribution per fork, deterministic in (graph, seed).
ctg::BranchProbabilities CaseProbabilities(const ctg::Ctg& graph,
                                           std::uint64_t seed);

/// The random trace RunCase executes: one decision per fork per
/// instance, drawn from \p probs, instance i from its own substream of
/// \p seed.
trace::BranchTrace SampleTrace(const ctg::Ctg& graph,
                               const ctg::BranchProbabilities& probs,
                               std::size_t instances, std::uint64_t seed);

/// Runs the full pipeline on \p c and returns the merged oracle report:
///  1. DLS under the case's options  -> CheckSchedule (mask expectation)
///  2. stretch via the named policy  -> CheckSchedule, with the
///     deadline-feasibility claim iff the nominal schedule was feasible
///  3. every execution scenario      -> CheckInstance
///  4. trace_instances random instances (fault-injected when the case
///     carries a plan)               -> CheckInstance
///  5. when c.adaptive: the adaptive controller with validator hooks on
/// Exceptions escaping the pipeline are reported as a
/// "pipeline.exception" violation (the oracle must never crash).
Report RunCase(const FuzzCase& c);

/// Greedy shrink: repeatedly tries knob simplifications (drop adaptive,
/// faults, mask; simpler policy; shorter trace), task drops, edge drops
/// and PE drops, keeping every mutation for which \p still_fails holds.
/// \p still_fails must be true for \p c itself. Mutations producing
/// invalid graphs/platforms are skipped, so the result is always
/// runnable.
FuzzCase Shrink(const FuzzCase& c,
                const std::function<bool(const FuzzCase&)>& still_fails);

/// Serializes \p c in the replayable "fuzzcase v1" text format (knob
/// directives plus embedded faults-v1 / ctg-v1 / platform-v1 blocks,
/// each introduced by a bare `faults` / `graph` / `platform` line).
/// Every value reads back bit for bit.
void WriteRepro(std::ostream& os, const FuzzCase& c);

/// Parses a repro file in the shared line grammar of
/// util/line_reader.h: '#' comments (the provenance lines actg_fuzz
/// writes above the header among them), exact integers, flags 0 or 1,
/// no trailing operands. Malformed input, the embedded blocks' included,
/// is reported as a util::Error with a "fuzzcase line N: ..."
/// diagnostic counting lines of the whole file.
util::Expected<FuzzCase> ParseRepro(std::istream& is);

}  // namespace actg::check

#endif  // ACTG_CHECK_FUZZ_H
