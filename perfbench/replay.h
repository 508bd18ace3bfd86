/// \file replay.h
/// The traced run: a second pass over a workload's input that times
/// each layer's public functions from outside the program.
///
/// Pass A replays every instance the way the program's runner does,
/// with a span around each call into a layer (apps, adaptive, faults,
/// sim, check, campaign / report). Pass B re-issues every reschedule
/// the controllers performed through runtime::ScheduleCache::Lookup,
/// sched::RunDls, dvfs::PathEngine::Enumerate and dvfs::Policy::Apply,
/// because those layers are reached only from inside the controller.
/// Both passes check that they reproduce the untraced run's
/// deterministic output.

#ifndef ACTG_PERFBENCH_REPLAY_H
#define ACTG_PERFBENCH_REPLAY_H

#include <string>

#include "workloads.h"

namespace perfbench {

/// Runs \p w's spec file untraced, replays it with spans, writes the
/// Chrome trace_event file \p trace_path and prints the per-layer JSON
/// record, mismatches with the untraced run included. Returns the
/// process exit code.
int RunTraced(const Workload& w, const std::string& spec_path,
              const std::string& trace_path);

}  // namespace perfbench

#endif  // ACTG_PERFBENCH_REPLAY_H
