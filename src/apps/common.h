/// \file common.h
/// Helpers shared by the bundled application models and the benches.

#ifndef ACTG_APPS_COMMON_H
#define ACTG_APPS_COMMON_H

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "obs/trace.h"

namespace actg::apps {

/// Uniform outcome distribution for every fork of \p graph.
ctg::BranchProbabilities UniformProbabilities(const ctg::Ctg& graph);

/// Sets the graph deadline to \p factor times the makespan of the
/// nominal-speed modified-DLS schedule under uniform branch
/// probabilities (the paper's cruise-controller experiment uses
/// "double of the optimum schedule length"). Returns the deadline. The
/// DLS run is one "sched.dls" span on \p trace, if given.
double AssignDeadline(ctg::Ctg& graph, const arch::Platform& platform,
                      double factor, obs::TraceSession* trace = nullptr);

}  // namespace actg::apps

#endif  // ACTG_APPS_COMMON_H
