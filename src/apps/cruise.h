/// \file cruise.h
/// Vehicle cruise-controller CTG (paper Section IV, after Pop [15]).
///
/// The paper's second real-life application: 32 tasks including two
/// branch fork nodes, mapped onto 5 PEs, with exactly three minterms and
/// a deadline of double the optimum schedule length. The two minterms
/// that stem from the same (inner) branching node are almost equal in
/// energy — the property the paper cites to explain the modest (~5 %)
/// adaptive savings. The Linköping thesis graph itself is not available;
/// this reconstruction satisfies every property the paper states.
///
/// Structure: an 8-task sensor/fusion front end; fork F1 selects manual
/// override (4 tasks) vs. cruise regulation; the regulation path computes
/// the speed error (4 tasks) and fork F2 selects the accelerate or the
/// decelerate law (5 nearly identical tasks each); both rejoin into a
/// 4-task actuation back end. Minterms: {f1=override}, {f1=cruise,
/// f2=accel}, {f1=cruise, f2=decel}.

#ifndef ACTG_APPS_CRUISE_H
#define ACTG_APPS_CRUISE_H

#include <cstdint>

#include "arch/platform.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "obs/trace.h"
#include "trace/trace.h"

namespace actg::apps {

/// The cruise-controller model.
struct CruiseModel {
  ctg::Ctg graph;
  arch::Platform platform;
  TaskId fork_mode;  ///< F1: 0 = cruise regulation, 1 = manual override
  TaskId fork_law;   ///< F2: 0 = accelerate, 1 = decelerate
};

/// Builds the 32-task / 2-fork / 5-PE model; deadline = \p deadline_factor
/// x the nominal DLS makespan (paper: 2x), whose DLS run is one
/// "sched.dls" span on \p trace, if given.
CruiseModel MakeCruiseModel(obs::TraceSession* trace = nullptr,
                            double deadline_factor = 2.0);

/// Generates one of the paper's three road-scenario decision sequences
/// (uphill / downhill / straight / bumpy regimes). \p sequence selects
/// the regime mix (1, 2 or 3, as in Table 3).
trace::BranchTrace GenerateRoadTrace(const CruiseModel& model,
                                     int sequence, std::size_t instances,
                                     std::uint64_t seed);

}  // namespace actg::apps

#endif  // ACTG_APPS_CRUISE_H
