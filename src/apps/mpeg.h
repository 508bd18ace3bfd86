/// \file mpeg.h
/// MPEG macroblock-decoder CTG (paper Fig. 3 and Section IV).
///
/// The paper models the macroblock decoding loop of the Berkeley
/// software MPEG player as a CTG of 40 tasks including 9 branch fork
/// nodes, run on 3 PEs. Fork 'a' tests whether the macroblock is
/// skipped; on the non-skipped branch fork 'b' tests whether it is an
/// Intra (type I) block — intra blocks always run IDCT; inter blocks
/// carry 6 per-block forks 'c'..'h' that individually enable or disable
/// the IDCT of each 8x8 block. Our reconstruction adds the motion-vector
/// fork (new vs. predicted vector) as the paper's ninth branching node
/// and fills in the standard decoder stages (VLD, IQ, DC prediction,
/// motion compensation, add/reconstruct, clip, store).
///
/// The real movie-clip decision traces are substituted by synthetic
/// drifting processes (see trace/generators.h and DESIGN.md); the eight
/// movie profiles below mirror the paper's clips, with Shuttle
/// configured more volatile (it shows the largest call counts in
/// Table 2).

#ifndef ACTG_APPS_MPEG_H
#define ACTG_APPS_MPEG_H

#include <string>
#include <vector>

#include "arch/platform.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "obs/trace.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace actg::apps {

/// The MPEG decoder model.
struct MpegModel {
  ctg::Ctg graph;
  arch::Platform platform;

  // Fork handles (in the paper's labelling).
  TaskId fork_skipped;                ///< branch a: a1 = decode, a2 = skip
  TaskId fork_type;                   ///< branch b: b1 = intra, b2 = inter
  TaskId fork_mv;                     ///< the ninth branching node
  std::vector<TaskId> fork_blocks;    ///< branches c..h (6 block forks)
};

/// Builds the 40-task / 9-fork / 3-PE MPEG model. The deadline is set to
/// \p deadline_factor times the nominal DLS makespan under uniform
/// probabilities; that DLS run is one "sched.dls" span on \p trace, if
/// given.
MpegModel MakeMpegModel(obs::TraceSession* trace = nullptr,
                        double deadline_factor = 1.8);

/// One synthetic movie profile.
struct MovieProfile {
  std::string name;
  /// Random-walk step size of the per-fork probability processes.
  double drift_sigma;
  /// Scene-change (jump) rate.
  double jump_probability;
  /// RNG seed.
  std::uint64_t seed;
};

/// The eight movie profiles of Fig. 5 / Table 2. *Shuttle* is the most
/// volatile (lower resolution, more frames per 1000 macroblocks).
std::vector<MovieProfile> MpegMovieProfiles();

/// Generates a decision trace of \p instances macroblocks for \p movie.
trace::BranchTrace GenerateMovieTrace(const MpegModel& model,
                                      const MovieProfile& movie,
                                      std::size_t instances);

}  // namespace actg::apps

#endif  // ACTG_APPS_MPEG_H
