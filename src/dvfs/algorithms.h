/// \file algorithms.h
/// The three end-to-end scheduling + DVFS pipelines compared in the
/// paper's Table 1, packaged behind one call each.
///
/// * Online algorithm (this paper): modified DLS — probability-weighted
///   static levels, mutual-exclusion-aware PE sharing, communication-
///   aware mapping — followed by the online stretching heuristic.
/// * Reference Algorithm 1 ([10], Shin & Kim): ordering and stretching
///   on a *given* naive mapping (round-robin over the PEs), worst-case
///   static levels, no mutual-exclusion awareness (exclusive tasks
///   serialize and the slack analysis budgets for impossible
///   both-branches chains), probability-blind slack distribution.
/// * Reference Algorithm 2 ([17]): the same modified DLS mapping, with
///   convex (NLP) task stretching instead of the heuristic — slightly
///   lower energy at orders-of-magnitude higher runtime.

#ifndef ACTG_DVFS_ALGORITHMS_H
#define ACTG_DVFS_ALGORITHMS_H

#include <string_view>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"

namespace actg::dvfs {

/// Knobs of RunWithPolicy: the scheduler configuration plus the policy
/// context options forwarded to the selected stretcher.
struct PolicyRunOptions {
  sched::DlsOptions dls;
  StretchOptions stretch;
  /// Consumed by the "nlp" policy only (its path-analysis knobs are
  /// overridden by \p stretch).
  NlpOptions nlp;
  /// Session the pipeline's DLS, enumeration and stretch spans go to;
  /// nullptr records nothing.
  obs::TraceSession* trace = nullptr;
};

/// Generic pipeline: modified DLS followed by the named stretch policy
/// from the registry (see policy.h). The three Run* wrappers below are
/// thin aliases over this.
sched::Schedule RunWithPolicy(std::string_view policy,
                              const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const PolicyRunOptions& options = {});

/// The paper's online algorithm: modified DLS + stretching heuristic.
/// Like the references below, it records its spans on \p trace, if
/// given.
sched::Schedule RunOnlineAlgorithm(const ctg::Ctg& graph,
                                   const ctg::ActivationAnalysis& analysis,
                                   const arch::Platform& platform,
                                   const ctg::BranchProbabilities& probs,
                                   obs::TraceSession* trace = nullptr);

/// Reference Algorithm 1 [10]: ordering-only on a round-robin mapping,
/// probability- and mutual-exclusion-blind throughout.
sched::Schedule RunReference1(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              obs::TraceSession* trace = nullptr);

/// Reference Algorithm 2 [17]: modified DLS + convex (NLP) stretching.
sched::Schedule RunReference2(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const NlpOptions& options = {},
                              obs::TraceSession* trace = nullptr);

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_ALGORITHMS_H
