/// \file energy.h
/// Analytic expected-energy evaluation of a scheduled CTG.
///
/// Under independent branch distributions, the expected energy of one
/// CTG instance is
///   E = Σ_τ P(X(τ)) · E(τ, pe_τ) · σ_τ²
///     + Σ_e P(X(src) ∧ C(e) ∧ X(dst)) · E_comm(e)
/// (computation energy scales with the square of the speed ratio;
/// communication is never voltage-scaled — paper Sections II and IV).
/// This is the quantity Table 1 compares across algorithms.

#ifndef ACTG_SIM_ENERGY_H
#define ACTG_SIM_ENERGY_H

#include "ctg/activation.h"
#include "ctg/condition.h"
#include "sched/schedule.h"

namespace actg::sim {

/// Expected energy of one instance, in mJ, from \p probs: an
/// evaluation (ActivationAnalysis::Evaluate) of the schedule's analysis,
/// which any number of schedules of the same graph can share. Sums the
/// tasks in id order, then the edges with positive energy in id order.
/// Throws actg::InvalidArgument when \p probs was evaluated for a graph
/// of another size.
double ExpectedEnergy(const sched::Schedule& schedule,
                      const ctg::ActivationProbabilities& probs);

/// Expected energy of one instance under \p probs, in mJ.
double ExpectedEnergy(const sched::Schedule& schedule,
                      const ctg::BranchProbabilities& probs);

/// Expected computation-only energy (no communication), in mJ, from a
/// shared evaluation; same contract as ExpectedEnergy.
double ExpectedComputeEnergy(const sched::Schedule& schedule,
                             const ctg::ActivationProbabilities& probs);

/// Expected computation-only energy (no communication), in mJ.
double ExpectedComputeEnergy(const sched::Schedule& schedule,
                             const ctg::BranchProbabilities& probs);

/// Energy of one instance under a concrete scenario minterm: sums the
/// tasks/edges active under the scenario. Used to rank scenarios by
/// energy (the "lowest/highest energy minterm" biases of Tables 4/5).
double ScenarioEnergy(const sched::Schedule& schedule,
                      const ctg::Minterm& scenario);

}  // namespace actg::sim

#endif  // ACTG_SIM_ENERGY_H
