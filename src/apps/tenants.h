/// \file tenants.h
/// Tenant workload factories for the multi-tenant serve daemon.
///
/// A serve tenant is one independent application: a CTG + platform, its
/// activation analysis, and a branch-decision trace driving it. The
/// factory wraps the bundled application models (MPEG decoder, cruise
/// controller) and the two random-CTG categories behind one handle so
/// the daemon can instantiate thousands of heterogeneous tenants from a
/// (workload, seed) pair. The graph, platform and analysis live in one
/// immutable heap object the TenantModel shares: a TenantModel stays
/// movable and copyable while the references handed to schedules and
/// controllers remain stable. The bundled apps take no seed, so every
/// MPEG (cruise) tenant of a process shares one such object, built on
/// first use; a random tenant builds its own.

#ifndef ACTG_APPS_TENANTS_H
#define ACTG_APPS_TENANTS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "apps/cruise.h"
#include "apps/mpeg.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/graph.h"
#include "tgff/random_ctg.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace actg::apps {

/// The workload families a tenant can request.
enum class TenantWorkload {
  kMpeg,           ///< 40-task / 9-fork MPEG macroblock decoder
  kCruise,         ///< 32-task / 2-fork vehicle cruise controller
  kRandomForkJoin, ///< random Category-1 CTG (fork-join, nested)
  kRandomFlat,     ///< random Category-2 CTG (no fork-join, no nesting)
};

/// serve-v1 token of a workload: "mpeg", "cruise", "random1", "random2".
std::string_view TenantWorkloadName(TenantWorkload workload);

/// Inverse of TenantWorkloadName; nullopt for unknown tokens.
std::optional<TenantWorkload> ParseTenantWorkload(std::string_view name);

/// One tenant's application model. Construction is the expensive part
/// of a NewApp event for a random tenant (graph generation + analysis);
/// traces are drawn afterwards, deterministically per (model, rng
/// substream).
class TenantModel {
 public:
  /// The model for \p workload. \p seed selects the structure of the
  /// random categories (task/fork/PE counts and tables) and the profile
  /// variant of the bundled apps. Equal pairs build equal models for the
  /// random categories and the same object for bundled apps: every MPEG
  /// (cruise) TenantModel of a process returns the same graph(),
  /// platform() and analysis(), built thread-safely by the first tenant
  /// that asks.
  TenantModel(TenantWorkload workload, std::uint64_t seed);

  TenantWorkload workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }

  const ctg::Ctg& graph() const;
  const arch::Platform& platform() const;
  const ctg::ActivationAnalysis& analysis() const;

  /// Generates \p instances branch-decision vectors with the workload's
  /// native trace process (movie drift, road regimes, random walks).
  /// Deterministic in (model, \p rng) — pass a Fork substream so fleet
  /// results are independent of scheduling order.
  trace::BranchTrace MakeTrace(std::size_t instances,
                               util::Random rng) const;

 private:
  /// Immutable graph + platform + analysis (tenants.cpp).
  struct Parts;

  TenantWorkload workload_;
  std::uint64_t seed_;
  std::shared_ptr<const Parts> parts_;
};

}  // namespace actg::apps

#endif  // ACTG_APPS_TENANTS_H
