/// \file fingerprint.h
/// Structural 64-bit fingerprints for schedule-cache keys.
///
/// Two graphs (or platforms) with equal fingerprints are treated as
/// interchangeable by the schedule cache, so the hashes cover exactly
/// the inputs the scheduler and stretcher read: graph topology, join
/// types, conditions, communication volumes and the deadline; platform
/// WCET/energy tables, link parameters and DVFS capabilities. Task and
/// PE names are deliberately excluded — they never influence a
/// schedule.
///
/// The table walks run once per model, when CtgBuilder::Build and
/// PlatformBuilder::Build produce it (Ctg::structural_hash,
/// Platform::fingerprint); these functions only read the stored values.

#ifndef ACTG_RUNTIME_FINGERPRINT_H
#define ACTG_RUNTIME_FINGERPRINT_H

#include <cstdint>

#include "arch/platform.h"
#include "ctg/graph.h"

namespace actg::runtime {

/// Structural fingerprint of a CTG: its build-time structural hash with
/// the current deadline folded in as the last step, so a later
/// Ctg::SetDeadline is always reflected.
std::uint64_t FingerprintCtg(const ctg::Ctg& graph);

/// Structural fingerprint of a platform.
std::uint64_t FingerprintPlatform(const arch::Platform& platform);

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_FINGERPRINT_H
