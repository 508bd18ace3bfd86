/// \file platform.h
/// MPSoC platform model (paper Section II).
///
/// A platform is a set of processing elements (PEs) with per-task
/// worst-case execution time WCET(τ, p) and energy E(τ, p) at the nominal
/// supply voltage, plus a point-to-point interconnect with per-pair
/// bandwidth B(pi, pj) and transmission energy per KByte. Each PE has a
/// dedicated communication resource; voltage scaling never applies to
/// communication (both per the paper).

#ifndef ACTG_ARCH_PLATFORM_H
#define ACTG_ARCH_PLATFORM_H

#include <cstdint>
#include <string>
#include <vector>

#include "ctg/ids.h"

namespace actg::arch {

/// Static description of one processing element.
struct PeInfo {
  std::string name;
  /// Lowest speed (frequency) the PE supports, as a fraction of nominal.
  /// Stretching can never slow a task below this ratio.
  double min_speed_ratio = 0.1;
  /// Discrete speed levels (fractions of nominal, ascending, the last
  /// being 1.0). Empty means continuously scalable (the paper's model);
  /// when set, stretchers round each selected speed *up* to the nearest
  /// available level, so deadlines remain guaranteed.
  std::vector<double> speed_levels;
};

class PlatformBuilder;

/// Availability mask over a platform's PEs (at most 64). The default-
/// constructed mask imposes no restriction; RemovedPe masks one PE out,
/// e.g. after a detected dropout, so the scheduler can migrate work to
/// the surviving PEs. A mask never makes an unavailable platform
/// available — it only restricts.
class PeMask {
 public:
  /// No restriction: every PE of any platform is available.
  constexpr PeMask() = default;

  /// Mask with exactly the PEs of \p bits *unavailable* (bit index =
  /// PeId index).
  static constexpr PeMask WithoutBits(std::uint64_t bits) {
    PeMask mask;
    mask.removed_ = bits;
    return mask;
  }

  /// This mask with \p pe additionally removed. PEs beyond the mask's
  /// 64-bit width cannot be removed and always stay available.
  PeMask Without(PeId pe) const {
    if (pe.index() >= 64) return *this;
    return WithoutBits(removed_ | (1ULL << pe.index()));
  }

  constexpr bool Contains(PeId pe) const {
    if (pe.index() >= 64) return true;
    return ((removed_ >> pe.index()) & 1ULL) == 0;
  }

  /// True when no PE is masked out.
  constexpr bool IsAll() const { return removed_ == 0; }

  /// Number of available PEs on a platform with \p pe_count PEs.
  std::size_t CountAvailable(std::size_t pe_count) const;

  /// Bitmask of removed PEs.
  constexpr std::uint64_t removed_bits() const { return removed_; }

  friend constexpr bool operator==(const PeMask&, const PeMask&) = default;

 private:
  std::uint64_t removed_ = 0;
};

/// Immutable platform bound to a fixed number of tasks. Tables are dense:
/// WCET/energy for every (task, PE) pair, bandwidth/energy for every
/// (PE, PE) pair.
class Platform {
 public:
  std::size_t pe_count() const { return pes_.size(); }
  std::size_t task_count() const { return task_count_; }

  const PeInfo& pe(PeId id) const { return pes_.at(id.index()); }

  /// All PE ids.
  std::vector<PeId> PeIds() const;

  /// Worst-case execution time of \p task on \p pe at nominal speed, ms.
  double Wcet(TaskId task, PeId pe) const;

  /// Energy of \p task on \p pe at nominal voltage, mJ (the paper assumes
  /// unit load capacitance; our tables carry explicit values).
  double Energy(TaskId task, PeId pe) const;

  /// PE-average WCET of \p task at nominal speed (the *WCET of Eq. 1).
  double AverageWcet(TaskId task) const;

  /// Link bandwidth between two PEs, KBytes per ms. Infinite (no delay)
  /// within a single PE.
  double Bandwidth(PeId a, PeId b) const;

  /// Transmission energy per KByte between two PEs, mJ. Zero within a
  /// single PE.
  double TxEnergyPerKb(PeId a, PeId b) const;

  /// Communication delay of \p kbytes from \p src to \p dst in ms.
  double CommTime(double kbytes, PeId src, PeId dst) const;

  /// Communication energy of \p kbytes from \p src to \p dst in mJ.
  double CommEnergy(double kbytes, PeId src, PeId dst) const;

  /// Maps a desired speed ratio onto \p pe's DVFS capability: clamps to
  /// [min_speed_ratio, 1] and, when the PE has discrete levels, rounds
  /// *up* to the nearest level (never slower than requested, so a
  /// deadline met at \p sigma is met at the returned speed).
  double QuantizeSpeed(PeId pe, double sigma) const;

  /// FNV-1a hash of everything the scheduler reads from the platform:
  /// sizes, DVFS capabilities, WCET/energy tables and link parameters
  /// (PE names excluded). Computed once by PlatformBuilder::Build; the
  /// platform is immutable afterwards.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class PlatformBuilder;
  Platform() = default;

  std::size_t task_count_ = 0;
  std::vector<PeInfo> pes_;
  std::vector<double> wcet_;    // task-major [task][pe]
  std::vector<double> energy_;  // task-major [task][pe]
  std::vector<double> bandwidth_;  // [pe][pe], KB/ms
  std::vector<double> tx_energy_;  // [pe][pe], mJ/KB
  std::uint64_t fingerprint_ = 0;

  std::size_t TaskPe(TaskId t, PeId p) const {
    return t.index() * pes_.size() + p.index();
  }
  std::size_t PePe(PeId a, PeId b) const {
    return a.index() * pes_.size() + b.index();
  }
};

/// Incremental builder for Platform.
class PlatformBuilder {
 public:
  /// Creates a builder for \p task_count tasks and \p pe_count PEs.
  /// All WCETs default to 0 (must be set), bandwidths to
  /// \p default_bandwidth, transmission energies to \p default_tx_energy.
  PlatformBuilder(std::size_t task_count, std::size_t pe_count,
                  double default_bandwidth = 100.0,
                  double default_tx_energy = 0.05);

  /// Names one PE (defaults to "PE<i>").
  PlatformBuilder& SetPeName(PeId pe, std::string name);

  /// Sets the minimum speed ratio of one PE.
  PlatformBuilder& SetMinSpeedRatio(PeId pe, double ratio);

  /// Sets WCET and energy of \p task on \p pe at nominal speed.
  PlatformBuilder& SetTaskCost(TaskId task, PeId pe, double wcet_ms,
                               double energy_mj);

  /// Sets the link parameters between two PEs (symmetric).
  PlatformBuilder& SetLink(PeId a, PeId b, double bandwidth_kb_per_ms,
                           double tx_energy_mj_per_kb);

  /// Restricts \p pe to discrete speed levels (fractions of nominal,
  /// in (0, 1], unsorted accepted; must include 1.0 after sorting).
  /// Also sets the PE's minimum speed ratio to the lowest level.
  PlatformBuilder& SetSpeedLevels(PeId pe, std::vector<double> levels);

  /// Validates (every (task, PE) cost set and positive) and produces the
  /// immutable platform.
  Platform Build() &&;

 private:
  Platform p_;
};

/// DVFS energy/delay model (paper Section IV: unit load capacitance, the
/// only variable is speed/frequency; V scales with f, E = C·V²·cycles).
/// Stretching a task to run at speed ratio σ ∈ (0, 1] multiplies its
/// execution time by 1/σ and its energy by σ².
namespace dvfs_model {

/// Execution time at speed ratio \p sigma given nominal \p wcet_ms.
double ScaledTime(double wcet_ms, double sigma);

/// Energy at speed ratio \p sigma given nominal \p energy_mj.
double ScaledEnergy(double energy_mj, double sigma);

/// Speed ratio required to run \p wcet_ms within \p allotted_ms, clamped
/// to [min_ratio, 1].
double SpeedForAllotted(double wcet_ms, double allotted_ms,
                        double min_ratio);

}  // namespace dvfs_model

}  // namespace actg::arch

#endif  // ACTG_ARCH_PLATFORM_H
