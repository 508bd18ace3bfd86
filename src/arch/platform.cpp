#include "arch/platform.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/hash.h"

namespace actg::arch {

// ---------------------------------------------------------------------------
// PeMask

std::size_t PeMask::CountAvailable(std::size_t pe_count) const {
  std::size_t available = 0;
  for (std::size_t i = 0; i < pe_count && i < 64; ++i) {
    if (((removed_ >> i) & 1ULL) == 0) ++available;
  }
  return available;
}

// ---------------------------------------------------------------------------
// Platform

std::vector<PeId> Platform::PeIds() const {
  std::vector<PeId> ids;
  ids.reserve(pes_.size());
  for (std::size_t i = 0; i < pes_.size(); ++i) {
    ids.push_back(PeId{static_cast<int>(i)});
  }
  return ids;
}

double Platform::Wcet(TaskId task, PeId pe) const {
  ACTG_CHECK(task.valid() && task.index() < task_count_,
             "Wcet: task id out of range");
  ACTG_CHECK(pe.valid() && pe.index() < pes_.size(),
             "Wcet: PE id out of range");
  return wcet_[TaskPe(task, pe)];
}

double Platform::Energy(TaskId task, PeId pe) const {
  ACTG_CHECK(task.valid() && task.index() < task_count_,
             "Energy: task id out of range");
  ACTG_CHECK(pe.valid() && pe.index() < pes_.size(),
             "Energy: PE id out of range");
  return energy_[TaskPe(task, pe)];
}

double Platform::AverageWcet(TaskId task) const {
  double total = 0.0;
  for (std::size_t p = 0; p < pes_.size(); ++p) {
    total += Wcet(task, PeId{static_cast<int>(p)});
  }
  return total / static_cast<double>(pes_.size());
}

double Platform::Bandwidth(PeId a, PeId b) const {
  if (a == b) return std::numeric_limits<double>::infinity();
  return bandwidth_[PePe(a, b)];
}

double Platform::TxEnergyPerKb(PeId a, PeId b) const {
  if (a == b) return 0.0;
  return tx_energy_[PePe(a, b)];
}

double Platform::CommTime(double kbytes, PeId src, PeId dst) const {
  if (src == dst || kbytes <= 0.0) return 0.0;
  return kbytes / Bandwidth(src, dst);
}

double Platform::CommEnergy(double kbytes, PeId src, PeId dst) const {
  if (src == dst || kbytes <= 0.0) return 0.0;
  return kbytes * TxEnergyPerKb(src, dst);
}

double Platform::QuantizeSpeed(PeId pe, double sigma) const {
  const PeInfo& info = this->pe(pe);
  sigma = std::clamp(sigma, info.min_speed_ratio, 1.0);
  if (info.speed_levels.empty()) return sigma;
  // Levels are sorted ascending and end at 1.0: the first level at or
  // above the request is the slowest speed that still meets timing.
  for (double level : info.speed_levels) {
    if (level >= sigma - 1e-12) return level;
  }
  return 1.0;
}

// ---------------------------------------------------------------------------
// PlatformBuilder

PlatformBuilder::PlatformBuilder(std::size_t task_count,
                                 std::size_t pe_count,
                                 double default_bandwidth,
                                 double default_tx_energy) {
  ACTG_CHECK(task_count > 0, "A platform needs at least one task");
  ACTG_CHECK(pe_count > 0, "A platform needs at least one PE");
  ACTG_CHECK(default_bandwidth > 0.0, "Bandwidth must be positive");
  ACTG_CHECK(default_tx_energy >= 0.0,
             "Transmission energy must be non-negative");
  p_.task_count_ = task_count;
  p_.pes_.resize(pe_count);
  for (std::size_t i = 0; i < pe_count; ++i) {
    p_.pes_[i].name = "PE" + std::to_string(i);
  }
  p_.wcet_.assign(task_count * pe_count, 0.0);
  p_.energy_.assign(task_count * pe_count, 0.0);
  p_.bandwidth_.assign(pe_count * pe_count, default_bandwidth);
  p_.tx_energy_.assign(pe_count * pe_count, default_tx_energy);
}

PlatformBuilder& PlatformBuilder::SetPeName(PeId pe, std::string name) {
  ACTG_CHECK(pe.valid() && pe.index() < p_.pes_.size(),
             "SetPeName: PE id out of range");
  p_.pes_[pe.index()].name = std::move(name);
  return *this;
}

PlatformBuilder& PlatformBuilder::SetMinSpeedRatio(PeId pe, double ratio) {
  ACTG_CHECK(pe.valid() && pe.index() < p_.pes_.size(),
             "SetMinSpeedRatio: PE id out of range");
  ACTG_CHECK(ratio > 0.0 && ratio <= 1.0,
             "Minimum speed ratio must lie in (0, 1]");
  p_.pes_[pe.index()].min_speed_ratio = ratio;
  return *this;
}

PlatformBuilder& PlatformBuilder::SetTaskCost(TaskId task, PeId pe,
                                              double wcet_ms,
                                              double energy_mj) {
  ACTG_CHECK(task.valid() && task.index() < p_.task_count_,
             "SetTaskCost: task id out of range");
  ACTG_CHECK(pe.valid() && pe.index() < p_.pes_.size(),
             "SetTaskCost: PE id out of range");
  ACTG_CHECK(wcet_ms > 0.0, "WCET must be positive");
  ACTG_CHECK(energy_mj >= 0.0, "Energy must be non-negative");
  p_.wcet_[p_.TaskPe(task, pe)] = wcet_ms;
  p_.energy_[p_.TaskPe(task, pe)] = energy_mj;
  return *this;
}

PlatformBuilder& PlatformBuilder::SetLink(PeId a, PeId b,
                                          double bandwidth_kb_per_ms,
                                          double tx_energy_mj_per_kb) {
  ACTG_CHECK(a.valid() && a.index() < p_.pes_.size() && b.valid() &&
                 b.index() < p_.pes_.size(),
             "SetLink: PE id out of range");
  ACTG_CHECK(a != b, "SetLink: no link from a PE to itself");
  ACTG_CHECK(bandwidth_kb_per_ms > 0.0, "Bandwidth must be positive");
  ACTG_CHECK(tx_energy_mj_per_kb >= 0.0,
             "Transmission energy must be non-negative");
  p_.bandwidth_[p_.PePe(a, b)] = bandwidth_kb_per_ms;
  p_.bandwidth_[p_.PePe(b, a)] = bandwidth_kb_per_ms;
  p_.tx_energy_[p_.PePe(a, b)] = tx_energy_mj_per_kb;
  p_.tx_energy_[p_.PePe(b, a)] = tx_energy_mj_per_kb;
  return *this;
}

PlatformBuilder& PlatformBuilder::SetSpeedLevels(
    PeId pe, std::vector<double> levels) {
  ACTG_CHECK(pe.valid() && pe.index() < p_.pes_.size(),
             "SetSpeedLevels: PE id out of range");
  ACTG_CHECK(!levels.empty(), "SetSpeedLevels: empty level set");
  std::sort(levels.begin(), levels.end());
  for (double level : levels) {
    ACTG_CHECK(level > 0.0 && level <= 1.0,
               "Speed levels must lie in (0, 1]");
  }
  ACTG_CHECK(std::abs(levels.back() - 1.0) < 1e-12,
             "The highest speed level must be the nominal speed 1.0");
  p_.pes_[pe.index()].min_speed_ratio = levels.front();
  p_.pes_[pe.index()].speed_levels = std::move(levels);
  return *this;
}

namespace {

/// The walk behind Platform::fingerprint. Schedule-cache keys derive
/// from it, so its order and encoding are fixed.
std::uint64_t PlatformHash(const Platform& platform) {
  std::uint64_t hash = util::kFnvOffset;
  hash = util::HashCombine(hash, platform.task_count());
  hash = util::HashCombine(hash, platform.pe_count());
  for (PeId pe : platform.PeIds()) {
    const PeInfo& info = platform.pe(pe);
    hash = util::HashDouble(hash, info.min_speed_ratio);
    hash = util::HashCombine(hash, info.speed_levels.size());
    for (double level : info.speed_levels) {
      hash = util::HashDouble(hash, level);
    }
  }
  for (std::size_t t = 0; t < platform.task_count(); ++t) {
    const TaskId task{static_cast<int>(t)};
    for (PeId pe : platform.PeIds()) {
      hash = util::HashDouble(hash, platform.Wcet(task, pe));
      hash = util::HashDouble(hash, platform.Energy(task, pe));
    }
  }
  for (PeId a : platform.PeIds()) {
    for (PeId b : platform.PeIds()) {
      hash = util::HashDouble(hash, platform.Bandwidth(a, b));
      hash = util::HashDouble(hash, platform.TxEnergyPerKb(a, b));
    }
  }
  return hash;
}

}  // namespace

Platform PlatformBuilder::Build() && {
  for (std::size_t t = 0; t < p_.task_count_; ++t) {
    for (std::size_t pe = 0; pe < p_.pes_.size(); ++pe) {
      ACTG_CHECK(
          p_.wcet_[t * p_.pes_.size() + pe] > 0.0,
          "Task " + std::to_string(t) + " has no WCET on PE " +
              std::to_string(pe));
    }
  }
  p_.fingerprint_ = PlatformHash(p_);
  return std::move(p_);
}

// ---------------------------------------------------------------------------
// DVFS model

namespace dvfs_model {

double ScaledTime(double wcet_ms, double sigma) {
  ACTG_CHECK(sigma > 0.0 && sigma <= 1.0 + 1e-12,
             "Speed ratio must lie in (0, 1]");
  return wcet_ms / sigma;
}

double ScaledEnergy(double energy_mj, double sigma) {
  ACTG_CHECK(sigma > 0.0 && sigma <= 1.0 + 1e-12,
             "Speed ratio must lie in (0, 1]");
  return energy_mj * sigma * sigma;
}

double SpeedForAllotted(double wcet_ms, double allotted_ms,
                        double min_ratio) {
  ACTG_CHECK(wcet_ms > 0.0, "WCET must be positive");
  ACTG_CHECK(min_ratio > 0.0 && min_ratio <= 1.0,
             "Minimum ratio must lie in (0, 1]");
  if (allotted_ms <= wcet_ms) return 1.0;
  return std::clamp(wcet_ms / allotted_ms, min_ratio, 1.0);
}

}  // namespace dvfs_model

}  // namespace actg::arch
