// Pins the structural fingerprints that key the schedule cache and
// derive trace timeline unit ids: FingerprintCtg and FingerprintPlatform
// must keep returning exactly what a per-call walk of the graph and
// platform tables returns. The walk is copied here, FNV-1a round
// included, so a change to either the build-time hashes or the shared
// hash primitives shows up as a mismatch.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/cruise.h"
#include "apps/fig1_example.h"
#include "apps/mpeg.h"
#include "arch/platform.h"
#include "ctg/graph.h"
#include "io/text_format.h"
#include "runtime/fingerprint.h"
#include "tgff/random_ctg.h"

namespace actg::runtime {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-call table walks

constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kPrime = 0x100000001B3ULL;

std::uint64_t RefCombine(std::uint64_t hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash = (hash ^ ((value >> shift) & 0xFF)) * kPrime;
  }
  return hash;
}

std::uint64_t RefDouble(std::uint64_t hash, double value) {
  return RefCombine(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t RefFingerprintCtg(const ctg::Ctg& graph) {
  std::uint64_t hash = kOffset;
  hash = RefCombine(hash, graph.task_count());
  hash = RefCombine(hash, graph.edge_count());
  for (TaskId task : graph.TaskIds()) {
    hash = RefCombine(hash,
                      static_cast<std::uint64_t>(graph.task(task).join));
    if (graph.IsFork(task)) {
      hash = RefCombine(
          hash, static_cast<std::uint64_t>(graph.OutcomeCount(task)));
    }
  }
  for (EdgeId id : graph.EdgeIds()) {
    const ctg::Edge& edge = graph.edge(id);
    hash = RefCombine(hash, static_cast<std::uint64_t>(edge.src.value));
    hash = RefCombine(hash, static_cast<std::uint64_t>(edge.dst.value));
    hash = RefDouble(hash, edge.comm_kbytes);
    hash = RefCombine(
        hash, edge.condition.has_value()
                  ? static_cast<std::uint64_t>(edge.condition->outcome) + 2
                  : 1);
  }
  hash = RefDouble(hash, graph.deadline_ms());
  return hash;
}

std::uint64_t RefFingerprintPlatform(const arch::Platform& platform) {
  std::uint64_t hash = kOffset;
  hash = RefCombine(hash, platform.task_count());
  hash = RefCombine(hash, platform.pe_count());
  for (PeId pe : platform.PeIds()) {
    const arch::PeInfo& info = platform.pe(pe);
    hash = RefDouble(hash, info.min_speed_ratio);
    hash = RefCombine(hash, info.speed_levels.size());
    for (double level : info.speed_levels) hash = RefDouble(hash, level);
  }
  for (std::size_t t = 0; t < platform.task_count(); ++t) {
    const TaskId task{static_cast<int>(t)};
    for (PeId pe : platform.PeIds()) {
      hash = RefDouble(hash, platform.Wcet(task, pe));
      hash = RefDouble(hash, platform.Energy(task, pe));
    }
  }
  for (PeId a : platform.PeIds()) {
    for (PeId b : platform.PeIds()) {
      hash = RefDouble(hash, platform.Bandwidth(a, b));
      hash = RefDouble(hash, platform.TxEnergyPerKb(a, b));
    }
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Models

struct Model {
  std::string name;
  ctg::Ctg graph;
  arch::Platform platform;
};

std::vector<Model> Models() {
  std::vector<Model> models;
  {
    apps::Fig1Example ex = apps::MakeFig1Example();
    models.push_back({"fig1", std::move(ex.graph), std::move(ex.platform)});
  }
  {
    apps::MpegModel m = apps::MakeMpegModel();
    models.push_back({"mpeg", std::move(m.graph), std::move(m.platform)});
  }
  {
    apps::CruiseModel m = apps::MakeCruiseModel();
    models.push_back({"cruise", std::move(m.graph), std::move(m.platform)});
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (auto category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      tgff::RandomCtgParams params;
      params.task_count = 12 + static_cast<int>(seed) * 4;
      params.fork_count = 1 + static_cast<int>(seed % 3);
      params.pe_count = 2 + static_cast<int>(seed % 3);
      params.category = category;
      params.seed = 900 + seed;
      tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
      apps::AssignDeadline(rc.graph, rc.platform, 1.3);
      models.push_back({"random/" + std::to_string(seed),
                        std::move(rc.graph), std::move(rc.platform)});
    }
  }
  // Discrete DVFS levels are part of the platform fingerprint.
  {
    apps::Fig1Example ex = apps::MakeFig1Example();
    arch::PlatformBuilder builder(ex.graph.task_count(), 2);
    for (TaskId task : ex.graph.TaskIds()) {
      for (PeId pe : ex.platform.PeIds()) {
        builder.SetTaskCost(task, pe, ex.platform.Wcet(task, pe),
                            ex.platform.Energy(task, pe));
      }
    }
    builder.SetSpeedLevels(PeId{1}, {0.25, 0.5, 0.75, 1.0});
    models.push_back({"fig1-levels", std::move(ex.graph),
                      std::move(builder).Build()});
  }
  return models;
}

// ---------------------------------------------------------------------------
// Tests

TEST(FingerprintPin, EqualsThePerCallWalk) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    EXPECT_EQ(FingerprintCtg(model.graph), RefFingerprintCtg(model.graph));
    EXPECT_EQ(FingerprintPlatform(model.platform),
              RefFingerprintPlatform(model.platform));
  }
}

TEST(FingerprintPin, TextRoundTripEqualsThePerCallWalk) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    std::stringstream graph_text;
    io::WriteCtg(graph_text, model.graph);
    const ctg::Ctg graph = io::ParseCtg(graph_text).value();
    EXPECT_EQ(FingerprintCtg(graph), RefFingerprintCtg(graph));
    std::stringstream platform_text;
    io::WritePlatform(platform_text, model.platform);
    const arch::Platform platform = io::ParsePlatform(platform_text).value();
    EXPECT_EQ(FingerprintPlatform(platform),
              RefFingerprintPlatform(platform));
  }
}

TEST(FingerprintPin, SetDeadlineChangesTheGraphFingerprint) {
  apps::MpegModel m = apps::MakeMpegModel();
  const std::uint64_t before = FingerprintCtg(m.graph);
  m.graph.SetDeadline(m.graph.deadline_ms() * 1.25);
  EXPECT_NE(FingerprintCtg(m.graph), before);
  EXPECT_EQ(FingerprintCtg(m.graph), RefFingerprintCtg(m.graph));
}

TEST(FingerprintPin, CopiesKeepTheirFingerprints) {
  for (const Model& model : Models()) {
    SCOPED_TRACE(model.name);
    const ctg::Ctg graph = model.graph;
    const arch::Platform platform = model.platform;
    EXPECT_EQ(FingerprintCtg(graph), FingerprintCtg(model.graph));
    EXPECT_EQ(FingerprintPlatform(platform),
              FingerprintPlatform(model.platform));
    ctg::Ctg assigned = apps::MakeFig1Example().graph;
    assigned = graph;
    EXPECT_EQ(FingerprintCtg(assigned), RefFingerprintCtg(graph));
  }
}

}  // namespace
}  // namespace actg::runtime
