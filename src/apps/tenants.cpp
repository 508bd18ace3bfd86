#include "apps/tenants.h"

#include <utility>
#include <variant>
#include <vector>

#include "apps/common.h"
#include "trace/generators.h"
#include "util/error.h"

namespace actg::apps {

std::string_view TenantWorkloadName(TenantWorkload workload) {
  switch (workload) {
    case TenantWorkload::kMpeg:
      return "mpeg";
    case TenantWorkload::kCruise:
      return "cruise";
    case TenantWorkload::kRandomForkJoin:
      return "random1";
    case TenantWorkload::kRandomFlat:
      return "random2";
  }
  return "?";
}

std::optional<TenantWorkload> ParseTenantWorkload(std::string_view name) {
  if (name == "mpeg") return TenantWorkload::kMpeg;
  if (name == "cruise") return TenantWorkload::kCruise;
  if (name == "random1") return TenantWorkload::kRandomForkJoin;
  if (name == "random2") return TenantWorkload::kRandomFlat;
  return std::nullopt;
}

namespace {

/// Deadline tightness of the random tenant graphs (the bundled apps
/// carry their own paper-calibrated factors).
constexpr double kRandomDeadlineFactor = 1.3;

tgff::RandomCase MakeRandomTenantCase(tgff::Category category,
                                      std::uint64_t seed) {
  // Structural diversity per tenant: the seed picks the (tasks, forks,
  // PEs) triplet from the band the paper's Tables 4/5 cases span.
  util::Random rng(seed ^ 0x7E4A47F5D1ULL);
  tgff::RandomCtgParams params;
  params.task_count = rng.UniformInt(15, 28);
  params.fork_count = rng.UniformInt(1, 3);
  params.pe_count = rng.UniformInt(2, 4);
  params.category = category;
  params.seed = seed;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  AssignDeadline(rc.graph, rc.platform, kRandomDeadlineFactor);
  return rc;
}

}  // namespace

/// The model a TenantModel shares: the app, its graph's activation
/// analysis, and references into both that stay valid for the object's
/// lifetime (it is never moved once built).
struct TenantModel::Parts {
  using App = std::variant<MpegModel, CruiseModel, tgff::RandomCase>;

  explicit Parts(App app_model)
      : app(std::move(app_model)),
        graph(std::visit(
            [](const auto& a) -> const ctg::Ctg& { return a.graph; }, app)),
        platform(std::visit(
            [](const auto& a) -> const arch::Platform& { return a.platform; },
            app)),
        analysis(graph) {}

  const App app;
  const ctg::Ctg& graph;
  const arch::Platform& platform;
  const ctg::ActivationAnalysis analysis;
};

TenantModel::TenantModel(TenantWorkload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  // The bundled apps take no seed, so each is one constant per process:
  // the first tenant to ask builds it (function-local statics initialize
  // thread-safely) and every later one shares it.
  switch (workload) {
    case TenantWorkload::kMpeg: {
      static const auto mpeg = std::make_shared<const Parts>(MakeMpegModel());
      parts_ = mpeg;
      break;
    }
    case TenantWorkload::kCruise: {
      static const auto cruise =
          std::make_shared<const Parts>(MakeCruiseModel());
      parts_ = cruise;
      break;
    }
    case TenantWorkload::kRandomForkJoin:
      parts_ = std::make_shared<const Parts>(
          MakeRandomTenantCase(tgff::Category::kForkJoin, seed));
      break;
    case TenantWorkload::kRandomFlat:
      parts_ = std::make_shared<const Parts>(
          MakeRandomTenantCase(tgff::Category::kFlat, seed));
      break;
  }
  ACTG_CHECK(parts_ != nullptr, "TenantModel: unknown workload");
}

const ctg::Ctg& TenantModel::graph() const { return parts_->graph; }

const arch::Platform& TenantModel::platform() const {
  return parts_->platform;
}

const ctg::ActivationAnalysis& TenantModel::analysis() const {
  return parts_->analysis;
}

trace::BranchTrace TenantModel::MakeTrace(std::size_t instances,
                                          util::Random rng) const {
  switch (workload_) {
    case TenantWorkload::kMpeg: {
      // The seed selects the movie profile; the substream reseeds it so
      // two mpeg tenants with the same profile still watch different
      // clips.
      std::vector<MovieProfile> profiles = MpegMovieProfiles();
      MovieProfile profile =
          profiles[static_cast<std::size_t>(seed_ % profiles.size())];
      profile.seed = rng.engine().Next();
      return GenerateMovieTrace(std::get<MpegModel>(parts_->app), profile,
                                instances);
    }
    case TenantWorkload::kCruise: {
      const int sequence = 1 + static_cast<int>(seed_ % 3);
      return GenerateRoadTrace(std::get<CruiseModel>(parts_->app), sequence,
                               instances, rng.engine().Next());
    }
    case TenantWorkload::kRandomForkJoin:
    case TenantWorkload::kRandomFlat: {
      // Drifting random-walk processes with occasional scene changes,
      // the MPEG-like statistics every adaptive experiment assumes.
      trace::TraceGenerator gen(graph());
      for (TaskId fork : graph().ForkIds()) {
        trace::RandomWalkProcess::Params params;
        const int arity = graph().OutcomeCount(fork);
        params.initial_weights.resize(static_cast<std::size_t>(arity));
        for (double& w : params.initial_weights) {
          w = rng.Uniform(0.2, 1.0);
        }
        params.step_sigma = 0.05;
        params.jump_probability = 0.01;
        gen.SetProcess(
            fork, std::make_unique<trace::RandomWalkProcess>(params));
      }
      return gen.Generate(instances, rng);
    }
  }
  throw InternalError("TenantModel::MakeTrace: unreachable workload");
}

}  // namespace actg::apps
