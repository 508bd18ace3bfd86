#include "dvfs/policy.h"

#include "obs/trace.h"
#include "runtime/metrics.h"
#include "util/error.h"

namespace actg::dvfs {

namespace {

class OnlinePolicy final : public Policy {
 public:
  std::string_view Name() const override { return "online"; }

 protected:
  StretchStats DoApply(PathEngine& engine,
                       PolicyContext& ctx) const override {
    ACTG_CHECK(ctx.probs != nullptr,
               "policy 'online' requires branch probabilities");
    return StretchOnline(*ctx.schedule, *ctx.probs, ctx.stretch, &engine,
                         ctx.warm);
  }
};

class ProportionalPolicy final : public Policy {
 public:
  std::string_view Name() const override { return "proportional"; }

 protected:
  StretchStats DoApply(PathEngine& engine,
                       PolicyContext& ctx) const override {
    return StretchProportional(*ctx.schedule, ctx.stretch, &engine,
                               ctx.warm);
  }
};

class NlpPolicy final : public Policy {
 public:
  std::string_view Name() const override { return "nlp"; }

 protected:
  StretchStats DoApply(PathEngine& engine,
                       PolicyContext& ctx) const override {
    ACTG_CHECK(ctx.probs != nullptr,
               "policy 'nlp' requires branch probabilities");
    NlpOptions options = ctx.nlp;
    options.stretch = ctx.stretch;
    return StretchNlp(*ctx.schedule, *ctx.probs, options, &engine);
  }
};

const OnlinePolicy kOnline;
const ProportionalPolicy kProportional;
const NlpPolicy kNlp;

/// The built-in policies, sorted by name (PolicyNames() order).
constexpr const Policy* kPolicies[] = {&kNlp, &kOnline, &kProportional};

}  // namespace

StretchStats Policy::Apply(PathEngine& engine, PolicyContext& ctx) const {
  ACTG_CHECK(ctx.schedule != nullptr,
             "PolicyContext: schedule must be set");
  runtime::StageProbe probe(engine.options().metrics,
                            engine.options().trace, "dvfs.stretch", "dvfs");
  if (probe.tracing()) {
    probe.AddArg(obs::StrArg("policy", std::string(Name())));
  }
  // A nominal floor overrides whatever speed the stretcher would pick
  // (the clamp below raises every ratio to full speed), so skip the
  // stretch and pin the clamp's own result.
  const bool nominal = ctx.speed_floor >= 1.0;
  const StretchStats stats =
      nominal ? StretchStats{} : DoApply(engine, ctx);
  if (ctx.speed_floor > 0.0) {
    // Clamp hook: raise every ratio to the floor. Faster-only, so the
    // deadline guarantee of the stretcher is preserved by construction.
    sched::Schedule& schedule = *ctx.schedule;
    bool changed = false;
    for (TaskId task : schedule.graph().TaskIds()) {
      sched::TaskPlacement& placement = schedule.placement(task);
      const double clamped = schedule.platform().QuantizeSpeed(
          placement.pe, std::max(placement.speed_ratio, ctx.speed_floor));
      if (clamped != placement.speed_ratio) {
        placement.speed_ratio = clamped;
        changed = true;
      }
    }
    if (changed || nominal) schedule.RecomputeTimes();
  }
  if (nominal && engine.options().metrics != nullptr) {
    engine.options().metrics->Increment("dvfs.stretch.nominal");
  }
  if (probe.tracing()) {
    if (ctx.speed_floor > 0.0) {
      probe.AddArg(obs::NumArg("speed_floor", ctx.speed_floor));
    }
    if (nominal) probe.AddArg(obs::IntArg("nominal", 1));
    probe.AddArg(obs::IntArg(
        "paths", static_cast<std::int64_t>(stats.path_count)));
  }
  return stats;
}

const Policy* FindPolicy(std::string_view name) {
  for (const Policy* policy : kPolicies) {
    if (policy->Name() == name) return policy;
  }
  return nullptr;
}

const Policy& GetPolicy(std::string_view name) {
  const Policy* policy = FindPolicy(name);
  if (policy == nullptr) {
    std::string known;
    for (const std::string& n : PolicyNames()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw InvalidArgument("unknown stretch policy '" + std::string(name) +
                          "'; registered: " + known);
  }
  return *policy;
}

std::vector<std::string> PolicyNames() {
  std::vector<std::string> names;
  for (const Policy* policy : kPolicies) {
    names.emplace_back(policy->Name());
  }
  return names;
}

StretchStats ApplyPolicy(std::string_view name, sched::Schedule& schedule,
                         const ctg::BranchProbabilities& probs,
                         const StretchOptions& options,
                         PathEngine* engine) {
  const Policy& policy = GetPolicy(name);
  PolicyContext ctx;
  ctx.schedule = &schedule;
  ctx.probs = &probs;
  ctx.stretch = options;
  if (engine != nullptr) return policy.Apply(*engine, ctx);
  PathEngine transient(schedule.graph(), schedule.analysis(),
                       schedule.platform(),
                       PathEngineOptions{.max_paths = options.max_paths});
  return policy.Apply(transient, ctx);
}

}  // namespace actg::dvfs
