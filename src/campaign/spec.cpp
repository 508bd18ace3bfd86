#include "campaign/spec.h"

#include <functional>
#include <utility>

#include "dvfs/policy.h"
#include "util/line_reader.h"

namespace actg::campaign {

namespace {

faults::FaultPlan PresetPlan(const std::string& preset) {
  faults::FaultPlan plan;
  const bool overrun = preset == "overrun" || preset == "mixed";
  const bool dropout = preset == "dropout" || preset == "mixed";
  const bool link = preset == "link" || preset == "mixed";
  const bool drift = preset == "drift" || preset == "mixed";
  if (overrun) {
    plan.overrun.probability = 0.3;
    plan.overrun.min_factor = 1.2;
    plan.overrun.max_factor = 2.0;
  }
  if (dropout) {
    plan.dropout.probability = 0.05;
    plan.dropout.duration = 2;
    plan.dropout.rerun_penalty = 2.0;
  }
  if (link) {
    plan.link.probability = 0.1;
    plan.link.bandwidth_factor = 0.5;
    plan.link.duration = 2;
  }
  if (drift) {
    plan.drift.max_flip_probability = 0.3;
    plan.drift.ramp_instances = 4;
  }
  return plan;
}

/// Invalid when two entries of the \p axis values share a name.
template <typename T, typename NameOf>
util::Error RejectDuplicate(const char* axis, const std::vector<T>& values,
                            NameOf name_of) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::string name(name_of(values[i]));
    for (std::size_t j = 0; j < i; ++j) {
      if (name_of(values[j]) == name) {
        return util::Error::Invalid(std::string("CampaignSpec: duplicate ") +
                                    axis + " '" + name + "'");
      }
    }
  }
  return {};
}

}  // namespace

const std::vector<std::string>& StormPresets() {
  static const std::vector<std::string> kPresets = {
      "none", "overrun", "dropout", "link", "drift", "mixed"};
  return kPresets;
}

faults::FaultPlan StormSpec::Plan() const {
  faults::FaultPlan plan = PresetPlan(preset);
  plan.intensity = intensity;
  return plan;
}

util::Error StormSpec::Validate() const {
  if (name.empty()) {
    return util::Error::Invalid("StormSpec: name must be non-empty");
  }
  bool known = false;
  for (const std::string& p : StormPresets()) known |= p == preset;
  if (!known) {
    return util::Error::Invalid("StormSpec '" + name +
                                "': unknown preset '" + preset + "'");
  }
  if (!(intensity >= 0.0)) {
    return util::Error::Invalid("StormSpec '" + name +
                                "': intensity must be >= 0");
  }
  return Plan().Validate();
}

void CampaignSpec::ApplyDefaults() {
  if (workloads.empty()) {
    workloads = {apps::TenantWorkload::kMpeg, apps::TenantWorkload::kCruise,
                 apps::TenantWorkload::kRandomForkJoin,
                 apps::TenantWorkload::kRandomFlat};
  }
  if (policies.empty()) policies = {"online"};
  if (modes.empty()) modes = {adaptive::RescheduleMode::kFull};
  if (storms.empty()) storms = {StormSpec{"calm", "none", 1.0}};
}

util::Error CampaignSpec::Validate() const {
  if (instances == 0) {
    return util::Error::Invalid("CampaignSpec: instances must be > 0");
  }
  if (shards == 0) {
    return util::Error::Invalid("CampaignSpec: shards must be > 0");
  }
  if (trace_instances == 0) {
    return util::Error::Invalid(
        "CampaignSpec: trace_instances must be > 0");
  }
  if (model_seeds == 0) {
    return util::Error::Invalid("CampaignSpec: model_seeds must be > 0");
  }
  if (!(oracle_rate >= 0.0) || oracle_rate > 1.0) {
    return util::Error::Invalid(
        "CampaignSpec: oracle_rate must lie in [0, 1]");
  }
  if (cache_capacity == 0) {
    return util::Error::Invalid(
        "CampaignSpec: cache_capacity must be > 0");
  }
  if (!(threshold > 0.0) || threshold > 1.0) {
    return util::Error::Invalid(
        "CampaignSpec: threshold must lie in (0, 1]");
  }
  if (window == 0) {
    return util::Error::Invalid("CampaignSpec: window must be > 0");
  }
  if (workloads.empty() || policies.empty() || modes.empty() ||
      storms.empty()) {
    return util::Error::Invalid(
        "CampaignSpec: every population axis must be non-empty "
        "(ApplyDefaults fills unlisted ones)");
  }
  for (const std::string& policy : policies) {
    if (dvfs::FindPolicy(policy) == nullptr) {
      return util::Error::Invalid("CampaignSpec: unknown policy '" +
                                  policy + "'");
    }
  }
  for (const StormSpec& storm : storms) {
    if (util::Error err = storm.Validate(); !err.ok()) return err;
  }
  // A repeated axis value would print two report rows with one label.
  for (const util::Error& err :
       {RejectDuplicate("workload", workloads, apps::TenantWorkloadName),
        RejectDuplicate("policy", policies, std::identity{}),
        RejectDuplicate("mode", modes, adaptive::RescheduleModeName),
        RejectDuplicate("storm", storms,
                        [](const StormSpec& s) { return s.name; })}) {
    if (!err.ok()) return err;
  }
  return {};
}

namespace {

CampaignSpec ReadCampaign(util::LineReader& reader) {
  reader.ExpectHeader("campaign v1");
  CampaignSpec spec;
  const auto count = [&] { return reader.U64(reader.Operand("<count>")); };
  const auto flag = [&] { return reader.Flag(reader.Operand("<0|1>")); };
  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "seed") {
      spec.seed = reader.U64(reader.Operand("<uint64>"));
    } else if (directive == "instances") {
      spec.instances = count();
    } else if (directive == "shards") {
      spec.shards = count();
    } else if (directive == "trace_instances") {
      spec.trace_instances = count();
    } else if (directive == "model_seeds") {
      spec.model_seeds = count();
    } else if (directive == "oracle_rate") {
      spec.oracle_rate = reader.Number(reader.Operand("<fraction>"));
    } else if (directive == "share_cache") {
      spec.share_cache = flag();
    } else if (directive == "cache_capacity") {
      spec.cache_capacity = count();
    } else if (directive == "threshold") {
      spec.threshold = reader.Number(reader.Operand("<t>"));
    } else if (directive == "window") {
      spec.window = count();
    } else if (directive == "degrade") {
      spec.degrade = flag();
    } else if (directive == "quarantine_cap") {
      spec.quarantine_cap = count();
    } else if (directive == "quarantine_retries") {
      spec.quarantine_retries = count();
    } else if (directive == "reschedule_budget") {
      spec.reschedule_budget = count();
    } else if (directive == "poison_every") {
      spec.poison_every = count();
    } else if (directive == "workload") {
      const std::string& name = reader.Operand("<name>");
      const auto workload = apps::ParseTenantWorkload(name);
      if (!workload) reader.Fail("unknown workload '" + name + "'");
      spec.workloads.push_back(*workload);
    } else if (directive == "policy") {
      spec.policies.push_back(reader.Operand("<name>"));
    } else if (directive == "mode") {
      const std::string& name = reader.Operand("<name>");
      const auto mode = adaptive::ParseRescheduleMode(name);
      if (!mode) reader.Fail("unknown reschedule mode '" + name + "'");
      spec.modes.push_back(*mode);
    } else if (directive == "storm") {
      reader.Operands(2, 3, "<name> <preset> [intensity]");
      StormSpec storm;
      storm.name = reader[1];
      storm.preset = reader[2];
      if (reader.size() == 4) storm.intensity = reader.Number(reader[3]);
      if (util::Error err = storm.Validate(); !err.ok()) {
        reader.Fail(err.message());
      }
      spec.storms.push_back(std::move(storm));
    } else {
      reader.UnknownDirective();
    }
  }
  spec.ApplyDefaults();
  spec.Validate().ThrowIfError();
  return spec;
}

}  // namespace

util::Expected<CampaignSpec> ParseCampaignFile(std::istream& is) {
  return util::ParseLines(is, "campaign", ReadCampaign);
}

void WriteCampaignFile(std::ostream& os, const CampaignSpec& spec) {
  using util::FormatNumber;
  os << "campaign v1\n";
  os << "seed " << spec.seed << "\n";
  os << "instances " << spec.instances << "\n";
  os << "shards " << spec.shards << "\n";
  os << "trace_instances " << spec.trace_instances << "\n";
  os << "model_seeds " << spec.model_seeds << "\n";
  os << "oracle_rate " << FormatNumber(spec.oracle_rate) << "\n";
  os << "share_cache " << (spec.share_cache ? 1 : 0) << "\n";
  os << "cache_capacity " << spec.cache_capacity << "\n";
  os << "threshold " << FormatNumber(spec.threshold) << "\n";
  os << "window " << spec.window << "\n";
  os << "degrade " << (spec.degrade ? 1 : 0) << "\n";
  os << "quarantine_cap " << spec.quarantine_cap << "\n";
  os << "quarantine_retries " << spec.quarantine_retries << "\n";
  os << "reschedule_budget " << spec.reschedule_budget << "\n";
  os << "poison_every " << spec.poison_every << "\n";
  for (const apps::TenantWorkload workload : spec.workloads) {
    os << "workload " << apps::TenantWorkloadName(workload) << "\n";
  }
  for (const std::string& policy : spec.policies) {
    os << "policy " << policy << "\n";
  }
  for (const adaptive::RescheduleMode mode : spec.modes) {
    os << "mode " << adaptive::RescheduleModeName(mode) << "\n";
  }
  for (const StormSpec& storm : spec.storms) {
    os << "storm " << storm.name << " " << storm.preset << " "
       << FormatNumber(storm.intensity) << "\n";
  }
  os << "end\n";
}

CampaignSpec SyntheticCampaign(std::size_t instances,
                               std::uint64_t seed) {
  CampaignSpec spec;
  spec.seed = seed;
  spec.instances = instances;
  spec.degrade = true;
  // Short window + enough repeats per app that the threshold actually
  // trips — the synthetic population must exercise the adaptive path,
  // not just the initial schedule.
  spec.window = 4;
  spec.trace_instances = 6;
  spec.modes = {adaptive::RescheduleMode::kFull,
                adaptive::RescheduleMode::kIncremental};
  spec.storms = {StormSpec{"calm", "none", 1.0},
                 StormSpec{"squall", "mixed", 0.5}};
  spec.ApplyDefaults();
  return spec;
}

}  // namespace actg::campaign
