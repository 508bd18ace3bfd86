#include "campaign/spec.h"

#include <functional>
#include <sstream>
#include <utility>

#include "dvfs/policy.h"

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

/// Line-oriented reader mirroring serve/request.cpp: '#' starts a
/// comment, blank lines are skipped, failures carry the line number.
struct CampaignReader {
  std::istream& is;
  int line_number = 0;

  [[noreturn]] void Fail(const std::string& message) const {
    throw InvalidArgument("campaign line " +
                          std::to_string(line_number) + ": " + message);
  }

  bool NextTokens(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(is, line)) {
      ++line_number;
      if (const auto hash = line.find('#'); hash != std::string::npos) {
        line.erase(hash);
      }
      std::istringstream split(line);
      tokens.clear();
      for (std::string tok; split >> tok;) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  double Number(const std::string& token) const {
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      Fail("expected a number, got '" + token + "'");
    }
    if (used != token.size()) Fail("trailing garbage in '" + token + "'");
    return value;
  }

  std::size_t Count(const std::string& token) const {
    const double value = Number(token);
    if (value < 0.0 || value != static_cast<double>(
                                    static_cast<std::size_t>(value))) {
      Fail("expected a non-negative integer, got '" + token + "'");
    }
    return static_cast<std::size_t>(value);
  }

  bool Flag(const std::string& token) const {
    const std::size_t value = Count(token);
    if (value > 1) Fail("expected 0 or 1, got '" + token + "'");
    return value == 1;
  }
};

CampaignSpec ParseCampaignFileImpl(std::istream& is) {
  CampaignReader reader{is};
  std::vector<std::string> tokens;
  if (!reader.NextTokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "campaign" || tokens[1] != "v1") {
    reader.Fail("expected header 'campaign v1'");
  }
  CampaignSpec spec;
  auto one = [&](const char* what) -> const std::string& {
    if (tokens.size() != 2) {
      reader.Fail(std::string(tokens[0]) + " needs " + what);
    }
    return tokens[1];
  };
  while (reader.NextTokens(tokens)) {
    const std::string& directive = tokens[0];
    if (directive == "end") {
      spec.ApplyDefaults();
      spec.Validate().ThrowIfError();
      return spec;
    }
    if (directive == "seed") {
      spec.seed = static_cast<std::uint64_t>(reader.Count(one("<uint64>")));
    } else if (directive == "instances") {
      spec.instances = reader.Count(one("<count>"));
    } else if (directive == "shards") {
      spec.shards = reader.Count(one("<count>"));
    } else if (directive == "trace_instances") {
      spec.trace_instances = reader.Count(one("<count>"));
    } else if (directive == "model_seeds") {
      spec.model_seeds = reader.Count(one("<count>"));
    } else if (directive == "oracle_rate") {
      spec.oracle_rate = reader.Number(one("<fraction>"));
    } else if (directive == "share_cache") {
      spec.share_cache = reader.Flag(one("<0|1>"));
    } else if (directive == "cache_capacity") {
      spec.cache_capacity = reader.Count(one("<count>"));
    } else if (directive == "threshold") {
      spec.threshold = reader.Number(one("<t>"));
    } else if (directive == "window") {
      spec.window = reader.Count(one("<count>"));
    } else if (directive == "degrade") {
      spec.degrade = reader.Flag(one("<0|1>"));
    } else if (directive == "quarantine_cap") {
      spec.quarantine_cap = reader.Count(one("<count>"));
    } else if (directive == "quarantine_retries") {
      spec.quarantine_retries = reader.Count(one("<count>"));
    } else if (directive == "reschedule_budget") {
      spec.reschedule_budget = reader.Count(one("<count>"));
    } else if (directive == "poison_every") {
      spec.poison_every = reader.Count(one("<count>"));
    } else if (directive == "workload") {
      const auto workload = apps::ParseTenantWorkload(one("<name>"));
      if (!workload) {
        reader.Fail("unknown workload '" + tokens[1] + "'");
      }
      spec.workloads.push_back(*workload);
    } else if (directive == "policy") {
      spec.policies.push_back(one("<name>"));
    } else if (directive == "mode") {
      const auto mode = adaptive::ParseRescheduleMode(one("<name>"));
      if (!mode) {
        reader.Fail("unknown reschedule mode '" + tokens[1] + "'");
      }
      spec.modes.push_back(*mode);
    } else if (directive == "storm") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        reader.Fail("storm needs <name> <preset> [intensity]");
      }
      StormSpec storm;
      storm.name = tokens[1];
      storm.preset = tokens[2];
      if (tokens.size() == 4) storm.intensity = reader.Number(tokens[3]);
      if (util::Error err = storm.Validate(); !err.ok()) {
        reader.Fail(err.message());
      }
      spec.storms.push_back(std::move(storm));
    } else {
      reader.Fail("unknown directive '" + directive + "'");
    }
  }
  reader.Fail("missing 'end'");
}

}  // namespace

util::Expected<CampaignSpec> ParseCampaignFile(std::istream& is) {
  try {
    return ParseCampaignFileImpl(is);
  } catch (const InvalidArgument& e) {
    return util::Error::Invalid(e.what());
  }
}

void WriteCampaignFile(std::ostream& os, const CampaignSpec& spec) {
  os << "campaign v1\n";
  os << "seed " << spec.seed << "\n";
  os << "instances " << spec.instances << "\n";
  os << "shards " << spec.shards << "\n";
  os << "trace_instances " << spec.trace_instances << "\n";
  os << "model_seeds " << spec.model_seeds << "\n";
  os << "oracle_rate " << spec.oracle_rate << "\n";
  os << "share_cache " << (spec.share_cache ? 1 : 0) << "\n";
  os << "cache_capacity " << spec.cache_capacity << "\n";
  os << "threshold " << spec.threshold << "\n";
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
       << storm.intensity << "\n";
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
