#include "serve/request.h"

#include <sstream>
#include <utility>

#include "dvfs/policy.h"

namespace actg::serve {

util::Error TenantRequest::Validate() const {
  if (name.empty()) {
    return util::Error::Invalid("TenantRequest: name must be non-empty");
  }
  if (instances == 0) {
    return util::Error::Invalid("TenantRequest '" + name +
                                "': instances must be > 0");
  }
  if (!(threshold > 0.0) || threshold > 1.0) {
    return util::Error::Invalid("TenantRequest '" + name +
                                "': threshold must lie in (0, 1]");
  }
  if (window == 0) {
    return util::Error::Invalid("TenantRequest '" + name +
                                "': window must be > 0");
  }
  if (dvfs::FindPolicy(policy) == nullptr) {
    return util::Error::Invalid("TenantRequest '" + name +
                                "': unknown policy '" + policy + "'");
  }
  return {};
}

util::Error ServeConfig::Validate() const {
  if (cache_shards == 0) {
    return util::Error::Invalid("ServeConfig: shards must be > 0");
  }
  if (batch == 0) {
    return util::Error::Invalid("ServeConfig: batch must be > 0");
  }
  if (defer_depth == 0 || shed_depth == 0) {
    return util::Error::Invalid(
        "ServeConfig: defer_depth and shed_depth must be > 0");
  }
  if (defer_depth > shed_depth) {
    return util::Error::Invalid(
        "ServeConfig: defer_depth must be <= shed_depth");
  }
  if (recover_rounds == 0) {
    return util::Error::Invalid("ServeConfig: recover_rounds must be > 0");
  }
  for (double budget : budget_ms) {
    if (!(budget >= 0.0)) {
      return util::Error::Invalid("ServeConfig: budgets must be >= 0");
    }
  }
  return {};
}

util::Error FleetRequest::Validate() const {
  if (util::Error err = config.Validate(); !err.ok()) return err;
  if (tenants.empty()) {
    return util::Error::Invalid("FleetRequest: at least one tenant");
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (util::Error err = tenants[i].Validate(); !err.ok()) return err;
    for (std::size_t j = 0; j < i; ++j) {
      if (tenants[j].name == tenants[i].name) {
        return util::Error::Invalid("FleetRequest: duplicate tenant '" +
                                    tenants[i].name + "'");
      }
    }
  }
  return {};
}

namespace {

/// Line-oriented reader mirroring faults/plan.cpp: '#' starts a
/// comment, blank lines are skipped, failures carry the line number.
struct ServeReader {
  std::istream& is;
  int line_number = 0;

  [[noreturn]] void Fail(const std::string& message) const {
    throw InvalidArgument("serve line " + std::to_string(line_number) +
                          ": " + message);
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

  SlaClass Sla(const std::string& token) const {
    const std::optional<SlaClass> sla = ParseSlaClass(token);
    if (!sla) Fail("unknown SLA class '" + token + "'");
    return *sla;
  }
};

TenantRequest ParseTenantLine(const ServeReader& reader,
                              const std::vector<std::string>& tokens) {
  if (tokens.size() < 5) {
    reader.Fail(
        "tenant needs <name> <sla> <workload> <instances> [key=value...]");
  }
  TenantRequest tenant;
  tenant.name = tokens[1];
  tenant.sla = reader.Sla(tokens[2]);
  const auto workload = apps::ParseTenantWorkload(tokens[3]);
  if (!workload) reader.Fail("unknown workload '" + tokens[3] + "'");
  tenant.workload = *workload;
  tenant.instances = reader.Count(tokens[4]);
  for (std::size_t i = 5; i < tokens.size(); ++i) {
    const std::string& option = tokens[i];
    const auto eq = option.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == option.size()) {
      reader.Fail("tenant option '" + option + "' is not key=value");
    }
    const std::string key = option.substr(0, eq);
    const std::string value = option.substr(eq + 1);
    if (key == "seed") {
      tenant.seed = static_cast<std::uint64_t>(reader.Count(value));
    } else if (key == "arrival") {
      tenant.arrival = reader.Count(value);
    } else if (key == "threshold") {
      tenant.threshold = reader.Number(value);
    } else if (key == "window") {
      tenant.window = reader.Count(value);
    } else if (key == "policy") {
      tenant.policy = value;
    } else {
      reader.Fail("unknown tenant option '" + key + "'");
    }
  }
  return tenant;
}

FleetRequest ParseServeFileImpl(std::istream& is) {
  ServeReader reader{is};
  std::vector<std::string> tokens;
  if (!reader.NextTokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "serve" || tokens[1] != "v1") {
    reader.Fail("expected header 'serve v1'");
  }
  FleetRequest fleet;
  while (reader.NextTokens(tokens)) {
    const std::string& directive = tokens[0];
    if (directive == "end") {
      fleet.Validate().ThrowIfError();
      return fleet;
    }
    if (directive == "seed") {
      if (tokens.size() != 2) reader.Fail("seed needs <uint64>");
      fleet.config.seed = static_cast<std::uint64_t>(reader.Count(tokens[1]));
    } else if (directive == "shards") {
      if (tokens.size() != 2) reader.Fail("shards needs <count>");
      fleet.config.cache_shards = reader.Count(tokens[1]);
    } else if (directive == "shard_capacity") {
      if (tokens.size() != 2) reader.Fail("shard_capacity needs <count>");
      fleet.config.shard_capacity = reader.Count(tokens[1]);
    } else if (directive == "share_cache") {
      if (tokens.size() != 2) reader.Fail("share_cache needs <0|1>");
      const std::size_t flag = reader.Count(tokens[1]);
      if (flag > 1) reader.Fail("share_cache needs <0|1>");
      fleet.config.share_cache = flag == 1;
    } else if (directive == "batch") {
      if (tokens.size() != 2) reader.Fail("batch needs <count>");
      fleet.config.batch = reader.Count(tokens[1]);
    } else if (directive == "defer_depth") {
      if (tokens.size() != 2) reader.Fail("defer_depth needs <count>");
      fleet.config.defer_depth = reader.Count(tokens[1]);
    } else if (directive == "shed_depth") {
      if (tokens.size() != 2) reader.Fail("shed_depth needs <count>");
      fleet.config.shed_depth = reader.Count(tokens[1]);
    } else if (directive == "recover_rounds") {
      if (tokens.size() != 2) reader.Fail("recover_rounds needs <count>");
      fleet.config.recover_rounds = reader.Count(tokens[1]);
    } else if (directive == "budget") {
      if (tokens.size() != 3) reader.Fail("budget needs <sla> <ms>");
      const SlaClass sla = reader.Sla(tokens[1]);
      fleet.config.budget_ms[static_cast<std::size_t>(sla)] =
          reader.Number(tokens[2]);
    } else if (directive == "validate") {
      if (tokens.size() != 2) reader.Fail("validate needs <0|1>");
      const std::size_t flag = reader.Count(tokens[1]);
      if (flag > 1) reader.Fail("validate needs <0|1>");
      fleet.config.validate = flag == 1;
    } else if (directive == "tenant") {
      fleet.tenants.push_back(ParseTenantLine(reader, tokens));
    } else {
      reader.Fail("unknown directive '" + directive + "'");
    }
  }
  reader.Fail("missing 'end'");
}

}  // namespace

util::Expected<FleetRequest> ParseServeFile(std::istream& is) {
  try {
    return ParseServeFileImpl(is);
  } catch (const InvalidArgument& e) {
    return util::Error::Invalid(e.what());
  }
}

void WriteServeFile(std::ostream& os, const FleetRequest& fleet) {
  const ServeConfig& c = fleet.config;
  os << "serve v1\n";
  os << "seed " << c.seed << "\n";
  os << "shards " << c.cache_shards << "\n";
  os << "shard_capacity " << c.shard_capacity << "\n";
  os << "share_cache " << (c.share_cache ? 1 : 0) << "\n";
  os << "batch " << c.batch << "\n";
  os << "defer_depth " << c.defer_depth << "\n";
  os << "shed_depth " << c.shed_depth << "\n";
  os << "recover_rounds " << c.recover_rounds << "\n";
  for (std::size_t i = 0; i < kSlaClassCount; ++i) {
    if (c.budget_ms[i] > 0.0) {
      os << "budget " << SlaName(static_cast<SlaClass>(i)) << " "
         << c.budget_ms[i] << "\n";
    }
  }
  if (c.validate) os << "validate 1\n";
  for (const TenantRequest& t : fleet.tenants) {
    os << "tenant " << t.name << " " << SlaName(t.sla) << " "
       << apps::TenantWorkloadName(t.workload) << " " << t.instances;
    if (t.seed != 0) os << " seed=" << t.seed;
    if (t.arrival != 0) os << " arrival=" << t.arrival;
    os << " threshold=" << t.threshold << " window=" << t.window
       << " policy=" << t.policy;
    os << "\n";
  }
  os << "end\n";
}

FleetRequest SyntheticFleet(std::size_t tenants, std::size_t instances,
                            std::uint64_t seed) {
  constexpr apps::TenantWorkload kWorkloads[] = {
      apps::TenantWorkload::kMpeg, apps::TenantWorkload::kCruise,
      apps::TenantWorkload::kRandomForkJoin,
      apps::TenantWorkload::kRandomFlat};
  FleetRequest fleet;
  fleet.config.seed = seed;
  for (std::size_t i = 0; i < tenants; ++i) {
    TenantRequest tenant;
    // Appended: GCC 12.2 flags `"t" + std::to_string(i)` with a false
    // -Wrestrict.
    tenant.name = "t";
    tenant.name += std::to_string(i);
    // Cycle SLA classes 0,1,2,1 so the fleet is half throughput, one
    // quarter latency-critical and one quarter sheddable background.
    constexpr SlaClass kSlas[] = {
        SlaClass::kLatencyCritical, SlaClass::kThroughput,
        SlaClass::kBackground, SlaClass::kThroughput};
    tenant.sla = kSlas[i % 4];
    tenant.workload = kWorkloads[(i / 4) % 4];
    tenant.instances = instances;
    tenant.seed = seed + i;
    tenant.arrival = i / 4;
    fleet.tenants.push_back(std::move(tenant));
  }
  return fleet;
}

}  // namespace actg::serve
