#include "serve/request.h"

#include <string_view>
#include <unordered_set>
#include <utility>

#include "dvfs/policy.h"
#include "util/line_reader.h"

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
  std::unordered_set<std::string_view> names;
  names.reserve(tenants.size());
  for (const TenantRequest& tenant : tenants) {
    if (util::Error err = tenant.Validate(); !err.ok()) return err;
    if (!names.insert(tenant.name).second) {
      return util::Error::Invalid("FleetRequest: duplicate tenant '" +
                                  tenant.name + "'");
    }
  }
  return {};
}

namespace {

SlaClass Sla(const util::LineReader& reader, const std::string& token) {
  const std::optional<SlaClass> sla = ParseSlaClass(token);
  if (!sla) reader.Fail("unknown SLA class '" + token + "'");
  return *sla;
}

TenantRequest ReadTenant(const util::LineReader& reader) {
  reader.Operands(4, util::LineReader::kAny,
                  "<name> <sla> <workload> <instances> [key=value...]");
  TenantRequest tenant;
  tenant.name = reader[1];
  tenant.sla = Sla(reader, reader[2]);
  const auto workload = apps::ParseTenantWorkload(reader[3]);
  if (!workload) reader.Fail("unknown workload '" + reader[3] + "'");
  tenant.workload = *workload;
  tenant.instances = reader.U64(reader[4]);
  for (const std::string& option : reader.tokens().subspan(5)) {
    const auto eq = option.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == option.size()) {
      reader.Fail("tenant option '" + option + "' is not key=value");
    }
    const std::string_view key = std::string_view(option).substr(0, eq);
    const std::string_view value = std::string_view(option).substr(eq + 1);
    if (key == "seed") {
      tenant.seed = reader.U64(value);
    } else if (key == "arrival") {
      tenant.arrival = reader.U64(value);
    } else if (key == "threshold") {
      tenant.threshold = reader.Number(value);
    } else if (key == "window") {
      tenant.window = reader.U64(value);
    } else if (key == "policy") {
      tenant.policy = value;
    } else {
      reader.Fail("unknown tenant option '" + option.substr(0, eq) + "'");
    }
  }
  return tenant;
}

FleetRequest ReadFleet(util::LineReader& reader) {
  reader.ExpectHeader("serve v1");
  FleetRequest fleet;
  ServeConfig& c = fleet.config;
  while (reader.NextBeforeEnd()) {
    const std::string& directive = reader.directive();
    if (directive == "seed") {
      c.seed = reader.U64(reader.Operand("<uint64>"));
    } else if (directive == "shards") {
      c.cache_shards = reader.U64(reader.Operand("<count>"));
    } else if (directive == "shard_capacity") {
      c.shard_capacity = reader.U64(reader.Operand("<count>"));
    } else if (directive == "share_cache") {
      c.share_cache = reader.Flag(reader.Operand("<0|1>"));
    } else if (directive == "batch") {
      c.batch = reader.U64(reader.Operand("<count>"));
    } else if (directive == "defer_depth") {
      c.defer_depth = reader.U64(reader.Operand("<count>"));
    } else if (directive == "shed_depth") {
      c.shed_depth = reader.U64(reader.Operand("<count>"));
    } else if (directive == "recover_rounds") {
      c.recover_rounds = reader.U64(reader.Operand("<count>"));
    } else if (directive == "budget") {
      reader.Operands(2, "<sla> <ms>");
      c.budget_ms[static_cast<std::size_t>(Sla(reader, reader[1]))] =
          reader.Number(reader[2]);
    } else if (directive == "validate") {
      c.validate = reader.Flag(reader.Operand("<0|1>"));
    } else if (directive == "tenant") {
      fleet.tenants.push_back(ReadTenant(reader));
    } else {
      reader.UnknownDirective();
    }
  }
  fleet.Validate().ThrowIfError();
  return fleet;
}

}  // namespace

util::Expected<FleetRequest> ParseServeFile(std::istream& is) {
  return util::ParseLines(is, "serve", ReadFleet);
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
         << util::FormatNumber(c.budget_ms[i]) << "\n";
    }
  }
  if (c.validate) os << "validate 1\n";
  for (const TenantRequest& t : fleet.tenants) {
    os << "tenant " << t.name << " " << SlaName(t.sla) << " "
       << apps::TenantWorkloadName(t.workload) << " " << t.instances;
    if (t.seed != 0) os << " seed=" << t.seed;
    if (t.arrival != 0) os << " arrival=" << t.arrival;
    os << " threshold=" << util::FormatNumber(t.threshold)
       << " window=" << t.window
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
