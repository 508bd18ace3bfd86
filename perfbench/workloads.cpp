#include "workloads.h"

#include <stdexcept>

#include "campaign/spec.h"
#include "serve/request.h"

namespace perfbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"campaign-calm", Kind::kCampaign, "calm", 2, 2000, 600, 0, 0, 0, 0,
       "healthy path: exact cache hits, tiered reschedules and simulation "
       "with no faults, so a path-explosion fix should not move it",
       "closed loop, 2 pool workers over 8 shards, no arrivals"},
      {"campaign-squall", Kind::kCampaign, "squall", 1, 1000, 48, 0, 0, 0,
       0,
       "degraded fallback: mixed faults force cache-bypassing reschedules "
       "that enumerate paths on the surviving PEs",
       "closed loop, serial (1 worker) over 8 shards, no arrivals"},
      {"serve-fleet", Kind::kServe, "", 2, 0, 0, 512, 96, 128, 128,
       "many live controllers with per-tenant models and cache keys; "
       "admission defers and sheds SLA2 tenants",
       "closed loop, 2 pool workers, tenants arrive 4 per logical round"},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void WriteSpec(std::ostream& os, const Workload& w, std::uint64_t seed,
               Size size) {
  const bool tiny = size == Size::kTiny;
  if (w.kind == Kind::kCampaign) {
    const std::size_t n = tiny ? w.tiny_population : w.population;
    actg::campaign::CampaignSpec spec =
        actg::campaign::SyntheticCampaign(n, seed);
    std::vector<actg::campaign::StormSpec> storms;
    for (const actg::campaign::StormSpec& storm : spec.storms) {
      if (storm.name == w.storm) storms.push_back(storm);
    }
    if (storms.size() != 1) {
      throw std::runtime_error("synthetic campaign has no storm " +
                               std::string(w.storm));
    }
    spec.storms = storms;
    // A cap equal to the population turns any failing instance into a
    // counted failure instead of an aborted run.
    spec.quarantine_cap = n;
    actg::campaign::WriteCampaignFile(os, spec);
    return;
  }
  actg::serve::WriteServeFile(
      os, actg::serve::SyntheticFleet(tiny ? w.tiny_tenants : w.tenants,
                                      tiny ? w.tiny_instances : w.instances,
                                      seed));
}

}  // namespace perfbench
