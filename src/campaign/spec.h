/// \file spec.h
/// The campaign-v1 file format: a declarative description of one
/// Monte-Carlo fleet campaign.
///
/// A campaign simulates a large population of independent application
/// instances. The population is the cross product of four axes —
/// workload families x stretch policies x reschedule modes x fault
/// storms — cycled over `instances` application instances; instance i
/// belongs to cell (i mod cells) and draws everything else (model
/// structure, trace, fault seeds, oracle sampling) from the
/// util::Random::Fork substream of the root seed with stream id i, so
/// every per-instance result is a pure function of (spec, i),
/// independent of shard boundaries and worker count.
///
/// The format follows the shared line grammar of util/line_reader.h
/// ('#' comments, blank lines ignored, exact integers), parses into
/// util::Expected with "campaign line N: ..." diagnostics, and every
/// parsed object Validates() up front.

#ifndef ACTG_CAMPAIGN_SPEC_H
#define ACTG_CAMPAIGN_SPEC_H

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "adaptive/rescheduler.h"
#include "apps/tenants.h"
#include "faults/plan.h"
#include "util/error.h"

namespace actg::campaign {

/// One fleet-wide failure storm: a named fault-plan preset scaled by an
/// intensity. Presets keep the campaign file one line per storm while
/// still exercising every injector channel:
///   none     nothing ever fires (the control cell)
///   overrun  30% per-task WCET overruns of 1.2-2.0x
///   dropout  5% per-instance transient PE dropouts (2 instances,
///            2x re-run penalty)
///   link     10% link-degradation windows (bandwidth halved,
///            2 instances)
///   drift    branch-profile drift ramping to 30% flips
///   mixed    all of the above at once
/// `intensity` scales every event probability (FaultPlan::intensity).
struct StormSpec {
  std::string name;
  std::string preset = "none";
  double intensity = 1.0;

  /// The preset's FaultPlan at this intensity (plan.seed stays 0: the
  /// runner seeds injectors per instance substream).
  faults::FaultPlan Plan() const;

  /// Ok when the name is non-empty, the preset is known and the
  /// resulting plan validates.
  util::Error Validate() const;
};

/// Known storm preset names, in file order ("none overrun dropout link
/// drift mixed").
const std::vector<std::string>& StormPresets();

/// A parsed campaign-v1 file.
struct CampaignSpec {
  /// Root of every per-instance Random::Fork substream.
  std::uint64_t seed = 1;
  /// Application instances in the population. Required > 0.
  std::size_t instances = 0;
  /// Independent controller shards the population is partitioned into
  /// (contiguous balanced ranges). Memory stays O(shards x cells x
  /// distinct histogram buckets), independent of the population size;
  /// the report is invariant to the shard count except for the
  /// execution section (cache locality and the per-shard forced oracle
  /// check are functions of the sharding).
  std::size_t shards = 8;
  /// CTG instances each application instance executes through its
  /// adaptive controller.
  std::size_t trace_instances = 4;
  /// Distinct model-structure seeds per workload family. Instances
  /// cycle through them, so model construction memoizes and — with
  /// share_cache — schedule-cache entries are shared across instances.
  std::size_t model_seeds = 4;
  /// Fraction of instances whose schedules and executed results are
  /// re-verified by the check:: oracle, in [0, 1]. Independent of
  /// sharding (drawn from the instance substream); the runner
  /// additionally forces the first instance of every shard.
  double oracle_rate = 0.01;
  /// Cross-instance schedule-cache sharing within a shard: when true
  /// (default) all instances key the shard cache with tenant 0, so
  /// instances with identical model/config fingerprints hit each
  /// other's entries; when false the key space is partitioned per
  /// instance (the measured-sharing control).
  bool share_cache = true;
  /// Per-shard schedule-cache capacity.
  std::size_t cache_capacity = 64;
  /// Adaptive-controller knobs shared by every cell.
  double threshold = 0.1;
  std::size_t window = 20;
  /// Engage the graceful-degradation ladder (storm cells usually want
  /// this on).
  bool degrade = false;
  /// Poison-instance quarantine. 0 (default) disables it entirely: any
  /// instance failure aborts the campaign, and the report carries no
  /// quarantine section — legacy campaigns stay byte-identical. A
  /// positive cap tolerates up to that many quarantined instances
  /// fleet-wide; exceeding it fails the campaign loudly.
  std::size_t quarantine_cap = 0;
  /// Retries (beyond the first attempt) for transiently-classified
  /// failures (allocation pressure, injected poison) before the
  /// instance is quarantined.
  std::size_t quarantine_retries = 2;
  /// Compute budget: an instance whose controller exceeds this many
  /// reschedules is classified overbudget and quarantined (0 = no
  /// budget, never fires).
  std::size_t reschedule_budget = 0;
  /// Test hook: every poison_every-th population instance (1-based by
  /// population index: i+1 divisible by poison_every) throws at
  /// instance start, exercising the quarantine ladder deterministically
  /// (0 = never).
  std::size_t poison_every = 0;
  /// The population axes. Empty axes are filled by ApplyDefaults()
  /// (all four workloads, the online policy, the full reschedule mode,
  /// one "calm" none-storm); Validate() requires them non-empty.
  std::vector<apps::TenantWorkload> workloads;
  std::vector<std::string> policies;
  std::vector<adaptive::RescheduleMode> modes;
  std::vector<StormSpec> storms;

  /// Population cells (the axis cross product).
  std::size_t CellCount() const {
    return workloads.size() * policies.size() * modes.size() *
           storms.size();
  }

  /// Fills every empty axis with its default.
  void ApplyDefaults();

  /// Ok when the campaign is runnable: instances, shards,
  /// trace_instances, model_seeds, cache_capacity and window positive,
  /// oracle_rate in [0, 1], threshold in (0, 1], every axis non-empty,
  /// policies known, storm names unique and every storm valid.
  util::Error Validate() const;
};

/// Parses the line-oriented campaign-v1 format:
///
///   campaign v1
///   seed <uint64>              # optional, default 1
///   instances <n>              # required
///   shards <n>                 # optional, default 8
///   trace_instances <n>        # optional, default 4
///   model_seeds <n>            # optional, default 4
///   oracle_rate <p>            # optional, default 0.01
///   share_cache <0|1>          # optional, default 1
///   cache_capacity <n>         # optional, default 64
///   threshold <t>              # optional, default 0.1
///   window <n>                 # optional, default 20
///   degrade <0|1>              # optional, default 0
///   quarantine_cap <n>         # optional, default 0 (disabled)
///   quarantine_retries <n>     # optional, default 2
///   reschedule_budget <n>      # optional, default 0 (unlimited)
///   poison_every <n>           # optional, default 0 (test hook)
///   workload <mpeg|cruise|random1|random2>   # repeated axis
///   policy <name>                            # repeated axis
///   mode <full|incremental>                  # repeated axis
///   storm <name> <preset> [intensity]        # repeated axis
///   end
///
/// Unlisted axes default as in ApplyDefaults(). The seed and counts are
/// exact unsigned integers, flags 0 or 1. Malformed input is reported
/// as a util::Error with a "campaign line N: ..." diagnostic.
util::Expected<CampaignSpec> ParseCampaignFile(std::istream& is);

/// Serializes \p spec in the ParseCampaignFile format; it reads back to
/// the same spec, doubles bit for bit (util::FormatNumber).
void WriteCampaignFile(std::ostream& os, const CampaignSpec& spec);

/// Deterministic synthetic campaign used by bench_campaign and the
/// determinism tests: all four workloads, online policy, full +
/// incremental reschedule modes, a calm and a mixed storm, degrade on.
CampaignSpec SyntheticCampaign(std::size_t instances, std::uint64_t seed);

}  // namespace actg::campaign

#endif  // ACTG_CAMPAIGN_SPEC_H
