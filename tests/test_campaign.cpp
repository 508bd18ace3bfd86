/// \file test_campaign.cpp
/// The campaign runner's contract tests: the Moments merge laws
/// (bit-exact associativity/commutativity under fuzzed groupings), the
/// population report's shard-split invariance, the full report's
/// byte-identity across --jobs on the committed 1k-instance fleet, the
/// campaign-v1 parser (round-trip + the malformed corpus with pinned
/// diagnostics) and the per-shard oracle guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/accumulator.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "check/fuzz.h"
#include "check/validator.h"
#include "golden_file.h"
#include "runtime/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace actg::campaign {
namespace {

// ------------------------------------------------- Accumulator laws

std::vector<double> FuzzObservations(util::Random& rng, std::size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix magnitudes, signs and exact-binary values so quantization
    // sees every interesting shape.
    switch (rng.UniformInt(0, 3)) {
      case 0:
        xs.push_back(rng.Uniform(-1e6, 1e6));
        break;
      case 1:
        xs.push_back(rng.Uniform(-1.0, 1.0));
        break;
      case 2:
        xs.push_back(static_cast<double>(rng.UniformInt(-1000, 1000)));
        break;
      default:
        xs.push_back(rng.Uniform(0.0, 1e-3));
        break;
    }
  }
  return xs;
}

TEST(Moments, MergeIsBitExactlyAssociativeAndCommutative) {
  util::Random rng(2024);
  for (int round = 0; round < 50; ++round) {
    const std::vector<double> xs =
        FuzzObservations(rng, 1 + static_cast<std::size_t>(
                                      rng.UniformInt(0, 200)));

    // Reference: one accumulator folds everything in order.
    Moments all;
    for (double x : xs) all.Observe(x);

    // Random split into up to 8 parts, merged in a random order.
    const int parts = rng.UniformInt(1, 8);
    std::vector<Moments> shards(static_cast<std::size_t>(parts));
    for (double x : xs) {
      shards[static_cast<std::size_t>(rng.UniformInt(0, parts - 1))]
          .Observe(x);
    }
    const std::vector<std::size_t> order =
        rng.Permutation(shards.size());
    Moments merged;
    for (std::size_t idx : order) merged.Merge(shards[idx]);

    ASSERT_TRUE(merged == all) << "round " << round;
    EXPECT_EQ(merged.count(), xs.size());
    EXPECT_EQ(merged.mean(), all.mean());
    EXPECT_EQ(merged.variance(), all.variance());
    EXPECT_EQ(merged.sum(), all.sum());
  }
}

TEST(Moments, MergeGroupingDoesNotMatter) {
  util::Random rng(7);
  const std::vector<double> xs = FuzzObservations(rng, 100);
  Moments a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Observe(xs[i]);
  }
  // (a + b) + c vs a + (b + c).
  Moments left = a;
  left.Merge(b);
  left.Merge(c);
  Moments bc = b;
  bc.Merge(c);
  Moments right = a;
  right.Merge(bc);
  EXPECT_TRUE(left == right);
}

// ------------------------------------------------------ Spec parsing

TEST(CampaignSpecFile, SyntheticRoundTripsByteIdentically) {
  const CampaignSpec spec = SyntheticCampaign(1000, 7);
  std::ostringstream first;
  WriteCampaignFile(first, spec);
  std::istringstream in(first.str());
  const util::Expected<CampaignSpec> parsed = ParseCampaignFile(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  std::ostringstream second;
  WriteCampaignFile(second, parsed.value());
  EXPECT_EQ(first.str(), second.str());
}

TEST(CampaignSpecFile, MinimalFileGetsDefaults) {
  std::istringstream in("campaign v1\ninstances 8\nend\n");
  const util::Expected<CampaignSpec> parsed = ParseCampaignFile(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  const CampaignSpec& spec = parsed.value();
  EXPECT_EQ(spec.instances, 8u);
  EXPECT_EQ(spec.workloads.size(), 4u);
  EXPECT_EQ(spec.policies.size(), 1u);
  EXPECT_EQ(spec.modes.size(), 1u);
  EXPECT_EQ(spec.storms.size(), 1u);
  EXPECT_EQ(spec.CellCount(), 4u);
}

TEST(CampaignSpecFile, CommentsAndBlankLinesAreIgnored)
{
  std::istringstream in(
      "# leading comment\n"
      "campaign v1\n"
      "\n"
      "instances 5   # trailing comment\n"
      "end\n");
  const util::Expected<CampaignSpec> parsed = ParseCampaignFile(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().instances, 5u);
}

// A repeated value on any population axis would print two report rows
// with one label, so every axis rejects it with a pinned diagnostic.
TEST(CampaignSpec, DuplicateAxisValuesAreRejected) {
  const auto diagnostic = [](void (*mutate)(CampaignSpec&)) {
    CampaignSpec spec = SyntheticCampaign(10, 1);
    mutate(spec);
    return spec.Validate().message();
  };
  EXPECT_EQ(diagnostic([](CampaignSpec& s) {
              s.workloads.push_back(s.workloads.front());
            }),
            "CampaignSpec: duplicate workload 'mpeg'");
  EXPECT_EQ(diagnostic([](CampaignSpec& s) { s.policies = {"nlp", "nlp"}; }),
            "CampaignSpec: duplicate policy 'nlp'");
  EXPECT_EQ(diagnostic([](CampaignSpec& s) {
              s.modes.push_back(adaptive::RescheduleMode::kFull);
            }),
            "CampaignSpec: duplicate mode 'full'");
  EXPECT_EQ(diagnostic([](CampaignSpec& s) {
              s.storms.push_back(s.storms.back());
            }),
            "CampaignSpec: duplicate storm 'squall'");
}

TEST(CampaignSpec, ValidationCatchesBrokenKnobs) {
  {
    CampaignSpec spec = SyntheticCampaign(10, 1);
    spec.oracle_rate = 2.0;
    EXPECT_FALSE(spec.Validate().ok());
  }
  {
    CampaignSpec spec = SyntheticCampaign(10, 1);
    spec.shards = 0;
    EXPECT_FALSE(spec.Validate().ok());
  }
}

// Malformed corpus: every tests/corpus/campaign file must be rejected
// with the diagnostic pinned in its '# expect: <substring>' first line.
// Adding a regression is dropping a file in the directory.

struct CorpusCase {
  std::filesystem::path path;
  std::string expect;
  std::string contents;
};

std::vector<CorpusCase> LoadCorpus() {
  const std::filesystem::path dir =
      std::filesystem::path(ACTG_TEST_CORPUS_DIR) / "campaign";
  std::vector<CorpusCase> cases;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    CorpusCase c;
    c.path = entry.path();
    std::ifstream in(c.path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    c.contents = buffer.str();
    const std::string marker = "# expect: ";
    const std::size_t line_end = c.contents.find('\n');
    std::string first = c.contents.substr(
        0, line_end == std::string::npos ? c.contents.size() : line_end);
    if (first.rfind(marker, 0) == 0) c.expect = first.substr(marker.size());
    cases.push_back(std::move(c));
  }
  std::sort(cases.begin(), cases.end(),
            [](const CorpusCase& a, const CorpusCase& b) {
              return a.path.filename() < b.path.filename();
            });
  return cases;
}

TEST(CampaignMalformedCorpus, EveryFileIsRejectedWithItsPinnedDiagnostic) {
  const std::vector<CorpusCase> cases = LoadCorpus();
  ASSERT_GE(cases.size(), 10u) << "corpus went missing";
  for (const CorpusCase& c : cases) {
    SCOPED_TRACE(c.path.filename().string());
    ASSERT_FALSE(c.expect.empty())
        << "corpus file lacks a '# expect: <substring>' first line";
    std::istringstream in(c.contents);
    const util::Expected<CampaignSpec> parsed = ParseCampaignFile(in);
    ASSERT_FALSE(parsed.ok()) << "malformed input parsed successfully";
    EXPECT_NE(parsed.error().message().find(c.expect), std::string::npos)
        << "diagnostic was: " << parsed.error().message();
  }
}

// ----------------------------------------------------------- Runner

/// A population small enough to simulate several times per test but
/// spanning every axis kind: two workloads, both reschedule modes, a
/// calm and a faulted storm.
CampaignSpec SmallSpec(std::size_t instances = 24) {
  CampaignSpec spec;
  spec.seed = 11;
  // Per-instance cache keys: the shard-split invariance tests below
  // need every observation to be a pure function of (spec, i), which
  // cross-instance schedule sharing deliberately trades away.
  spec.share_cache = false;
  spec.instances = instances;
  spec.trace_instances = 2;
  spec.model_seeds = 2;
  spec.window = 2;
  spec.oracle_rate = 0.25;
  spec.degrade = true;
  spec.workloads = {apps::TenantWorkload::kMpeg,
                    apps::TenantWorkload::kCruise};
  spec.modes = {adaptive::RescheduleMode::kFull,
                adaptive::RescheduleMode::kIncremental};
  spec.storms = {StormSpec{"calm", "none", 1.0},
                 StormSpec{"squall", "mixed", 0.5}};
  spec.ApplyDefaults();
  return spec;
}

TEST(CampaignShardRange, PartitionsAreContiguousAndBalanced) {
  for (std::size_t instances : {0u, 1u, 7u, 24u, 1000u}) {
    for (std::size_t shards : {1u, 3u, 8u, 32u}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      std::size_t min_size = instances + 1, max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] =
            Campaign::ShardRange(instances, shards, s);
        EXPECT_EQ(begin, previous_end);
        EXPECT_LE(begin, end);
        previous_end = end;
        covered += end - begin;
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
      }
      EXPECT_EQ(previous_end, instances);
      EXPECT_EQ(covered, instances);
      EXPECT_LE(max_size - min_size, 1u)
          << instances << " over " << shards;
    }
  }
}

TEST(CampaignRunner, PopulationReportIsShardSplitInvariant) {
  std::vector<std::string> reports;
  for (std::size_t shards : {1u, 3u, 8u}) {
    CampaignSpec spec = SmallSpec();
    spec.shards = shards;
    Campaign run(spec);
    std::ostringstream os;
    run.Run().WritePopulation(os);
    reports.push_back(os.str());
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(CampaignRunner, FullReportIsJobsInvariant) {
  CampaignSpec spec = SmallSpec();
  spec.share_cache = true;  // jobs-invariance holds with sharing on
  spec.shards = 5;
  std::vector<std::string> reports;
  for (std::size_t jobs : {1u, 4u}) {
    CampaignOptions options;
    options.jobs = jobs;
    Campaign run(spec, options);
    std::ostringstream os;
    run.Run().Write(os);
    reports.push_back(os.str());
  }
  EXPECT_EQ(reports[0], reports[1]);
}

// Every layer's timer lands in the shard registries the campaign
// merges: the layer call counts are a function of the spec, not of the
// worker count, and match the report's tiers (one DLS and one stretch
// per computed reschedule, one "adaptive.reschedule" call per request).
TEST(CampaignRunner, LayerCallCountsAreJobsInvariantAndMatchTheTiers) {
  const CampaignSpec spec = SyntheticCampaign(160, 7);
  std::vector<std::map<std::string, std::uint64_t>> calls;
  for (std::size_t jobs : {1u, 4u}) {
    CampaignOptions options;
    options.jobs = jobs;
    Campaign run(spec, options);
    const CampaignResult& result = run.Run();
    ASSERT_EQ(result.quarantined, 0u);
    const runtime::Metrics& metrics = run.metrics();
    const std::uint64_t computed =
        result.tiers.full + result.tiers.warm_prior;
    ASSERT_GT(computed, 0u);
    EXPECT_EQ(metrics.counter("sched.dls.calls"), computed);
    EXPECT_EQ(metrics.counter("dvfs.stretch.calls"), computed);
    EXPECT_EQ(metrics.counter("adaptive.reschedule.calls"),
              result.tiers.total());
    EXPECT_GE(metrics.counter("dvfs.enumerate.calls"), 1u);
    EXPECT_LE(metrics.counter("dvfs.enumerate.calls"), computed);
    std::map<std::string, std::uint64_t> layer_calls;
    for (const char* layer : {"sched.dls", "dvfs.enumerate", "dvfs.stretch",
                              "adaptive.reschedule"}) {
      const std::string name = std::string(layer) + ".calls";
      layer_calls[name] = metrics.counter(name);
    }
    calls.push_back(std::move(layer_calls));
  }
  EXPECT_EQ(calls[0], calls[1]);
}

TEST(CampaignRunner, EveryNonEmptyShardRunsAnOracleValidation) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 7;
  spec.oracle_rate = 0.0;  // only the forced first-instance checks
  Campaign run(spec);
  const CampaignResult& result = run.Run();
  ASSERT_EQ(result.shards.size(), 7u);
  for (const ShardExecution& shard : result.shards) {
    if (shard.end == shard.begin) continue;
    EXPECT_GE(shard.oracle_validations, 1u);
  }
}

TEST(CampaignRunner, FleetIsTheSumOfTheCells) {
  Campaign run(SmallSpec());
  const CampaignResult& result = run.Run();
  report::FleetStats expected;
  for (const CellStats& cell : result.cells) {
    expected.Merge(cell.ToFleetStats());
  }
  EXPECT_EQ(result.fleet.instances, expected.instances);
  EXPECT_EQ(result.fleet.deadline_misses, expected.deadline_misses);
  EXPECT_EQ(result.fleet.reschedules, expected.reschedules);
  EXPECT_DOUBLE_EQ(result.fleet.total_energy_mj,
                   expected.total_energy_mj);
  EXPECT_DOUBLE_EQ(result.fleet.max_makespan_ms,
                   expected.max_makespan_ms);
  // Population covers every instance exactly once.
  std::size_t apps = 0;
  for (const CellStats& cell : result.cells) apps += cell.app_instances;
  EXPECT_EQ(apps, result.spec.instances);
}

TEST(CampaignRunner, CellStatsMergeMatchesUnifiedAccumulation) {
  // Running the same population as one shard or as five must produce
  // bit-identical per-cell state (the runner merges shard-local
  // CellStats; this pins the merge law end to end, not just for the
  // raw accumulators).
  CampaignSpec one = SmallSpec();
  one.shards = 1;
  CampaignSpec five = SmallSpec();
  five.shards = 5;
  Campaign a(one), b(five);
  const CampaignResult& ra = a.Run();
  const CampaignResult& rb = b.Run();
  ASSERT_EQ(ra.cells.size(), rb.cells.size());
  for (std::size_t i = 0; i < ra.cells.size(); ++i) {
    EXPECT_TRUE(ra.cells[i] == rb.cells[i]) << ra.keys[i].Label();
  }
}

TEST(CampaignRunner, RunIsValidOnce) {
  Campaign run(SmallSpec(8));
  run.Run();
  EXPECT_THROW(run.Run(), Error);
}

TEST(CampaignRunner, RejectsBrokenSpecUpFront) {
  CampaignSpec spec = SmallSpec();
  spec.instances = 0;
  EXPECT_THROW(Campaign{spec}, InvalidArgument);
}

TEST(CampaignRunner, RunCampaignFileParsesAndRuns) {
  std::ostringstream text;
  WriteCampaignFile(text, SmallSpec(8));
  std::istringstream in(text.str());
  std::ostringstream report;
  const auto run = RunCampaignFile(in, 2, report);
  ASSERT_TRUE(run.ok()) << run.error().message();
  EXPECT_NE(report.str().find("campaign report v2"), std::string::npos);
  EXPECT_NE(report.str().find("fleet instances 16"), std::string::npos);
}

TEST(CampaignRunner, RunCampaignFileReportsParseErrors) {
  std::istringstream in("campaign v1\ninstances nope\nend\n");
  std::ostringstream report;
  const auto run = RunCampaignFile(in, 1, report);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().message().find("expected a number"),
            std::string::npos);
  EXPECT_TRUE(report.str().empty());
}

// Report v2 drops the columns of the retired warm_cache and table
// tiers: every shard line and the fleet tiers line list exact,
// warm_prior, full and fallbacks only.
TEST(CampaignRunner, ReportDropsTheRetiredTierColumns) {
  Campaign run(SmallSpec());
  const CampaignResult& result = run.Run();
  EXPECT_GT(result.tiers.total(), 0u);
  std::ostringstream os;
  result.Write(os);
  const std::string fleet =
      "\ntiers exact " + std::to_string(result.tiers.exact) +
      " warm_prior " + std::to_string(result.tiers.warm_prior) + " full " +
      std::to_string(result.tiers.full) + " fallbacks " +
      std::to_string(result.tiers.incremental_fallbacks) + "\n";
  EXPECT_NE(os.str().find(fleet), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("warm_cache"), std::string::npos);
  EXPECT_EQ(os.str().find(" table "), std::string::npos);
  std::istringstream lines(os.str());
  std::size_t shard_lines = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("shard ", 0) != 0) continue;
    ASSERT_LT(shard_lines, result.shards.size()) << line;
    const ShardExecution& shard = result.shards[shard_lines];
    EXPECT_NE(line.find(" tiers exact " + std::to_string(shard.tiers.exact) +
                        " warm_prior " +
                        std::to_string(shard.tiers.warm_prior) + " full " +
                        std::to_string(shard.tiers.full) + " fallbacks " +
                        std::to_string(shard.tiers.incremental_fallbacks)),
              std::string::npos)
        << line;
    ++shard_lines;
  }
  EXPECT_EQ(shard_lines, result.shards.size());
}

// No reported quantile may sit above the sample it stands for: every
// cell's makespan p50 <= p99 <= max. A quantile pinned to a histogram
// range bound, or reported at a bin centre, breaks this.
TEST(CampaignRunner, MakespanQuantilesNeverExceedTheMax) {
  Campaign run(SyntheticCampaign(1600, 7));
  std::ostringstream os;
  run.Run().WritePopulation(os);
  std::istringstream lines(os.str());
  std::size_t checked = 0;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string name, mean, p50_key, p99_key, max_key;
    double mean_value = 0.0, p50 = 0.0, p99 = 0.0, max = 0.0;
    fields >> name;
    if (name != "makespan_ms") continue;
    fields >> mean >> mean_value >> p50_key >> p50 >> p99_key >> p99 >>
        max_key >> max;
    ASSERT_EQ(p50_key + p99_key + max_key, "p50p99max") << line;
    EXPECT_LE(p50, p99) << line;
    EXPECT_LE(p99, max) << line;
    ++checked;
  }
  EXPECT_EQ(checked, run.result().cells.size());
}

// The committed 1k-instance fleet: the golden --jobs byte-equality the
// CI smoke job also replays through the actg_campaign binary, and the
// report itself pinned byte for byte (tests/golden; ACTG_REGOLDEN=1
// regenerates it).
TEST(CampaignGolden, CommittedFleetReportIsJobsInvariant) {
  const std::filesystem::path path =
      std::filesystem::path(ACTG_TEST_DATA_DIR) /
      "campaign_fleet1k.campaign";
  std::vector<std::string> reports;
  for (std::size_t jobs : {1u, 8u}) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream report;
    const auto run = RunCampaignFile(in, jobs, report);
    ASSERT_TRUE(run.ok()) << run.error().message();
    reports.push_back(report.str());
  }
  EXPECT_EQ(reports[0], reports[1]);
  // The fleet really is the committed one.
  EXPECT_NE(reports[0].find("instances 1000 shards 8"),
            std::string::npos);
  actg::golden::ExpectMatches(reports[0], "campaign_fleet1k.report");
}

// ---------------------------------- Checkpoint / resume / quarantine

/// Fresh scratch directory for checkpoint/quarantine artifacts.
std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("actg_campaign_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string RunToReport(const CampaignSpec& spec,
                        CampaignOptions options = {}) {
  Campaign run(spec, options);
  std::ostringstream os;
  run.Run().Write(os);
  return os.str();
}

TEST(CampaignCheckpoint, FingerprintTracksEveryKnob) {
  EXPECT_EQ(FingerprintSpec(SmallSpec()), FingerprintSpec(SmallSpec()));
  CampaignSpec reseeded = SmallSpec();
  reseeded.seed += 1;
  EXPECT_NE(FingerprintSpec(SmallSpec()), FingerprintSpec(reseeded));
  // The new robustness knobs are part of the identity too.
  CampaignSpec quarantining = SmallSpec();
  quarantining.quarantine_cap = 4;
  EXPECT_NE(FingerprintSpec(SmallSpec()), FingerprintSpec(quarantining));
}

TEST(CampaignCheckpoint, SpecFingerprintIsPinned) {
  // A checkpoint binds to this value, so it must not move: checkpoints
  // written by earlier builds would stop resuming. The malformed corpus
  // substitutes @FP@ at test time and cannot catch a moved value.
  EXPECT_EQ(FingerprintSpec(SmallSpec()), 0x135472F593D13F85ULL);
}

TEST(CampaignCheckpoint, StoreLoadStoreIsByteIdentical) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 4;
  const std::filesystem::path dir = FreshDir("roundtrip");
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  Campaign run(spec, options);
  run.Run();
  std::ifstream in(dir / "campaign.ckpt", std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string stored = buffer.str();
  std::istringstream reload(stored);
  const util::Expected<CheckpointState> state =
      LoadCheckpoint(reload, spec);
  ASSERT_TRUE(state.ok()) << state.error().message();
  std::ostringstream restored;
  WriteCheckpoint(restored, spec, state.value().done,
                  state.value().outputs);
  EXPECT_EQ(stored, restored.str());
}

// Each shard's checkpoint-v2 'tiers' record holds four counters: exact,
// warm_prior, full and fallbacks. The retired warm_cache and table slots
// are gone.
TEST(CampaignCheckpoint, TiersRecordDropsTheRetiredSlots) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 4;
  const std::filesystem::path dir = FreshDir("tiers");
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  Campaign run(spec, options);
  const CampaignResult& result = run.Run();
  std::ifstream in(dir / "campaign.ckpt");
  ASSERT_TRUE(in);
  std::size_t records = 0;
  adaptive::TierCounts sum;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("tiers ", 0) != 0) continue;
    ++records;
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    ASSERT_EQ(tokens.size(), 5u) << line;
    sum.exact += std::stoull(tokens[1]);
    sum.warm_prior += std::stoull(tokens[2]);
    sum.full += std::stoull(tokens[3]);
    sum.incremental_fallbacks += std::stoull(tokens[4]);
  }
  EXPECT_EQ(records, spec.shards);
  EXPECT_EQ(sum.exact, result.tiers.exact);
  EXPECT_EQ(sum.warm_prior, result.tiers.warm_prior);
  EXPECT_EQ(sum.full, result.tiers.full);
  EXPECT_EQ(sum.incremental_fallbacks, result.tiers.incremental_fallbacks);
}

// A sparse histogram record (zero bucket, far-apart keys, exact min and
// max) survives store -> load -> store bit-identically.
TEST(CampaignCheckpoint, SparseHistogramRecordRoundTrips) {
  CampaignSpec spec = SmallSpec(6);
  spec.shards = 2;
  std::vector<ShardOutput> outputs(spec.shards);
  std::vector<char> done = {1, 0};
  ShardOutput& out = outputs[0];
  out.exec.begin = 0;
  out.exec.end = 3;
  out.cells.assign(spec.CellCount(), CellStats(spec));
  for (const double x : {0.0, 1e-3, 0.37, 26.19, 26.19, 645.45708, 1e6}) {
    out.cells[1].makespan_hist.Observe(x);
    out.cells[1].makespan.Observe(x);
  }
  out.cells[2].energy_hist.Observe(54.6875);

  std::ostringstream stored;
  WriteCheckpoint(stored, spec, done, outputs);
  EXPECT_NE(stored.str().find("\nh 0 412e848000000000 0 1 "),
            std::string::npos)
      << stored.str();
  std::istringstream reload(stored.str());
  const util::Expected<CheckpointState> state = LoadCheckpoint(reload, spec);
  ASSERT_TRUE(state.ok()) << state.error().message();
  EXPECT_EQ(state.value().done, done);
  EXPECT_TRUE(state.value().outputs[0].cells == out.cells);
  std::ostringstream restored;
  WriteCheckpoint(restored, spec, state.value().done,
                  state.value().outputs);
  EXPECT_EQ(stored.str(), restored.str());
}

TEST(CampaignCheckpoint, ResumeWithoutAFileIsAFreshStart) {
  const std::filesystem::path dir = FreshDir("fresh");
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  Campaign run(SmallSpec(8), options);
  EXPECT_EQ(run.Resume(), 0u);
  EXPECT_NO_THROW(run.Run());
}

// The tentpole contract: kill the campaign at a shard boundary (the
// deterministic SIGKILL stand-in), resume it in a fresh process-alike
// Campaign, and the final report is byte-identical to an uninterrupted
// run — at any kill point and any --jobs on either side.
TEST(CampaignCheckpoint, KillAndResumeIsByteIdenticalAtAnyKillPoint) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 5;
  const std::string uninterrupted = RunToReport(spec);
  for (const std::size_t jobs : {1u, 4u}) {
    for (const std::size_t kill_after : {1u, 2u, 4u}) {
      const std::filesystem::path dir =
          FreshDir("kill_" + std::to_string(jobs) + "_" +
                   std::to_string(kill_after));
      CampaignOptions options;
      options.jobs = jobs;
      options.checkpoint_dir = dir.string();
      options.stop_after_shards = kill_after;
      Campaign interrupted(spec, options);
      EXPECT_THROW(interrupted.Run(), Error);

      CampaignOptions resume_options;
      resume_options.jobs = jobs;
      resume_options.checkpoint_dir = dir.string();
      Campaign resumed(spec, resume_options);
      // Concurrent shards may land after the stop threshold, so the
      // checkpoint holds at least kill_after completed shards.
      EXPECT_GE(resumed.Resume(), kill_after);
      std::ostringstream os;
      resumed.Run().Write(os);
      EXPECT_EQ(os.str(), uninterrupted)
          << "jobs " << jobs << " kill_after " << kill_after;
    }
  }
}

TEST(CampaignCheckpoint, ResumingAFinishedCampaignRecomputesNothing) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 3;
  const std::filesystem::path dir = FreshDir("finished");
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  const std::string first = RunToReport(spec, options);
  Campaign resumed(spec, options);
  EXPECT_EQ(resumed.Resume(), spec.shards);
  std::ostringstream os;
  resumed.Run().Write(os);
  EXPECT_EQ(os.str(), first);
}

TEST(CampaignCheckpoint, MismatchedSpecIsRejectedByFingerprint) {
  CampaignSpec spec = SmallSpec(8);
  const std::filesystem::path dir = FreshDir("mismatch");
  CampaignOptions options;
  options.checkpoint_dir = dir.string();
  Campaign run(spec, options);
  run.Run();
  CampaignSpec other = SmallSpec(8);
  other.seed += 1;
  Campaign resumed(other, options);
  try {
    resumed.Resume();
    FAIL() << "expected the fingerprint gate to fire";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

// Malformed-checkpoint corpus: every tests/corpus/checkpoint file is
// rejected with the diagnostic pinned in its '# expect:' first line.
// '@FP@' / '@SHAPE@' placeholders are substituted with the corpus
// spec's real fingerprint and shape line, so files can pin errors that
// sit behind those gates.
TEST(CheckpointMalformedCorpus, EveryFileIsRejectedWithItsDiagnostic) {
  const CampaignSpec spec = SmallSpec();
  std::ostringstream fp;
  fp << std::hex << FingerprintSpec(spec);
  std::ostringstream shape;
  shape << "shards " << spec.shards << " instances " << spec.instances
        << " cells " << spec.CellCount();
  const std::filesystem::path dir =
      std::filesystem::path(ACTG_TEST_CORPUS_DIR) / "checkpoint";
  std::size_t cases = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string contents = buffer.str();
    const std::string marker = "# expect: ";
    ASSERT_EQ(contents.rfind(marker, 0), 0u)
        << "corpus file lacks a '# expect: <substring>' first line";
    const std::string expect =
        contents.substr(marker.size(),
                        contents.find('\n') - marker.size());
    for (const auto& [from, to] :
         {std::pair<std::string, std::string>{"@FP@", fp.str()},
          {"@SHAPE@", shape.str()}}) {
      for (std::size_t at = contents.find(from);
           at != std::string::npos; at = contents.find(from)) {
        contents.replace(at, from.size(), to);
      }
    }
    std::istringstream is(contents);
    const util::Expected<CheckpointState> state =
        LoadCheckpoint(is, spec);
    ASSERT_FALSE(state.ok()) << "malformed checkpoint parsed";
    EXPECT_NE(state.error().message().find(expect), std::string::npos)
        << "diagnostic was: " << state.error().message();
    EXPECT_NE(state.error().message().find("checkpoint line"),
              std::string::npos);
    ++cases;
  }
  EXPECT_GE(cases, 8u) << "corpus went missing";
}

CampaignSpec PoisonSpec(std::size_t instances = 24) {
  CampaignSpec spec = SmallSpec(instances);
  spec.poison_every = 5;  // instances 4, 9, 14, ... are poison
  spec.quarantine_cap = instances;
  spec.quarantine_retries = 1;
  return spec;
}

TEST(CampaignQuarantine, PoisonInstancesAreQuarantinedNotFatal) {
  CampaignSpec spec = PoisonSpec();
  spec.shards = 4;
  Campaign run(spec);
  const CampaignResult& result = run.Run();
  EXPECT_EQ(result.quarantined, 24u / 5u);
  // Healthy instances still landed in the population.
  EXPECT_EQ(result.fleet.instances,
            (24u - 24u / 5u) * spec.trace_instances);
  std::ostringstream os;
  result.Write(os);
  EXPECT_NE(os.str().find("quarantine cap 24 records 4"),
            std::string::npos);
  EXPECT_NE(os.str().find("reason poison"), std::string::npos);
  // Transient classes retried: 1 initial + quarantine_retries attempts.
  EXPECT_NE(os.str().find("attempts 2"), std::string::npos);
}

TEST(CampaignQuarantine, ReportIsJobsInvariantWithQuarantine) {
  CampaignSpec spec = PoisonSpec();
  spec.shards = 5;
  std::vector<std::string> reports;
  for (const std::size_t jobs : {1u, 8u}) {
    CampaignOptions options;
    options.jobs = jobs;
    reports.push_back(RunToReport(spec, options));
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(CampaignQuarantine, SectionIsAbsentWithoutOptIn) {
  EXPECT_EQ(RunToReport(SmallSpec(8)).find("quarantine"),
            std::string::npos);
}

TEST(CampaignQuarantine, CapZeroKeepsTheLegacyAbort) {
  CampaignSpec spec = SmallSpec(8);
  spec.poison_every = 3;  // quarantine_cap stays 0: abort semantics
  Campaign run(spec);
  try {
    run.Run();
    FAIL() << "expected the poison to abort the campaign";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected campaign poison"),
              std::string::npos)
        << e.what();
  }
}

TEST(CampaignQuarantine, ExceedingTheCapFailsLoudly) {
  CampaignSpec spec = SmallSpec(8);
  spec.shards = 1;
  spec.poison_every = 1;  // every instance is poison
  spec.quarantine_cap = 2;
  spec.quarantine_retries = 0;
  Campaign run(spec);
  try {
    run.Run();
    FAIL() << "expected the cap to fire";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(
        std::string(e.what()).find("quarantine cap exceeded (cap 2)"),
        std::string::npos)
        << e.what();
  }
}

TEST(CampaignQuarantine, RescheduleBudgetQuarantinesWedgedInstances) {
  // Baseline: establish that some controller reschedules more than
  // once (pigeonhole: total > app instances), so a budget of 1 must
  // quarantine at least one instance as overbudget.
  CampaignSpec spec = SmallSpec();
  spec.trace_instances = 8;
  spec.threshold = 0.01;
  Campaign baseline(spec);
  ASSERT_GT(baseline.Run().fleet.reschedules, spec.instances)
      << "baseline spec no longer reschedule-heavy; retune the test";

  CampaignSpec budgeted = spec;
  budgeted.reschedule_budget = 1;
  budgeted.quarantine_cap = budgeted.instances;
  Campaign run(budgeted);
  const CampaignResult& result = run.Run();
  EXPECT_GT(result.quarantined, 0u);
  std::ostringstream os;
  result.Write(os);
  EXPECT_NE(os.str().find("reason overbudget"), std::string::npos);
  EXPECT_NE(os.str().find("reschedule budget exceeded"),
            std::string::npos);
}

TEST(CampaignQuarantine, EmittedReproReplaysThroughTheFuzzHarness) {
  CampaignSpec spec = PoisonSpec(10);  // poison: instances 4 and 9
  spec.shards = 2;
  const std::filesystem::path dir = FreshDir("repro");
  CampaignOptions options;
  options.quarantine_dir = dir.string();
  Campaign run(spec, options);
  EXPECT_EQ(run.Run().quarantined, 2u);

  const std::filesystem::path repro =
      dir / ("quarantine-" + std::to_string(spec.seed) + "-4.fuzzcase");
  ASSERT_TRUE(std::filesystem::exists(repro)) << repro;
  std::ifstream in(repro);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("seed 11 index 4"), std::string::npos)
      << header;
  while (in.peek() == '#') std::getline(in, header);
  const util::Expected<check::FuzzCase> replayed = check::ParseRepro(in);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message();
  // The instance was poisoned, not genuinely broken: the replay runs
  // the full validator pipeline clean (actg_fuzz --replay exits 0).
  EXPECT_TRUE(check::RunCase(replayed.value()).ok());
}

// --------------------------------------------- Metrics::MergeFrom

TEST(MetricsMerge, CountersTimersAndObservationsFold) {
  runtime::Metrics a, b;
  a.Increment("x", 2);
  b.Increment("x", 3);
  b.Increment("y", 1);
  a.RecordCall("t", 1000000);
  b.RecordCall("t", 2000000);
  a.Observe("lat", 1.0);
  b.Observe("lat", 3.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.counter("x"), 5u);
  EXPECT_EQ(a.counter("y"), 1u);
  EXPECT_DOUBLE_EQ(a.timer_ms("t"), 3.0);
  EXPECT_EQ(a.counter("t.calls"), 2u);
  EXPECT_DOUBLE_EQ(a.quantile("lat", 1.0), 3.0);
}

TEST(MetricsMerge, SelfMergeIsRejected) {
  runtime::Metrics a;
  EXPECT_THROW(a.MergeFrom(a), Error);
}

}  // namespace
}  // namespace actg::campaign
