#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "campaign/runner.h"
#include "check/validator.h"
#include "json.h"
#include "serve/server.h"
#include "sim/executor.h"

namespace perfbench {

namespace {

/// Set-ups timed per repetition; the median is reported.
constexpr std::size_t kSetupReps = 11;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Parses the spec file and constructs the runner kSetupReps times, as
/// a user's process would before its first execution. Returns the last
/// runner; \p setup_s receives the median set-up time.
template <typename Runner, typename Parse, typename Options>
std::unique_ptr<Runner> SetUp(const std::string& spec_path, Parse parse,
                              const Options& options, double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Runner> runner;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const double begin = NowSeconds();
    std::ifstream in(spec_path);
    if (!in) throw std::runtime_error("cannot read spec file " + spec_path);
    auto parsed = parse(in);
    if (!parsed.ok()) throw std::runtime_error(parsed.error().message());
    auto next = std::make_unique<Runner>(std::move(parsed).value(), options);
    times.push_back(NowSeconds() - begin);
    runner = std::move(next);
  }
  setup_s = Median(times);
  return runner;
}

std::string LatencyJson(const actg::report::LatencyStats& l) {
  JsonObject o;
  o.Int("samples", l.samples).Num("p50_ms", l.p50_ms).Num("p99_ms", l.p99_ms);
  return o.str();
}

/// The fields every workload reports.
struct Common {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t executions = 0;
  std::size_t misses = 0;
  double energy_mj = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t oracle_checked = 0;
  std::size_t oracle_failed = 0;
  actg::report::LatencyStats latency;
  /// The program's deterministic report.
  std::string report;

  JsonObject Json(const Workload& w) const {
    JsonObject o;
    o.Str("workload", w.name)
        .Str("why", w.why)
        .Str("loop", w.loop)
        .Num("setup_s", setup_s)
        .Int("setup_reps", kSetupReps)
        .Num("run_s", run_s)
        .Int("executions", executions)
        .Int("deadline_misses", misses)
        .Num("energy_mj", energy_mj)
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Int("oracle_checked", oracle_checked)
        .Int("oracle_failed", oracle_failed)
        .Raw("latency", LatencyJson(latency))
        .Num("peak_rss_mb", PeakRssMb())
        .Str("report_digest", Digest(report));
    return o;
  }
};

int RunCampaign(const Workload& w, const std::string& spec_path) {
  using namespace actg::campaign;
  Common c;
  CampaignOptions options;
  options.jobs = w.jobs;
  const std::unique_ptr<Campaign> campaign =
      SetUp<Campaign>(spec_path, ParseCampaignFile, options, c.setup_s);

  const double begin = NowSeconds();
  const CampaignResult& result = campaign->Run();
  c.run_s = NowSeconds() - begin;

  c.executions = result.fleet.instances;
  c.misses = result.fleet.deadline_misses;
  c.energy_mj = result.fleet.total_energy_mj;
  c.attempted = result.spec.instances;
  c.failed = result.quarantined;
  for (const ShardExecution& shard : result.shards) {
    c.oracle_checked += shard.oracle_validations;
    for (const QuarantineRecord& rec : shard.quarantine) {
      if (rec.reason == "oracle") ++c.oracle_failed;
    }
  }
  // Two views of the reschedule latency. On campaign-calm exact cache
  // hits (~5 us) are about 40 % of requests, so the median over every
  // request flips between the hit cluster and the compute cluster from
  // seed to seed (0.008 vs 0.12 ms measured); its end-to-end latency is
  // the requests that computed. RescheduleLatency() covers every
  // request, exact hits included.
  const actg::runtime::Metrics& metrics = campaign->metrics();
  const std::string compute = "reschedule.compute_latency_us";
  c.latency.samples = metrics.samples(compute);
  c.latency.p50_ms = metrics.quantile(compute, 0.5) / 1000.0;
  c.latency.p99_ms = metrics.quantile(compute, 0.99) / 1000.0;
  std::ostringstream report;
  result.Write(report);
  c.report = report.str();

  JsonObject o = c.Json(w);
  o.Raw("resched_all", LatencyJson(campaign->RescheduleLatency()));
  std::cout << o.str() << std::endl;
  return 0;
}

int RunServe(const Workload& w, const std::string& spec_path) {
  using namespace actg::serve;
  Common c;
  ServerOptions options;
  options.jobs = w.jobs;
  const std::unique_ptr<Server> server =
      SetUp<Server>(spec_path, ParseServeFile, options, c.setup_s);

  const double begin = NowSeconds();
  const FleetReport& report = server->Run();
  c.run_s = NowSeconds() - begin;

  for (const SlaReport& sla : report.sla) {
    c.executions += sla.instances;
    c.misses += sla.deadline_misses;
    c.energy_mj += sla.total_energy_mj;
  }
  c.attempted = report.tenants.size();
  c.failed = report.shed_tenants + report.quarantined_tenants;
  c.latency = server->Latency(SlaClass::kLatencyCritical);

  // Oracle sample, as the ServeFleet integration test does it: every
  // 16th finished tenant's final schedule, and its first and last
  // instance re-executed against it and re-verified.
  for (std::size_t i = 0; i < server->sessions().size(); i += 16) {
    const Session* session = server->sessions()[i].get();
    if (session == nullptr || session->state() != SessionState::kShutdown) {
      continue;
    }
    const actg::sched::Schedule& schedule =
        session->controller().current_schedule();
    for (const std::size_t index :
         {std::size_t{0}, session->request().instances - 1}) {
      ++c.oracle_checked;
      try {
        actg::check::Validate(schedule);
        const actg::sim::InstanceResult replay = actg::sim::ExecuteInstance(
            schedule, session->assignment(index));
        actg::check::ValidateInstance(schedule, session->assignment(index),
                                      replay);
      } catch (const std::exception& e) {
        ++c.oracle_failed;
        std::cerr << "oracle: tenant " << session->name() << " instance "
                  << index << ": " << e.what() << "\n";
      }
    }
  }

  std::ostringstream text;
  report.Write(text);
  c.report = text.str();

  JsonObject o = c.Json(w);
  JsonObject serve;
  serve.Int("rounds", report.rounds)
      .Int("deferred_rounds", report.deferred_rounds)
      .Raw("sla1", LatencyJson(server->Latency(SlaClass::kThroughput)))
      .Raw("sla2", LatencyJson(server->Latency(SlaClass::kBackground)));
  o.Raw("serve", serve.str());
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  // VmHWM belongs to this process image. ru_maxrss would not do: it
  // keeps the high-water mark of the parent image across fork + exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string Digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

int RunUntraced(const Workload& w, const std::string& spec_path) {
  if (w.kind == Kind::kCampaign) return RunCampaign(w, spec_path);
  return RunServe(w, spec_path);
}

int RunProbe() {
  // Integer and floating-point work with a loop-carried dependency, so
  // the compiler can neither vectorise nor fold it.
  const double begin = NowSeconds();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::sqrt(static_cast<double>(x >> 11));
  }
  const double ms = (NowSeconds() - begin) * 1e3;
  JsonObject o;
  o.Num("probe_ms", ms).Num("checksum", acc);
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace perfbench
