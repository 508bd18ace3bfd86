#include "replay.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/tenants.h"
#include "campaign/runner.h"
#include "check/validator.h"
#include "dvfs/path_engine.h"
#include "dvfs/policy.h"
#include "faults/injector.h"
#include "json.h"
#include "measure.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "sched/dls.h"
#include "serve/server.h"
#include "sim/executor.h"
#include "spans.h"

namespace perfbench {

namespace {

namespace ad = actg::adaptive;
namespace cp = actg::campaign;
namespace sv = actg::serve;

/// One reschedule a controller performed, as seen from outside it: the
/// tier counts, degrade_log() and in_use_probabilities() after the call
/// that triggered it, plus the PE mask the injected faults imply.
struct Event {
  const actg::apps::TenantModel* model = nullptr;
  actg::ctg::BranchProbabilities probs;
  actg::arch::PeMask mask;
  double speed_floor = 0.0;
  bool degraded = false;
  ad::RescheduleTier tier = ad::RescheduleTier::kFull;
  std::uint64_t instance = 0;
  /// Cache key parts of the issuing controller.
  std::uint64_t tenant = 0;
  std::string policy;
  std::uint64_t graph_fp = 0;
  std::uint64_t platform_fp = 0;
  std::uint64_t config_fp = 0;
  /// A full recompute the controller adopted: the re-issue must
  /// reproduce \ref adopted.
  bool verify = false;
  std::uint64_t adopted = 0;
};

/// Mismatches between the replay and the untraced run; the first few
/// are kept verbatim.
struct Mismatches {
  std::size_t count = 0;
  std::vector<std::string> first;
  void Add(const std::string& what) {
    ++count;
    if (first.size() < 10) first.push_back(what);
  }
  void Merge(const Mismatches& other) {
    for (const std::string& what : other.first) Add(what);
    count += other.count - other.first.size();
  }
};

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Digest of every placement and communication window of \p s.
std::uint64_t ScheduleDigest(const actg::sched::Schedule& s) {
  std::uint64_t h = 0;
  for (actg::TaskId task : s.graph().TaskIds()) {
    const actg::sched::TaskPlacement& p = s.placement(task);
    h = Mix(h, static_cast<std::uint64_t>(p.pe.value));
    h = Mix(h, Bits(p.start_ms));
    h = Mix(h, Bits(p.finish_ms));
    h = Mix(h, Bits(p.speed_ratio));
    h = Mix(h, static_cast<std::uint64_t>(p.order_index));
  }
  for (actg::EdgeId edge : s.graph().EdgeIds()) {
    h = Mix(h, Bits(s.comm(edge).start_ms));
    h = Mix(h, Bits(s.comm(edge).finish_ms));
  }
  return h;
}

/// Current resident set of this process, MB (0 when unreadable).
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0;
  std::size_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ad::RescheduleTier TierDelta(const ad::TierCounts& before,
                             const ad::TierCounts& after) {
  if (after.exact != before.exact) return ad::RescheduleTier::kExact;
  if (after.warm_cache != before.warm_cache) {
    return ad::RescheduleTier::kWarmCache;
  }
  if (after.warm_prior != before.warm_prior) {
    return ad::RescheduleTier::kWarmPrior;
  }
  if (after.table != before.table) return ad::RescheduleTier::kTable;
  return ad::RescheduleTier::kFull;
}

void AddTiers(ad::TierCounts& into, const ad::TierCounts& from) {
  into.exact += from.exact;
  into.warm_cache += from.warm_cache;
  into.warm_prior += from.warm_prior;
  into.table += from.table;
  into.full += from.full;
  into.incremental_fallbacks += from.incremental_fallbacks;
}

bool SameTiers(const ad::TierCounts& a, const ad::TierCounts& b) {
  return a.exact == b.exact && a.warm_cache == b.warm_cache &&
         a.warm_prior == b.warm_prior && a.table == b.table &&
         a.full == b.full &&
         a.incremental_fallbacks == b.incremental_fallbacks;
}

bool SameResult(const actg::sim::InstanceResult& a,
                const actg::sim::InstanceResult& b) {
  return Bits(a.energy_mj) == Bits(b.energy_mj) &&
         Bits(a.makespan_ms) == Bits(b.makespan_ms) &&
         a.deadline_met == b.deadline_met &&
         a.failed_pe_hits == b.failed_pe_hits;
}

/// Observes one controller from outside and records its reschedules.
/// The PE mask of a degraded reschedule is rebuilt the way the ladder
/// builds it: failed PEs seen in injected faults accumulate (while one
/// PE survives) until a recovery clears them.
class ControllerWatch {
 public:
  ControllerWatch(const ad::AdaptiveController& controller,
                  const actg::apps::TenantModel& model, std::uint64_t instance,
                  std::uint64_t tenant, const std::string& policy,
                  std::vector<Event>& events)
      : c_(controller),
        model_(model),
        instance_(instance),
        tenant_(tenant),
        policy_(policy),
        events_(events) {
    // The constructor's initial schedule is the first request.
    Record(ad::TierCounts{}, actg::arch::PeMask(), 0.0, false, true);
  }

  /// Call before ProcessInstance.
  void Before() {
    tiers_ = c_.rescheduler().tier_counts();
    log_size_ = c_.degrade_log().size();
    pre_digest_ = ScheduleDigest(c_.current_schedule());
  }

  /// Call after ProcessInstance. Returns false when the call performed
  /// more reschedules than one observation can attribute.
  bool After(const actg::faults::InstanceFaults* faults) {
    const std::size_t pes = model_.platform().pe_count();
    if (faults != nullptr && faults->failed_pes != 0) {
      const std::uint64_t combined = excluded_ | faults->failed_pes;
      if (actg::arch::PeMask::WithoutBits(combined).CountAvailable(pes) > 0) {
        excluded_ = combined;
      }
    }
    const auto& log = c_.degrade_log();
    bool degraded = false;
    bool recovery = false;
    for (std::size_t k = log_size_; k < log.size(); ++k) {
      degraded |= log[k].level == ad::DegradeLevel::kFallback;
      recovery |= log[k].level == ad::DegradeLevel::kNormal;
    }
    const std::uint64_t calls =
        c_.rescheduler().tier_counts().total() - tiers_.total();
    bool ok = calls <= 1;
    if (calls == 1) {
      const bool threshold = !degraded && !recovery;
      Record(tiers_,
             degraded ? actg::arch::PeMask::WithoutBits(excluded_)
                      : actg::arch::PeMask(),
             degraded ? 1.0 : 0.0, degraded, !threshold);
    }
    if (recovery) excluded_ = 0;
    return ok;
  }

 private:
  void Record(const ad::TierCounts& before, actg::arch::PeMask mask,
              double floor, bool degraded, bool always_adopted) {
    Event ev;
    ev.model = &model_;
    ev.probs = c_.in_use_probabilities();
    ev.mask = mask;
    ev.speed_floor = floor;
    ev.degraded = degraded;
    ev.tier = TierDelta(before, c_.rescheduler().tier_counts());
    ev.instance = instance_;
    ev.tenant = tenant_;
    ev.policy = policy_;
    ev.graph_fp = c_.rescheduler().graph_fingerprint();
    ev.platform_fp = c_.rescheduler().platform_fingerprint();
    ev.config_fp = c_.rescheduler().config_fingerprint();
    ev.adopted = ScheduleDigest(c_.current_schedule());
    // A threshold reschedule is adopted only when it lowers expected
    // energy; an unchanged schedule means the candidate was dropped.
    ev.verify = ev.tier == ad::RescheduleTier::kFull &&
                (always_adopted || ev.adopted != pre_digest_);
    events_.push_back(std::move(ev));
  }

  const ad::AdaptiveController& c_;
  const actg::apps::TenantModel& model_;
  std::uint64_t instance_;
  std::uint64_t tenant_;
  std::string policy_;
  std::vector<Event>& events_;
  ad::TierCounts tiers_;
  std::size_t log_size_ = 0;
  std::uint64_t pre_digest_ = 0;
  std::uint64_t excluded_ = 0;
};

/// One execution of a watched controller, as the program's runner
/// performs it, with spans around sim::ExecuteInstance (re-issued on
/// the schedule about to run and held against the result),
/// ProcessInstance and, when \p oracle, check::ValidateInstance of what
/// executed.
actg::sim::InstanceResult Execute(
    Lane& lane, std::uint64_t id, ad::AdaptiveController& controller,
    ControllerWatch& watch, const actg::ctg::BranchAssignment& assignment,
    const actg::faults::InstanceFaults* faults, bool oracle,
    Mismatches& mismatches) {
  auto fail = [&](const std::string& what) {
    mismatches.Add("instance " + std::to_string(id) + ": " + what);
  };
  std::optional<actg::sched::Schedule> executed;
  if (oracle) executed = controller.current_schedule();
  actg::sim::InstanceResult expected;
  {
    Scoped span(lane, "sim.execute", id);
    expected = actg::sim::ExecuteInstance(controller.current_schedule(),
                                          assignment, faults);
  }
  watch.Before();
  actg::sim::InstanceResult result;
  {
    Scoped span(lane, "adaptive.process", id);
    result = controller.ProcessInstance(assignment, faults);
  }
  if (!watch.After(faults)) fail("several reschedules in one instance");
  if (!SameResult(expected, result)) {
    fail("sim::ExecuteInstance disagrees with ProcessInstance");
  }
  if (oracle) {
    Scoped span(lane, "check.validate", id);
    try {
      actg::check::ValidateInstance(*executed, assignment, result, faults);
    } catch (const std::exception& e) {
      fail(std::string("oracle: ") + e.what());
    }
  }
  return result;
}

/// Per-lane results of pass B.
struct ReissueStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t paths = 0;
  std::uint64_t max_paths = 0;
  std::string max_paths_label;
  double max_rss_rise_mb = 0.0;
  std::size_t degraded_calls = 0;
  double degraded_ms = 0.0;
  double resched_ms = 0.0;
  Mismatches mismatches;
};

/// Pass B for one lane: re-issues \p events, in order, through a
/// mirror of the lane's schedule cache and the scheduler / path engine
/// / stretch policy the controller calls.
ReissueStats Reissue(const std::vector<Event>& events,
                     std::size_t cache_capacity, Lane& lane) {
  ReissueStats st;
  actg::runtime::ScheduleCacheOptions cache_options;
  cache_options.capacity = cache_capacity;
  actg::runtime::ScheduleCache mirror(cache_options);
  std::unique_ptr<actg::dvfs::PathEngine> engine;
  const Event* owner = nullptr;
  for (const Event& ev : events) {
    const actg::apps::TenantModel& model = *ev.model;
    // Every controller owns a fresh engine; so does its re-issue.
    if (owner == nullptr || owner->instance != ev.instance ||
        owner->model != ev.model) {
      engine = std::make_unique<actg::dvfs::PathEngine>(
          model.graph(), model.analysis(), model.platform(),
          actg::dvfs::PathEngineOptions{
              .max_paths = actg::dvfs::StretchOptions{}.max_paths});
      owner = &ev;
    }
    Scoped resched(lane, "adaptive.resched", ev.instance);
    actg::runtime::ScheduleCacheKey key;
    if (!ev.degraded) {
      key = actg::runtime::MakeCacheKey(model.graph(), ev.probs, ev.graph_fp,
                                        ev.platform_fp, ev.config_fp,
                                        ev.tenant, ev.policy);
      ++st.lookups;
      bool hit = false;
      {
        Scoped lookup(lane, "runtime.cache.lookup", ev.instance);
        hit = mirror.Lookup(key).has_value();
      }
      if (hit != (ev.tier == ad::RescheduleTier::kExact)) {
        st.mismatches.Add("instance " + std::to_string(ev.instance) +
                          ": mirror cache " + (hit ? "hit" : "missed") +
                          " where the controller reported tier " +
                          ad::RescheduleTierName(ev.tier));
      }
      if (hit) {
        ++st.hits;
        st.resched_ms += resched.Close();
        continue;
      }
    }
    actg::sched::DlsOptions dls;
    dls.available_pes = ev.mask;
    std::optional<actg::sched::Schedule> schedule;
    {
      Scoped span(lane, "sched.dls", ev.instance);
      schedule.emplace(actg::sched::RunDls(model.graph(), model.analysis(),
                                           model.platform(), ev.probs, dls,
                                           &engine->dls_workspace()));
    }
    const double rss_before = ResidentMb();
    {
      Scoped span(lane, "dvfs.enumerate", ev.instance);
      engine->Enumerate(*schedule);
    }
    st.max_rss_rise_mb =
        std::max(st.max_rss_rise_mb, ResidentMb() - rss_before);
    const std::uint64_t paths = engine->size();
    st.paths += paths;
    if (paths > st.max_paths) {
      st.max_paths = paths;
      st.max_paths_label =
          std::string(actg::apps::TenantWorkloadName(model.workload())) +
          " on " +
          std::to_string(ev.mask.CountAvailable(model.platform().pe_count())) +
          " of " + std::to_string(model.platform().pe_count()) + " PEs, " +
          (ev.degraded ? "degraded" : ad::RescheduleTierName(ev.tier)) +
          " request of instance " + std::to_string(ev.instance);
    }
    // The enumeration above is the one the stretch would run: tell the
    // policy to rewind it instead of enumerating again, so this span
    // times Policy::Apply minus its enumeration.
    actg::dvfs::StretchWarmStart reuse;
    reuse.reuse_enumeration = true;
    actg::dvfs::PolicyContext ctx;
    ctx.schedule = &*schedule;
    ctx.probs = &ev.probs;
    ctx.speed_floor = ev.speed_floor;
    ctx.warm = &reuse;
    actg::dvfs::StretchStats stretch;
    {
      Scoped span(lane, "dvfs.stretch", ev.instance);
      stretch = actg::dvfs::GetPolicy(ev.policy).Apply(*engine, ctx);
    }
    if (ev.verify && ScheduleDigest(*schedule) != ev.adopted) {
      st.mismatches.Add("instance " + std::to_string(ev.instance) +
                        ": re-issued full reschedule differs from the "
                        "adopted current_schedule()");
    }
    if (!ev.degraded) {
      mirror.Insert(key,
                    actg::runtime::ScheduleCacheEntry{*schedule, stretch});
    }
    const double ms = resched.Close();
    st.resched_ms += ms;
    if (ev.degraded) {
      ++st.degraded_calls;
      st.degraded_ms += ms;
    }
  }
  st.evictions = mirror.evictions();
  return st;
}

ReissueStats MergeReissue(const std::vector<ReissueStats>& parts) {
  ReissueStats all;
  for (const ReissueStats& p : parts) {
    all.lookups += p.lookups;
    all.hits += p.hits;
    all.evictions += p.evictions;
    all.paths += p.paths;
    if (p.max_paths > all.max_paths) {
      all.max_paths = p.max_paths;
      all.max_paths_label = p.max_paths_label;
    }
    all.max_rss_rise_mb = std::max(all.max_rss_rise_mb, p.max_rss_rise_mb);
    all.degraded_calls += p.degraded_calls;
    all.degraded_ms += p.degraded_ms;
    all.resched_ms += p.resched_ms;
    all.mismatches.Merge(p.mismatches);
  }
  return all;
}

/// What both workloads hand the reporting code.
struct Traced {
  double run_s = 0.0;  ///< untraced Run() wall
  double cpu_s = 0.0;  ///< untraced Run() CPU
  double pass_a_s = 0.0;
  double pass_b_s = 0.0;
  std::size_t jobs = 1;
  ad::TierCounts tiers;  ///< untraced run
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t deferred_rounds = 0;
  std::uint64_t shed_tenants = 0;
  std::string untraced_digest;
  std::vector<Lane> lanes_a;
  std::vector<Lane> lanes_b;
  ReissueStats reissue;
  Mismatches mismatches;
};

// ------------------------------------------------------------------
// campaign

cp::CellKey KeyOf(const cp::CampaignSpec& spec, std::size_t c) {
  cp::CellKey key;
  key.workload = spec.workloads[c % spec.workloads.size()];
  c /= spec.workloads.size();
  key.policy = spec.policies[c % spec.policies.size()];
  c /= spec.policies.size();
  key.mode = spec.modes[c % spec.modes.size()];
  c /= spec.modes.size();
  key.storm = spec.storms[c].name;
  return key;
}

/// Pass A state of one campaign shard.
struct ShardReplay {
  std::vector<cp::CellStats> cells;
  cp::ShardExecution exec;
  std::map<std::pair<int, std::uint64_t>,
           std::unique_ptr<actg::apps::TenantModel>>
      models;
  std::vector<Event> events;
  Mismatches mismatches;
};

/// Replays one shard the way campaign::Campaign runs it, with a span
/// around every call into a layer.
void ReplayShard(const cp::CampaignSpec& spec, std::size_t shard,
                 ShardReplay& out, Lane& lane) {
  const auto [begin, end] =
      cp::Campaign::ShardRange(spec.instances, spec.shards, shard);
  out.exec.begin = begin;
  out.exec.end = end;
  const std::size_t cells = spec.CellCount();
  out.cells.assign(cells, cp::CellStats(spec));
  actg::runtime::Metrics metrics;
  actg::runtime::ScheduleCacheOptions cache_options;
  cache_options.capacity = spec.cache_capacity;
  actg::runtime::ScheduleCache cache(cache_options, &metrics);
  const actg::util::Random root(spec.seed);

  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t c = i % cells;
    const cp::CellKey key = KeyOf(spec, c);
    const std::uint64_t model_seed =
        spec.seed + static_cast<std::uint64_t>((i / cells) % spec.model_seeds);
    auto& model = out.models[{static_cast<int>(key.workload), model_seed}];
    if (model == nullptr) {
      Scoped span(lane, "apps.model", i);
      model = std::make_unique<actg::apps::TenantModel>(key.workload,
                                                        model_seed);
    }
    const actg::util::Random rng = root.Fork(i);
    const actg::faults::FaultPlan plan =
        spec.storms[c / (spec.workloads.size() * spec.policies.size() *
                         spec.modes.size())]
            .Plan();
    std::optional<actg::trace::BranchTrace> trace;
    {
      Scoped span(lane, "apps.trace", i);
      trace.emplace(model->MakeTrace(spec.trace_instances, rng.Fork(0)));
    }
    const bool sampled = rng.Fork(1).Bernoulli(spec.oracle_rate);
    const bool oracle = sampled || i == begin;

    ad::AdaptiveOptions aopts;
    aopts.window_length = spec.window;
    aopts.threshold = spec.threshold;
    aopts.policy = key.policy;
    aopts.reschedule.mode = key.mode;
    aopts.cache = actg::runtime::CacheBinding{&cache, 0};
    aopts.metrics = &metrics;
    aopts.degrade.enabled = spec.degrade;
    aopts.validate_schedules = oracle;
    std::optional<ad::AdaptiveController> controller;
    {
      Scoped span(lane, "adaptive.construct", i);
      controller.emplace(model->graph(), model->analysis(), model->platform(),
                         actg::apps::UniformProbabilities(model->graph()),
                         aopts);
    }
    ControllerWatch watch(*controller, *model, i, 0, key.policy, out.events);
    std::optional<actg::faults::Injector> injector;
    if (!plan.Empty()) {
      injector.emplace(plan, model->graph(), model->platform(),
                       rng.Fork(2).engine().Next());
    }

    cp::CellStats scratch(spec);
    double app_energy = 0.0;
    for (std::size_t t = 0; t < trace->size(); ++t) {
      actg::ctg::BranchAssignment assignment = trace->At(t);
      actg::faults::InstanceFaults instance_faults;
      const actg::faults::InstanceFaults* f = nullptr;
      if (injector.has_value()) {
        Scoped span(lane, "faults.inject", i);
        instance_faults = injector->ForInstance(t);
        injector->ApplyDrift(t, assignment);
        f = &instance_faults;
      }
      const actg::sim::InstanceResult result =
          Execute(lane, i, *controller, watch, assignment, f, oracle,
                  out.mismatches);
      Scoped span(lane, "report.accumulate", i);
      ++scratch.executions;
      if (!result.deadline_met) ++scratch.deadline_misses;
      if (result.overrun_ms > 0.0) ++scratch.overrun_instances;
      if (result.faults_injected) ++scratch.faulted_instances;
      scratch.failed_pe_hits += result.failed_pe_hits;
      scratch.max_makespan_ms =
          std::max(scratch.max_makespan_ms, result.makespan_ms);
      scratch.makespan.Observe(result.makespan_ms);
      scratch.makespan_hist.Observe(result.makespan_ms);
      app_energy += result.energy_mj;
    }
    Scoped span(lane, "report.accumulate", i);
    ++scratch.app_instances;
    scratch.energy.Observe(app_energy);
    scratch.energy_hist.Observe(app_energy);
    scratch.reschedules += controller->reschedule_count();
    scratch.resched_per_app.Observe(
        static_cast<double>(controller->reschedule_count()));
    scratch.escalations += controller->escalation_count();
    scratch.oob_reschedules += controller->oob_reschedule_count();
    scratch.recoveries += controller->recovery_count();
    if (sampled) ++scratch.oracle_sampled;
    out.cells[c].Merge(scratch);
    if (oracle) ++out.exec.oracle_validations;
    AddTiers(out.exec.tiers, controller->rescheduler().tier_counts());
  }
}

void TraceCampaign(const Workload& w, const std::string& spec_path,
                   Traced& t) {
  std::ifstream in(spec_path);
  actg::util::Expected<cp::CampaignSpec> parsed = cp::ParseCampaignFile(in);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().message());
  const cp::CampaignSpec spec = parsed.value();
  if (!spec.share_cache) {
    throw std::runtime_error("replay supports share_cache 1 campaigns only");
  }
  t.jobs = w.jobs;

  // The untraced run, for the wall time and the outputs to reproduce.
  cp::CampaignOptions options;
  options.jobs = w.jobs;
  cp::Campaign campaign(spec, options);
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  const cp::CampaignResult& result = campaign.Run();
  t.run_s = NowSeconds() - t0;
  t.cpu_s = CpuSeconds() - cpu0;
  t.tiers = result.tiers;
  t.attempted = spec.instances;
  t.failed = result.quarantined;
  t.cache_hits = campaign.metrics().counter("schedule_cache.hits");
  t.cache_misses = campaign.metrics().counter("schedule_cache.misses");
  t.cache_evictions = campaign.metrics().counter("schedule_cache.evictions");
  std::ostringstream untraced;
  result.Write(untraced);
  t.untraced_digest = Digest(untraced.str());

  const Clock::time_point epoch = Clock::now();
  std::vector<ShardReplay> shards(spec.shards);
  for (std::size_t s = 0; s < spec.shards; ++s) {
    t.lanes_a.emplace_back(static_cast<int>(s), epoch);
    t.lanes_b.emplace_back(static_cast<int>(spec.shards + s), epoch);
  }
  actg::runtime::Pool pool(w.jobs);
  const double a0 = NowSeconds();
  pool.ParallelFor(spec.shards, [&](std::size_t s) {
    ReplayShard(spec, s, shards[s], t.lanes_a[s]);
  });
  t.pass_a_s = NowSeconds() - a0;

  std::vector<ReissueStats> parts(spec.shards);
  const double b0 = NowSeconds();
  pool.ParallelFor(spec.shards, [&](std::size_t s) {
    parts[s] = Reissue(shards[s].events, spec.cache_capacity, t.lanes_b[s]);
  });
  t.pass_b_s = NowSeconds() - b0;
  t.reissue = MergeReissue(parts);

  // Rebuild the report from the replay and hold it against the
  // untraced one.
  cp::CampaignResult rebuilt;
  rebuilt.spec = spec;
  rebuilt.cells.assign(spec.CellCount(), cp::CellStats(spec));
  for (std::size_t c = 0; c < spec.CellCount(); ++c) {
    rebuilt.keys.push_back(KeyOf(spec, c));
  }
  for (ShardReplay& shard : shards) {
    t.mismatches.Merge(shard.mismatches);
    for (std::size_t c = 0; c < spec.CellCount(); ++c) {
      rebuilt.cells[c].Merge(shard.cells[c]);
    }
    rebuilt.shards.push_back(shard.exec);
    AddTiers(rebuilt.tiers, shard.exec.tiers);
  }
  for (const cp::CellStats& cell : rebuilt.cells) {
    rebuilt.fleet.Merge(cell.ToFleetStats());
    rebuilt.oracle_sampled += cell.oracle_sampled;
  }
  std::ostringstream text;
  rebuilt.Write(text);
  if (text.str() != untraced.str()) {
    t.mismatches.Add("replayed campaign report differs from the untraced "
                     "report");
  }
  if (!SameTiers(rebuilt.tiers, result.tiers)) {
    t.mismatches.Add("replayed tier counts differ from CampaignResult::tiers");
  }
  if (t.reissue.hits != t.cache_hits ||
      t.reissue.lookups != t.cache_hits + t.cache_misses ||
      t.reissue.evictions != t.cache_evictions) {
    t.mismatches.Add("mirror cache counts differ from the untraced "
                     "schedule cache counters");
  }
}

// ------------------------------------------------------------------
// serve

struct TenantReplay {
  std::unique_ptr<actg::apps::TenantModel> model;
  std::vector<Event> events;
  ad::TierCounts tiers;
  Mismatches mismatches;
};

/// Replays admitted tenant \p i the way serve::Session runs it: its
/// model, its trace substream and a fresh controller.
void ReplayTenant(const sv::FleetRequest& fleet, const sv::TenantReport& row,
                  std::size_t i, TenantReplay& out, Lane& lane) {
  sv::TenantRequest request = fleet.tenants[i];
  if (request.seed == 0) request.seed = i + 1;
  const std::uint64_t tenant = fleet.config.share_cache ? 0 : i + 1;
  {
    Scoped span(lane, "apps.model", i);
    out.model = std::make_unique<actg::apps::TenantModel>(request.workload,
                                                          request.seed);
  }
  const actg::apps::TenantModel& model = *out.model;
  std::optional<actg::trace::BranchTrace> trace;
  {
    Scoped span(lane, "apps.trace", i);
    const actg::util::Random root(fleet.config.seed);
    trace.emplace(model.MakeTrace(request.instances,
                                  root.Fork(static_cast<std::uint64_t>(i))));
  }
  actg::runtime::Metrics metrics;
  actg::runtime::ScheduleCacheOptions cache_options;
  cache_options.capacity = fleet.config.shard_capacity;
  actg::runtime::ScheduleCache cache(cache_options, &metrics);
  ad::AdaptiveOptions options;
  options.window_length = request.window;
  options.threshold = request.threshold;
  options.policy = request.policy;
  options.cache = actg::runtime::CacheBinding{&cache, tenant};
  options.metrics = &metrics;
  options.validate_schedules = fleet.config.validate;
  std::optional<ad::AdaptiveController> controller;
  {
    Scoped span(lane, "adaptive.construct", i);
    controller.emplace(model.graph(), model.analysis(), model.platform(),
                       actg::apps::UniformProbabilities(model.graph()),
                       options);
  }
  ControllerWatch watch(*controller, model, i, tenant, request.policy,
                        out.events);
  // The untraced run's oracle sample: every 16th tenant, first and
  // last instance.
  const bool sampled = i % 16 == 0;
  actg::sim::RunSummary summary;
  for (std::size_t t = 0; t < trace->size(); ++t) {
    const actg::ctg::BranchAssignment assignment = trace->At(t);
    const bool oracle = sampled && (t == 0 || t + 1 == trace->size());
    const actg::sim::InstanceResult result = Execute(
        lane, i, *controller, watch, assignment, nullptr, oracle,
        out.mismatches);
    Scoped span(lane, "report.accumulate", i);
    summary.Add(result);
  }
  out.tiers = controller->rescheduler().tier_counts();
  if (summary.instances != row.completed ||
      summary.deadline_misses != row.deadline_misses ||
      Bits(summary.total_energy_mj) != Bits(row.energy_mj) ||
      Bits(summary.max_makespan_ms) != Bits(row.max_makespan_ms) ||
      controller->reschedule_count() != row.reschedules) {
    out.mismatches.Add("tenant " + row.name +
                       ": replay differs from its fleet report row");
  }
}

void TraceServe(const Workload& w, const std::string& spec_path, Traced& t) {
  std::ifstream in(spec_path);
  actg::util::Expected<sv::FleetRequest> parsed = sv::ParseServeFile(in);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().message());
  const sv::FleetRequest fleet = parsed.value();
  t.jobs = w.jobs;

  sv::ServerOptions options;
  options.jobs = w.jobs;
  sv::Server server(fleet, options);
  const double cpu0 = CpuSeconds();
  const double t0 = NowSeconds();
  const sv::FleetReport& report = server.Run();
  t.run_s = NowSeconds() - t0;
  t.cpu_s = CpuSeconds() - cpu0;
  const actg::runtime::Metrics& metrics = server.metrics();
  t.tiers.exact = metrics.counter("resched.tier.exact");
  t.tiers.warm_cache = metrics.counter("resched.tier.warm_cache");
  t.tiers.warm_prior = metrics.counter("resched.tier.warm_prior");
  t.tiers.table = metrics.counter("resched.tier.table");
  t.tiers.full = metrics.counter("resched.tier.full");
  t.tiers.incremental_fallbacks =
      metrics.counter("resched.incremental_fallbacks");
  t.cache_hits = server.cache().hits();
  t.cache_misses = server.cache().misses();
  t.cache_evictions = server.cache().evictions();
  t.attempted = report.tenants.size();
  t.failed = report.shed_tenants + report.quarantined_tenants;
  t.rounds = report.rounds;
  t.deferred_rounds = report.deferred_rounds;
  t.shed_tenants = report.shed_tenants;
  std::ostringstream untraced;
  report.Write(untraced);
  t.untraced_digest = Digest(untraced.str());

  std::vector<std::size_t> admitted;
  for (std::size_t i = 0; i < server.sessions().size(); ++i) {
    const sv::Session* session = server.sessions()[i].get();
    if (session != nullptr && session->state() == sv::SessionState::kShutdown) {
      admitted.push_back(i);
    }
  }
  const Clock::time_point epoch = Clock::now();
  for (std::size_t k = 0; k < admitted.size(); ++k) {
    t.lanes_a.emplace_back(static_cast<int>(k), epoch);
    t.lanes_b.emplace_back(static_cast<int>(admitted.size() + k), epoch);
  }
  std::vector<TenantReplay> tenants(admitted.size());
  actg::runtime::Pool pool(w.jobs);
  const double a0 = NowSeconds();
  pool.ParallelFor(admitted.size(), [&](std::size_t k) {
    ReplayTenant(fleet, report.tenants[admitted[k]], admitted[k], tenants[k],
                 t.lanes_a[k]);
  });
  t.pass_a_s = NowSeconds() - a0;

  std::vector<ReissueStats> parts(admitted.size());
  const double b0 = NowSeconds();
  pool.ParallelFor(admitted.size(), [&](std::size_t k) {
    parts[k] = Reissue(tenants[k].events, fleet.config.shard_capacity,
                       t.lanes_b[k]);
  });
  t.pass_b_s = NowSeconds() - b0;
  t.reissue = MergeReissue(parts);

  ad::TierCounts replay_tiers;
  for (const TenantReplay& tenant : tenants) {
    t.mismatches.Merge(tenant.mismatches);
    AddTiers(replay_tiers, tenant.tiers);
  }
  // The server's tenants share cache shards, the replay's do not, so
  // only the request count and the mirror-versus-replay hits compare.
  if (replay_tiers.total() != t.tiers.total()) {
    t.mismatches.Add("replayed reschedule requests differ from the "
                     "server's resched.tier.* counters");
  }
  if (t.reissue.hits != replay_tiers.exact) {
    t.mismatches.Add("mirror cache hits differ from the replayed exact tier");
  }
}

// ------------------------------------------------------------------
// reporting

void WriteTrace(const std::string& path, const Traced& t) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  WriteChromeEvents(out, t.lanes_a, first);
  WriteChromeEvents(out, t.lanes_b, first);
  out << "\n]}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace

int RunTraced(const Workload& w, const std::string& spec_path,
              const std::string& trace_path) {
  Traced t;
  if (w.kind == Kind::kCampaign) {
    TraceCampaign(w, spec_path, t);
  } else {
    TraceServe(w, spec_path, t);
  }
  WriteTrace(trace_path, t);
  t.mismatches.Merge(t.reissue.mismatches);

  std::vector<Lane> all = t.lanes_a;
  all.insert(all.end(), t.lanes_b.begin(), t.lanes_b.end());
  const std::map<std::string, LayerStats> layers = Summarize(all);
  auto L = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerStats{} : it->second;
  };
  double top_a = 0.0;
  for (const Lane& lane : t.lanes_a) {
    for (const Span& span : lane.spans()) {
      if (span.parent < 0) {
        top_a += 1e-6 * static_cast<double>(span.end_ns - span.begin_ns);
      }
    }
  }
  const double jobs = static_cast<double>(t.jobs);
  const ad::TierCounts& tiers = t.tiers;
  const double warm = static_cast<double>(tiers.warm_cache + tiers.warm_prior);
  const double lookups = static_cast<double>(t.cache_hits + t.cache_misses);

  JsonObject metrics;
  auto metric = [&](const char* name, double value, const char* unit) {
    JsonObject m;
    m.Num("value", value).Str("unit", unit);
    metrics.Raw(name, m.str());
  };
  const LayerStats enumerate = L("dvfs.enumerate");
  metric("dvfs.enumerate.calls", enumerate.calls, "count");
  metric("dvfs.enumerate.ms", enumerate.busy_ms, "ms");
  metric("dvfs.enumerate.p99_ms", enumerate.p99_ms, "ms");
  metric("dvfs.paths.mean",
         enumerate.calls == 0 ? 0.0
                              : static_cast<double>(t.reissue.paths) /
                                    static_cast<double>(enumerate.calls),
         "count");
  metric("dvfs.paths.max", static_cast<double>(t.reissue.max_paths), "count");
  metric("dvfs.stretch.ms", L("dvfs.stretch").busy_ms, "ms");
  metric("dvfs.stretch.p99_ms", L("dvfs.stretch").p99_ms, "ms");
  metric("dvfs.rss_rise_mb", t.reissue.max_rss_rise_mb, "MB");
  metric("sched.dls.calls", L("sched.dls").calls, "count");
  metric("sched.dls.ms", L("sched.dls").busy_ms, "ms");
  metric("sched.dls.p99_ms", L("sched.dls").p99_ms, "ms");
  metric("adaptive.process.calls", L("adaptive.process").calls, "count");
  metric("adaptive.process.ms", L("adaptive.process").busy_ms, "ms");
  metric("adaptive.process.p99_ms", L("adaptive.process").p99_ms, "ms");
  metric("adaptive.resched.calls", L("adaptive.resched").calls, "count");
  metric("adaptive.resched.max_ms", L("adaptive.resched").max_ms, "ms");
  metric("adaptive.tier.exact", tiers.exact, "count");
  metric("adaptive.tier.warm_prior", tiers.warm_prior, "count");
  metric("adaptive.tier.warm_cache", tiers.warm_cache, "count");
  metric("adaptive.tier.full", tiers.full, "count");
  metric("adaptive.tier.fallbacks", tiers.incremental_fallbacks, "count");
  metric("adaptive.warm.useful_ratio",
         warm == 0.0 ? 0.0
                     : warm / (warm + static_cast<double>(
                                          tiers.incremental_fallbacks)),
         "fraction");
  metric("adaptive.degraded.calls", t.reissue.degraded_calls, "count");
  metric("adaptive.degraded.share",
         t.reissue.resched_ms == 0.0
             ? 0.0
             : t.reissue.degraded_ms / t.reissue.resched_ms,
         "fraction");
  metric("runtime.cache.lookups", lookups, "count");
  metric("runtime.cache.hit_ratio",
         lookups == 0.0 ? 0.0 : static_cast<double>(t.cache_hits) / lookups,
         "fraction");
  metric("runtime.cache.evictions", t.cache_evictions, "count");
  metric("runtime.pool.busy_frac", t.cpu_s / (jobs * t.run_s), "fraction");
  metric("sim.execute.calls", L("sim.execute").calls, "count");
  metric("sim.execute.ms", L("sim.execute").busy_ms, "ms");
  metric("apps.model.calls", L("apps.model").calls, "count");
  metric("apps.model.ms", L("apps.model").busy_ms, "ms");
  metric("apps.trace.ms", L("apps.trace").busy_ms, "ms");
  metric("check.validate.calls", L("check.validate").calls, "count");
  metric("check.validate.ms", L("check.validate").busy_ms, "ms");
  metric("report.accumulate.ms", L("report.accumulate").busy_ms, "ms");
  metric("serve.rounds", t.rounds, "count");
  metric("serve.deferred_rounds", t.deferred_rounds, "count");
  metric("serve.shed_tenants", t.shed_tenants, "count");
  metric("bench.trace_overhead_frac", t.pass_a_s / t.run_s - 1.0, "fraction");
  metric("bench.trace_coverage_frac", top_a / (1e3 * jobs * t.pass_a_s),
         "fraction");

  JsonObject table;
  for (const auto& [name, s] : layers) {
    JsonObject row;
    row.Int("calls", s.calls)
        .Num("busy_ms", s.busy_ms)
        .Num("self_ms", s.self_ms)
        .Num("p50_ms", s.p50_ms)
        .Num("p99_ms", s.p99_ms)
        .Num("max_ms", s.max_ms);
    table.Raw(name, row.str());
  }
  std::string mismatch_list = "[";
  for (std::size_t k = 0; k < t.mismatches.first.size(); ++k) {
    mismatch_list += (k == 0 ? "" : ", ") +
                     JsonObject::Quote(t.mismatches.first[k]);
  }
  mismatch_list += "]";

  JsonObject o;
  o.Str("workload", w.name)
      .Int("jobs", t.jobs)
      .Num("run_s", t.run_s)
      .Num("pass_a_s", t.pass_a_s)
      .Num("pass_b_s", t.pass_b_s)
      .Num("reissue_resched_ms", t.reissue.resched_ms)
      .Str("paths_max_at", t.reissue.max_paths_label)
      .Str("report_digest", t.untraced_digest)
      .Int("attempted", t.attempted)
      .Int("failed", t.failed)
      .Int("mismatches", t.mismatches.count)
      .Raw("mismatch_examples", mismatch_list)
      .Raw("layers", table.str())
      .Raw("metrics", metrics.str());
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace perfbench
