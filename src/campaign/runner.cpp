#include "campaign/runner.h"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <utility>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "campaign/checkpoint.h"
#include "check/fuzz.h"
#include "check/validator.h"
#include "faults/injector.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace actg::campaign {

namespace {

void MergeTiers(adaptive::TierCounts& into,
                const adaptive::TierCounts& from) {
  into.exact += from.exact;
  into.warm_prior += from.warm_prior;
  into.full += from.full;
  into.incremental_fallbacks += from.incremental_fallbacks;
}

/// Fault-injector seed of instance i: a pure function of (spec, i),
/// drawn from the instance's Fork(2) substream so no other consumer of
/// the substream tree can collide with it.
std::uint64_t FaultSeed(const util::Random& instance_rng) {
  return instance_rng.Fork(2).engine().Next();
}

/// The axes of population cell \p c, workload-fastest.
CellKey KeyOf(const CampaignSpec& spec, std::size_t c) {
  CellKey key;
  key.workload = spec.workloads[c % spec.workloads.size()];
  c /= spec.workloads.size();
  key.policy = spec.policies[c % spec.policies.size()];
  c /= spec.policies.size();
  key.mode = spec.modes[c % spec.modes.size()];
  c /= spec.modes.size();
  key.storm = spec.storms[c].name;
  return key;
}

runtime::ScheduleCacheOptions ScheduleCacheOptionsFor(
    const CampaignSpec& spec) {
  runtime::ScheduleCacheOptions options;
  options.capacity = spec.cache_capacity;
  return options;
}

/// Distinguished failure classes of one instance attempt, mapped to
/// QuarantineRecord::reason. Local types (not check::/actg:: ones) so
/// the classification can never be confused with an exception escaping
/// the pipeline itself.
class PoisonError : public Error {
 public:
  using Error::Error;
};
class OracleError : public Error {
 public:
  using Error::Error;
};
class BudgetError : public Error {
 public:
  using Error::Error;
};

/// Quarantine records and checkpoint lines are single-line formats.
std::string SingleLine(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return text;
}

/// Emits a replayable fuzzcase for quarantined instance \p i: the
/// instance's graph/platform/policy/mode/fault plan with its substream
/// seeds, plus a comment header carrying the campaign repro coordinates
/// (actg_fuzz --replay skips '#' lines). A failed write only loses the
/// artifact — it never fails the campaign.
void EmitRepro(const CampaignSpec& spec, const CampaignOptions& options,
               std::size_t i, const CellKey& key,
               const apps::TenantModel& model,
               const faults::FaultPlan& plan, const util::Random& rng,
               const QuarantineRecord& rec) {
  if (options.quarantine_dir.empty()) return;
  check::FuzzCase c{model.graph(), model.platform()};
  c.policy = key.policy;
  c.reschedule_mode = key.mode;
  c.adaptive = true;
  c.trace_instances = spec.trace_instances;
  c.prob_seed = rng.Fork(3).engine().Next();
  c.faults = plan;
  c.faults.seed = FaultSeed(rng);
  c.with_faults = !plan.Empty();
  util::AtomicFile file(options.quarantine_dir + "/quarantine-" +
                        std::to_string(spec.seed) + "-" +
                        std::to_string(i) + ".fuzzcase");
  if (!file.ok()) return;
  file.os() << "# campaign quarantine repro: seed " << spec.seed
            << " index " << i << " cell " << key.Label() << "\n";
  file.os() << "# reason " << rec.reason << " attempts " << rec.attempts
            << " detail " << rec.detail << "\n";
  check::WriteRepro(file.os(), c);
  (void)file.Commit();
}

void RunShard(const CampaignSpec& spec, const CampaignOptions& options,
              std::size_t shard, ShardOutput& out) {
  const auto [begin, end] =
      Campaign::ShardRange(spec.instances, spec.shards, shard);
  out.exec.begin = begin;
  out.exec.end = end;
  out.metrics = std::make_unique<runtime::Metrics>();
  const std::size_t cells = spec.CellCount();
  out.cells.assign(cells, CellStats(spec));

  runtime::ScheduleCache shared_cache(
      ScheduleCacheOptionsFor(spec), out.metrics.get());
  // Model construction is the expensive part of an instance; instances
  // cycle through workloads x model_seeds structures, so the shard
  // memoizes them — (workload, model seed) pairs build equal models, so
  // memoization never changes a result.
  std::map<std::pair<int, std::uint64_t>,
           std::unique_ptr<apps::TenantModel>>
      models;
  const util::Random root(spec.seed);

  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t c = i % cells;
    const CellKey key = KeyOf(spec, c);
    const std::size_t group = (i / cells) % spec.model_seeds;
    const std::uint64_t model_seed =
        spec.seed + static_cast<std::uint64_t>(group);
    auto& model = models[{static_cast<int>(key.workload), model_seed}];
    if (model == nullptr) {
      model = std::make_unique<apps::TenantModel>(key.workload, model_seed);
    }

    // The instance's substream tree: everything stochastic about
    // instance i forks from Random(seed).Fork(i), never from shared
    // state, so the result is a pure function of (spec, i).
    const util::Random rng = root.Fork(i);
    const faults::FaultPlan plan =
        spec.storms[c / (spec.workloads.size() * spec.policies.size() *
                         spec.modes.size())]
            .Plan();

    // One attempt simulates the whole instance into *scratch* state,
    // merged into the shard slot only on success. The merge is
    // bit-exactly equivalent to accumulating directly (the
    // accumulators' merge law), and a quarantined attempt leaves no
    // trace in the population stats — transactional accumulation.
    auto attempt_once = [&](CellStats& cell, adaptive::TierCounts& tiers,
                            bool& sampled_out, bool& oracle_out) {
      if (spec.poison_every != 0 && (i + 1) % spec.poison_every == 0) {
        throw PoisonError("injected campaign poison (instance " +
                          std::to_string(i) + ")");
      }
      const trace::BranchTrace trace =
          model->MakeTrace(spec.trace_instances, rng.Fork(0));
      const bool sampled = rng.Fork(1).Bernoulli(spec.oracle_rate);
      // Forced first-instance check: every shard re-verifies at least
      // one of its instances against the oracle. Execution data — the
      // sampled draw alone feeds the population section.
      const bool oracle = sampled || i == begin;
      sampled_out = sampled;
      oracle_out = oracle;

      adaptive::AdaptiveOptions aopts;
      aopts.window_length = spec.window;
      aopts.threshold = spec.threshold;
      aopts.policy = key.policy;
      aopts.reschedule.mode = key.mode;
      // share_cache pools every instance into one shard-wide key space
      // so cross-instance exact hits do the heavy lifting — which
      // couples an instance's outcome to the shard-mates that filled
      // the cache. The control arm gives each instance a private cache
      // instead: its own keys AND its own LRU budget, so hit/miss
      // patterns (and therefore the result) stay a pure function of
      // (spec, i).
      std::optional<runtime::ScheduleCache> private_cache;
      if (!spec.share_cache) {
        private_cache.emplace(ScheduleCacheOptionsFor(spec),
                              out.metrics.get());
      }
      aopts.cache = runtime::CacheBinding{
          spec.share_cache ? &shared_cache : &*private_cache,
          spec.share_cache ? 0 : static_cast<std::uint64_t>(i) + 1};
      aopts.metrics = out.metrics.get();
      aopts.degrade.enabled = spec.degrade;
      // In-controller schedule validation keys off the instance's own
      // substream draw, never the shard-relative position. Arming it
      // is side-effect-free: the rescheduler's debug oracle runs its
      // reference recompute on a private scratch engine, so produced
      // schedules are bit-identical with validation on or off (the
      // regression test test_adaptive pins this).
      aopts.validate_schedules = oracle;
      adaptive::AdaptiveController controller(
          model->graph(), model->analysis(), model->platform(),
          apps::UniformProbabilities(model->graph()), aopts);

      std::optional<faults::Injector> injector;
      if (!plan.Empty()) {
        injector.emplace(plan, model->graph(), model->platform(),
                         FaultSeed(rng));
      }

      double app_energy = 0.0;
      for (std::size_t t = 0; t < trace.size(); ++t) {
        ctg::BranchAssignment assignment = trace.At(t);
        faults::InstanceFaults instance_faults;
        const faults::InstanceFaults* f = nullptr;
        if (injector.has_value()) {
          instance_faults = injector->ForInstance(t);
          injector->ApplyDrift(t, assignment);
          f = &instance_faults;
        }
        // ProcessInstance executes against the *current* schedule, then
        // adapts — so the oracle must capture the schedule before the
        // call to re-verify what actually executed.
        std::optional<sched::Schedule> executed;
        if (oracle) executed = controller.current_schedule();
        const sim::InstanceResult result =
            controller.ProcessInstance(assignment, f);
        if (oracle) {
          try {
            check::ValidateInstance(*executed, assignment, result, f);
          } catch (const Error& e) {
            throw OracleError(e.what());
          }
        }
        // Watchdog-style compute budget: a controller that reschedules
        // past the configured budget is wedged by definition and gets
        // quarantined at the next instance boundary.
        if (spec.reschedule_budget != 0 &&
            controller.reschedule_count() > spec.reschedule_budget) {
          throw BudgetError(
              "reschedule budget exceeded (" +
              std::to_string(controller.reschedule_count()) + " > " +
              std::to_string(spec.reschedule_budget) + ")");
        }
        ++cell.executions;
        if (!result.deadline_met) ++cell.deadline_misses;
        if (result.overrun_ms > 0.0) ++cell.overrun_instances;
        if (result.faults_injected) ++cell.faulted_instances;
        cell.failed_pe_hits += result.failed_pe_hits;
        if (result.makespan_ms > cell.max_makespan_ms) {
          cell.max_makespan_ms = result.makespan_ms;
        }
        cell.makespan.Observe(result.makespan_ms);
        cell.makespan_hist.Observe(result.makespan_ms);
        app_energy += result.energy_mj;
      }

      ++cell.app_instances;
      cell.energy.Observe(app_energy);
      cell.energy_hist.Observe(app_energy);
      cell.reschedules += controller.reschedule_count();
      cell.resched_per_app.Observe(
          static_cast<double>(controller.reschedule_count()));
      cell.escalations += controller.escalation_count();
      cell.oob_reschedules += controller.oob_reschedule_count();
      cell.recoveries += controller.recovery_count();
      if (sampled) ++cell.oracle_sampled;
      MergeTiers(tiers, controller.rescheduler().tier_counts());
    };

    // The quarantine ladder: transient classes (injected poison,
    // allocation pressure) get quarantine_retries bounded-backoff
    // retries; permanent classes (oracle failure, budget overrun, any
    // other pipeline exception) quarantine immediately. With the cap
    // at 0 every failure rethrows — legacy abort-the-campaign
    // semantics, and byte-identical legacy reports.
    std::size_t attempts = 0;
    for (;;) {
      ++attempts;
      CellStats scratch(spec);
      adaptive::TierCounts tiers;
      bool sampled = false;
      bool oracle = false;
      std::string reason;
      std::string detail;
      bool transient = false;
      try {
        attempt_once(scratch, tiers, sampled, oracle);
        out.cells[c].Merge(scratch);
        if (oracle) ++out.exec.oracle_validations;
        MergeTiers(out.exec.tiers, tiers);
        break;
      } catch (const PoisonError& e) {
        if (spec.quarantine_cap == 0) throw;
        reason = "poison";
        detail = SingleLine(e.what());
        transient = true;
      } catch (const OracleError& e) {
        if (spec.quarantine_cap == 0) throw;
        reason = "oracle";
        detail = SingleLine(e.what());
      } catch (const BudgetError& e) {
        if (spec.quarantine_cap == 0) throw;
        reason = "overbudget";
        detail = SingleLine(e.what());
      } catch (const std::bad_alloc& e) {
        if (spec.quarantine_cap == 0) throw;
        reason = "thrown";
        detail = SingleLine(e.what());
        transient = true;
      } catch (const std::exception& e) {
        if (spec.quarantine_cap == 0) throw;
        reason = "thrown";
        detail = SingleLine(e.what());
      }
      if (transient && attempts <= spec.quarantine_retries) {
        // Bounded backoff before retrying a transient class. Wall
        // clock only; a retry re-derives everything from the same
        // substreams, so it changes no deterministic state.
        std::this_thread::sleep_for(std::chrono::milliseconds(attempts));
        continue;
      }
      QuarantineRecord rec;
      rec.index = i;
      rec.cell = c;
      rec.reason = reason;
      rec.attempts = attempts;
      rec.detail = detail;
      EmitRepro(spec, options, i, key, *model, plan, rng, rec);
      out.exec.quarantine.push_back(std::move(rec));
      // Hard cap: even the shard-local count exceeding it means the
      // fleet total will — fail loudly instead of quietly skipping an
      // unbounded share of the population.
      if (out.exec.quarantine.size() > spec.quarantine_cap) {
        throw InvalidArgument(
            "campaign: quarantine cap exceeded (cap " +
            std::to_string(spec.quarantine_cap) + ")");
      }
      break;
    }
  }
}

}  // namespace

std::string CellKey::Label() const {
  std::string label(apps::TenantWorkloadName(workload));
  label += '/';
  label += policy;
  label += '/';
  label += adaptive::RescheduleModeName(mode);
  label += '/';
  label += storm;
  return label;
}

void CellStats::Merge(const CellStats& other) {
  app_instances += other.app_instances;
  executions += other.executions;
  deadline_misses += other.deadline_misses;
  reschedules += other.reschedules;
  escalations += other.escalations;
  oob_reschedules += other.oob_reschedules;
  recoveries += other.recoveries;
  overrun_instances += other.overrun_instances;
  faulted_instances += other.faulted_instances;
  failed_pe_hits += other.failed_pe_hits;
  oracle_sampled += other.oracle_sampled;
  if (other.max_makespan_ms > max_makespan_ms) {
    max_makespan_ms = other.max_makespan_ms;
  }
  energy.Merge(other.energy);
  energy_hist.Merge(other.energy_hist);
  makespan.Merge(other.makespan);
  makespan_hist.Merge(other.makespan_hist);
  resched_per_app.Merge(other.resched_per_app);
}

report::FleetStats CellStats::ToFleetStats() const {
  report::FleetStats stats;
  stats.instances = executions;
  stats.deadline_misses = deadline_misses;
  stats.total_energy_mj = energy.sum();
  stats.max_makespan_ms = max_makespan_ms;
  stats.reschedules = reschedules;
  return stats;
}

void CampaignResult::WritePopulation(std::ostream& os) const {
  os << std::fixed << std::setprecision(6);
  os << "population cells " << cells.size() << "\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellStats& cell = cells[c];
    os << "cell " << keys[c].Label() << " apps " << cell.app_instances
       << " exec " << cell.executions << " miss " << cell.deadline_misses
       << " resched " << cell.reschedules << " oob "
       << cell.oob_reschedules << " esc " << cell.escalations << " rec "
       << cell.recoveries << " overrun " << cell.overrun_instances
       << " faulted " << cell.faulted_instances << " pe_hits "
       << cell.failed_pe_hits << " oracle " << cell.oracle_sampled
       << "\n";
    os << "  energy_mj mean " << cell.energy.mean() << " p50 "
       << cell.energy_hist.Quantile(0.5) << " p99 "
       << cell.energy_hist.Quantile(0.99) << "\n";
    os << "  makespan_ms mean " << cell.makespan.mean() << " p50 "
       << cell.makespan_hist.Quantile(0.5) << " p99 "
       << cell.makespan_hist.Quantile(0.99) << " max "
       << cell.max_makespan_ms << "\n";
    os << "  resched_per_app mean " << cell.resched_per_app.mean()
       << " var " << cell.resched_per_app.variance() << "\n";
  }
  os << "fleet instances " << fleet.instances << " miss_rate "
     << fleet.MissRate() << " energy_mj " << fleet.total_energy_mj
     << " avg_energy_mj " << fleet.AverageEnergy() << " max_makespan_ms "
     << fleet.max_makespan_ms << " reschedules " << fleet.reschedules
     << "\n";
  os << "oracle_sampled " << oracle_sampled << "\n";
}

void CampaignResult::Write(std::ostream& os) const {
  os << "campaign report v2\n";
  os << "instances " << spec.instances << " shards " << spec.shards
     << " trace_instances " << spec.trace_instances << " seed "
     << spec.seed << "\n";
  WritePopulation(os);
  os << "execution\n";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardExecution& shard = shards[s];
    os << "shard " << s << " range " << shard.begin << " " << shard.end
       << " oracle " << shard.oracle_validations << " tiers exact "
       << shard.tiers.exact << " warm_prior " << shard.tiers.warm_prior
       << " full " << shard.tiers.full << " fallbacks "
       << shard.tiers.incremental_fallbacks << "\n";
  }
  os << "tiers exact " << tiers.exact << " warm_prior "
     << tiers.warm_prior << " full " << tiers.full << " fallbacks "
     << tiers.incremental_fallbacks << "\n";
  // Only campaigns that opted into quarantine carry the section, so
  // legacy reports stay byte-identical.
  if (spec.quarantine_cap > 0) {
    os << "quarantine cap " << spec.quarantine_cap << " records "
       << quarantined << "\n";
    for (const ShardExecution& shard : shards) {
      for (const QuarantineRecord& rec : shard.quarantine) {
        os << "quarantined " << rec.index << " cell "
           << keys[rec.cell].Label() << " reason " << rec.reason
           << " attempts " << rec.attempts << " detail " << rec.detail
           << "\n";
      }
    }
  }
  os << "end\n";
}

Campaign::Campaign(CampaignSpec spec, CampaignOptions options)
    : spec_(std::move(spec)), options_(options) {
  spec_.Validate().ThrowIfError();
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    own_metrics_ = std::make_unique<runtime::Metrics>();
    metrics_ = own_metrics_.get();
  }
}

std::pair<std::size_t, std::size_t> Campaign::ShardRange(
    std::size_t instances, std::size_t shards, std::size_t shard) {
  return {shard * instances / shards, (shard + 1) * instances / shards};
}

std::string Campaign::CheckpointPath() const {
  return options_.checkpoint_dir + "/campaign.ckpt";
}

std::size_t Campaign::Resume() {
  ACTG_CHECK(!ran_, "Campaign::Resume must precede Run");
  if (options_.checkpoint_dir.empty()) return 0;
  std::ifstream is(CheckpointPath(), std::ios::binary);
  if (!is) return 0;  // no checkpoint yet: a fresh start
  util::Expected<CheckpointState> state = LoadCheckpoint(is, spec_);
  if (!state.ok()) throw InvalidArgument(state.error().message());
  done_ = std::move(state.value().done);
  outputs_ = std::move(state.value().outputs);
  std::size_t restored = 0;
  for (const char d : done_) restored += d != 0 ? 1 : 0;
  return restored;
}

void Campaign::Checkpoint() {
  if (options_.checkpoint_dir.empty() || outputs_.empty()) return;
  util::AtomicFile file(CheckpointPath());
  if (!file.ok()) {
    throw InvalidArgument("campaign: cannot write checkpoint to " +
                          file.path());
  }
  WriteCheckpoint(file.os(), spec_, done_, outputs_);
  file.Commit().ThrowIfError();
}

const CampaignResult& Campaign::Run() {
  ACTG_CHECK(!ran_, "Campaign::Run is valid once");
  ran_ = true;

  if (outputs_.empty()) {
    outputs_.resize(spec_.shards);
    done_.assign(spec_.shards, 0);
  }
  std::vector<std::size_t> pending;
  for (std::size_t s = 0; s < spec_.shards; ++s) {
    if (done_[s] == 0) pending.push_back(s);
  }

  const bool checkpointing = !options_.checkpoint_dir.empty();
  const std::size_t every =
      options_.checkpoint_every == 0 ? 1 : options_.checkpoint_every;
  std::mutex mu;
  std::size_t completed_this_run = 0;
  runtime::Pool pool(options_.jobs);
  // One shard = one pool job: the body depends only on (spec, shard)
  // and writes only its own slot, so any --jobs count produces
  // bit-identical outputs. Completion bookkeeping (done_ flags,
  // checkpoint writes) happens under the mutex; which shards a given
  // checkpoint contains depends on completion order, but any completed
  // subset is a valid checkpoint, so that timing never leaks into the
  // final report.
  pool.ParallelFor(pending.size(), [&](std::size_t p) {
    const std::size_t s = pending[p];
    RunShard(spec_, options_, s, outputs_[s]);
    std::lock_guard<std::mutex> lock(mu);
    done_[s] = 1;
    ++completed_this_run;
    const bool stop = options_.stop_after_shards != 0 &&
                      completed_this_run >= options_.stop_after_shards;
    if (checkpointing && (stop || completed_this_run % every == 0)) {
      Checkpoint();
    }
    if (stop) {
      throw Error("campaign: stopped after " +
                  std::to_string(completed_this_run) +
                  " shard completions (stop_after_shards test hook)");
    }
  });
  // The in-loop cadence may leave a remainder; the post-run state is
  // always durable, so resuming a *finished* campaign re-runs nothing.
  if (checkpointing) Checkpoint();

  const std::size_t cells = spec_.CellCount();
  result_.spec = spec_;
  result_.keys.clear();
  result_.keys.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    result_.keys.push_back(KeyOf(spec_, c));
  }
  result_.cells.assign(cells, CellStats(spec_));
  for (ShardOutput& out : outputs_) {
    for (std::size_t c = 0; c < cells; ++c) {
      result_.cells[c].Merge(out.cells[c]);
    }
    result_.shards.push_back(out.exec);
    MergeTiers(result_.tiers, out.exec.tiers);
    result_.quarantined += out.exec.quarantine.size();
    // Restored shards carry no metrics registry (wall-clock data is
    // not checkpointed).
    if (out.metrics != nullptr) metrics_->MergeFrom(*out.metrics);
  }
  // The per-shard check bounds each shard; the fleet-wide total can
  // still exceed the cap when the damage is spread across shards.
  if (spec_.quarantine_cap > 0 &&
      result_.quarantined > spec_.quarantine_cap) {
    throw InvalidArgument("campaign: quarantine cap exceeded (cap " +
                          std::to_string(spec_.quarantine_cap) + ")");
  }
  for (const CellStats& cell : result_.cells) {
    result_.fleet.Merge(cell.ToFleetStats());
    result_.oracle_sampled += cell.oracle_sampled;
  }
  return result_;
}

report::LatencyStats Campaign::RescheduleLatency() const {
  report::LatencyStats stats;
  const std::string name = "reschedule.latency_us";
  stats.samples = metrics_->samples(name);
  stats.p50_ms = metrics_->quantile(name, 0.5) / 1000.0;
  stats.p99_ms = metrics_->quantile(name, 0.99) / 1000.0;
  stats.max_ms = metrics_->quantile(name, 1.0) / 1000.0;
  return stats;
}

util::Expected<std::unique_ptr<Campaign>> RunCampaignFile(
    std::istream& is, std::size_t jobs, std::ostream& report_os) {
  util::Expected<CampaignSpec> spec = ParseCampaignFile(is);
  if (!spec.ok()) return spec.error();
  try {
    CampaignOptions options;
    options.jobs = jobs;
    auto campaign =
        std::make_unique<Campaign>(std::move(spec).value(), options);
    campaign->Run().Write(report_os);
    return campaign;
  } catch (const Error& e) {
    return util::Error::Invalid(e.what());
  }
}

}  // namespace actg::campaign
