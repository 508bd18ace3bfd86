/// \file metrics.h
/// Lightweight run-metrics registry for the runtime layer.
///
/// A Metrics instance holds named monotonic counters (cache hits,
/// re-schedule calls, simulated instances, ...) and named wall-clock
/// timers that accumulate time per pipeline stage (DLS, path
/// enumeration, stretching, reschedule). All operations are thread-safe
/// so pool workers can report without coordination; the registry is
/// intentionally mutex-based rather than sharded — it sits outside the
/// hot inner loops (stage granularity, not per-task granularity).
///
/// There is no process-wide registry. Whoever owns a unit of work (a
/// campaign shard, a serve daemon, a bench main, a test) creates one and
/// injects it: AdaptiveOptions / ReschedulerConfig::metrics, from which
/// the Rescheduler binds it to each PathEngine it leases
/// (PathEngineOptions) and that engine's DlsWorkspace. A stage reached without a registry
/// records nothing. The trace session travels beside it, in the field
/// `trace` of each of those structs.
///
/// Each instrumented stage records through one StageProbe, which feeds
/// the trace session and the registry from the same probe point.
///
/// Counter values are deterministic for a fixed workload regardless of
/// worker count; timer values are wall-clock and therefore not. Reports
/// that must be bit-identical across runs (the bench stdout tables)
/// print counters only; timers go to stderr or text dumps.

#ifndef ACTG_RUNTIME_METRICS_H
#define ACTG_RUNTIME_METRICS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "obs/trace.h"
#include "util/stats.h"

namespace actg::runtime {

/// Thread-safe registry of named counters and stage timers.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Adds \p delta to the named counter (creating it at zero).
  void Increment(const std::string& name, std::uint64_t delta = 1);

  /// Current value of a counter; zero when never incremented.
  std::uint64_t counter(const std::string& name) const;

  /// One call of stage \p name lasting \p ns nanoseconds: adds the time
  /// to the timer and one to the counter "<name>.calls" under one lock,
  /// so a concurrent dump never pairs a timer with a stale call count.
  void RecordCall(const std::string& name, std::int64_t ns);

  /// Accumulated time of a stage timer in milliseconds.
  double timer_ms(const std::string& name) const;

  /// Records one sample into the named distribution (creating it
  /// empty). A distribution is a util::Histogram, so its memory is
  /// bounded by the distinct buckets seen, not the sample count.
  /// Distributions power the per-SLA latency percentiles of the serve
  /// daemon and the campaign's reschedule latencies; like timers they
  /// hold wall-clock data, so they never feed deterministic reports.
  void Observe(const std::string& name, double value);

  /// Number of samples observed for a distribution; zero when absent.
  std::size_t samples(const std::string& name) const;

  /// Nearest-rank quantile (q in [0, 1]) of a distribution at
  /// util::Histogram resolution (the exact max at q = 1); 0 when the
  /// distribution is empty or absent.
  double quantile(const std::string& name, double q) const;

  /// Snapshot of all counters (name -> value).
  std::map<std::string, std::uint64_t> Counters() const;

  /// Snapshot of all timers (name -> accumulated ms, with call counts
  /// available as Counters() entry "<name>.calls").
  std::map<std::string, double> TimersMs() const;

  /// Folds \p other into this registry: counters and timers add,
  /// distributions merge. The campaign runner gives every
  /// shard a private registry and merges them in shard order, so shard
  /// workers never contend on one mutex. Merging a registry into itself
  /// throws; \p other is left untouched.
  void MergeFrom(const Metrics& other);

  /// Plain-text dump: one "name value" line per counter, one
  /// "name_ms value" line per timer, and "name_p50 / name_p99 /
  /// name_count" lines per distribution.
  void WriteText(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> timer_ns_;
  std::map<std::string, util::Histogram> observations_;
};

/// The one probe of an instrumented stage (sched.dls, dvfs.enumerate,
/// dvfs.stretch, adaptive.reschedule). On construction it opens the
/// span \p name on \p session when one is given (and tracing is
/// compiled in, see obs::Recording), and starts the clock
/// when \p metrics is given. Finish() — or destruction — closes the
/// span and adds the elapsed time to the timer \p name plus one to the
/// counter "<name>.calls". With neither a session nor a registry it
/// records nothing and reads no clock. \p name and \p category must
/// outlive the probe (string literals at every site).
class StageProbe {
 public:
  StageProbe(Metrics* metrics, obs::TraceSession* session, const char* name,
             const char* category)
      : metrics_(metrics), name_(name) {
    if (obs::Recording(session) != nullptr) {
      span_.emplace(session, name, category);
    }
    if (metrics_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }

  ~StageProbe() { Finish(); }

  StageProbe(const StageProbe&) = delete;
  StageProbe& operator=(const StageProbe&) = delete;

  /// True while the span records; guard arg construction with this so
  /// untraced runs never format values.
  bool tracing() const { return span_.has_value(); }

  /// Attaches an argument to the span's End event; call only when
  /// tracing().
  void AddArg(obs::TraceArg arg) { span_->AddArg(std::move(arg)); }

  /// Ends the stage now and returns its duration in nanoseconds, read
  /// from the same clock sample the timer records (0 without a
  /// registry). Later calls return 0 and, like the destructor, record
  /// nothing.
  std::int64_t Finish() {
    span_.reset();
    if (metrics_ == nullptr) return 0;
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin_)
            .count();
    metrics_->RecordCall(name_, ns);
    metrics_ = nullptr;
    return ns;
  }

 private:
  Metrics* metrics_;
  const char* name_;
  std::chrono::steady_clock::time_point begin_;
  std::optional<obs::ScopedSpan> span_;
};

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_METRICS_H
