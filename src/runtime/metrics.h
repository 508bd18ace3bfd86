/// \file metrics.h
/// Lightweight run-metrics registry for the runtime layer.
///
/// A Metrics instance holds named monotonic counters (cache hits,
/// re-schedule calls, simulated instances, ...) and named wall-clock
/// timers that accumulate time per pipeline stage (DLS, path
/// enumeration, stretching, simulation). All operations are thread-safe
/// so pool workers can report without coordination; the registry is
/// intentionally mutex-based rather than sharded — it sits outside the
/// hot inner loops (stage granularity, not per-task granularity).
///
/// Counter values are deterministic for a fixed workload regardless of
/// worker count; timer values are wall-clock and therefore not. Reports
/// that must be bit-identical across runs (the bench stdout tables)
/// print counters only; timers go to stderr or CSV dumps.

#ifndef ACTG_RUNTIME_METRICS_H
#define ACTG_RUNTIME_METRICS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "util/stats.h"

namespace actg::runtime {

/// Thread-safe registry of named counters and stage timers.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Process-wide registry used by default by the instrumented stages.
  static Metrics& Global();

  /// Adds \p delta to the named counter (creating it at zero).
  void Increment(const std::string& name, std::uint64_t delta = 1);

  /// Current value of a counter; zero when never incremented.
  std::uint64_t counter(const std::string& name) const;

  /// Adds \p ns nanoseconds to the named stage timer.
  void RecordTime(const std::string& name, std::int64_t ns);

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

  /// Clears every counter and timer (tests and per-phase reporting).
  void Reset();

  /// Plain-text dump: one "name value" line per counter, one
  /// "name_ms value" line per timer, and "name_p50 / name_p99 /
  /// name_count" lines per distribution.
  void WriteText(std::ostream& os) const;

  /// CSV dump with header "metric,kind,value".
  void WriteCsv(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> timer_ns_;
  std::map<std::string, util::Histogram> observations_;
};

/// RAII wall-clock timer: accumulates the scope's duration into a
/// Metrics stage timer and bumps the "<name>.calls" counter.
class ScopedTimer {
 public:
  ScopedTimer(Metrics& metrics, std::string name)
      : metrics_(metrics),
        name_(std::move(name)),
        begin_(std::chrono::steady_clock::now()) {}

  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    metrics_.RecordTime(
        name_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_)
            .count());
    metrics_.Increment(name_ + ".calls");
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Metrics& metrics_;
  std::string name_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_METRICS_H
