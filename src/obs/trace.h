/// \file trace.h
/// Structured tracing for the framework's online decision points.
///
/// A TraceSession records nested spans (begin/end pairs with thread id,
/// category and key/value args), counter samples and per-iteration
/// timeline rows. There is no process-wide session: whoever owns a unit
/// of work (a bench main, the CLI, a test) creates one and injects it
/// where the metrics registry travels — AdaptiveOptions::trace, from
/// which the controller hands it to its Rescheduler, and that to each
/// PathEngine it leases and its DLS workspace — or passes it to sim::RunTrace, sim::ExecuteInstance and
/// runtime::Pool. A stage handed no session records nothing, at the cost
/// of one null check (and, with ACTG_DISABLE_OBS, of nothing at all:
/// every site ignores the session it is given).
///
/// Sessions are exported through obs/export.h as Chrome trace_event
/// JSON (loadable in chrome://tracing or Perfetto) and as a
/// per-iteration CSV timeline; obs/setup.h wires --trace <file> /
/// ACTG_TRACE through the bench targets and the CLI.
///
/// Determinism contract: with TraceOptions::deterministic_clock the
/// timestamps are sequence numbers, so identical workloads produce
/// byte-identical exports; with the wall clock, the *content* (the
/// multiset of phase/name/category/args tuples) is still identical for
/// any --jobs count — only timestamps and thread ids vary.

#ifndef ACTG_OBS_TRACE_H
#define ACTG_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace actg::obs {

/// One key/value argument of a span or instant event. The value is kept
/// pre-rendered so the hot path never touches iostreams; \p quoted
/// tells the JSON exporter whether to emit it as a string.
struct TraceArg {
  std::string key;
  std::string value;
  bool quoted = false;
};

/// Integer-valued argument.
TraceArg IntArg(std::string key, std::int64_t value);
/// Floating-point argument (rendered with %.6g).
TraceArg NumArg(std::string key, double value);
/// String-valued argument (JSON-escaped by the exporter).
TraceArg StrArg(std::string key, std::string value);

/// Chrome trace_event phases the session can record.
enum class EventPhase : char {
  kBegin = 'B',    ///< span opens
  kEnd = 'E',      ///< span closes
  kCounter = 'C',  ///< counter sample
  kInstant = 'i',  ///< point event
};

/// One recorded event.
struct TraceEvent {
  EventPhase phase = EventPhase::kInstant;
  std::string name;
  std::string category;
  /// Microseconds since the session started, or a global sequence
  /// number under TraceOptions::deterministic_clock.
  std::uint64_t ts = 0;
  /// Dense thread id: threads are numbered 0, 1, ... by order of first
  /// appearance in the session.
  int tid = 0;
  std::vector<TraceArg> args;
};

/// One row of the per-iteration timeline export: the Gantt occupancy of
/// one PE during one controller iteration, merged with the DVFS stretch
/// state the iteration executed with.
struct TimelineRow {
  /// Fingerprint distinguishing concurrently traced controllers (e.g.
  /// the T=0.5 and T=0.1 harnesses of one comparison run).
  std::uint64_t unit = 0;
  std::uint64_t iteration = 0;  ///< instance index within the unit
  int pe = 0;
  int active_tasks = 0;         ///< active tasks mapped to this PE
  double busy_ms = 0.0;         ///< scaled execution time on this PE
  double mean_speed_ratio = 0.0;  ///< mean DVFS ratio of those tasks
  std::uint64_t reschedules = 0;  ///< controller reschedules so far
};

/// Session configuration.
struct TraceOptions {
  /// Replace wall-clock timestamps with sequence numbers so exports are
  /// byte-identical across runs (golden tests).
  bool deterministic_clock = false;
};

/// Thread-safe event recorder, injected by its owner (see the file
/// comment). Recording locks a mutex — tracing is an opt-in diagnosis
/// tool, not a steady-state cost — but the *disabled* path (no session)
/// is a single branch.
class TraceSession {
 public:
  explicit TraceSession(TraceOptions options = {});

  void BeginSpan(const char* name, const char* category,
                 std::vector<TraceArg> args = {});
  void EndSpan(const char* name, const char* category,
               std::vector<TraceArg> args = {});
  /// Records a counter sample (one "C" event with {name: value}).
  void Counter(const char* name, const char* category, double value);
  void Instant(const char* name, const char* category,
               std::vector<TraceArg> args = {});
  void AddTimelineRow(const TimelineRow& row);

  /// Snapshot of everything recorded so far.
  std::vector<TraceEvent> Events() const;
  std::vector<TimelineRow> Timeline() const;

  const TraceOptions& options() const { return options_; }

 private:
  void Record(EventPhase phase, const char* name, const char* category,
              std::vector<TraceArg> args);
  /// Timestamp + dense thread id; callers hold mu_.
  std::uint64_t NowLocked();
  int TidLocked();

  TraceOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::map<std::thread::id, int> tids_;
  std::vector<TraceEvent> events_;
  std::vector<TimelineRow> timeline_;
};

/// \p session, or nullptr when ACTG_DISABLE_OBS compiles tracing out.
/// Every instrumentation site filters the session it is handed through
/// this, so the disabled build records nothing and drops the recording
/// code as dead.
constexpr TraceSession* Recording(TraceSession* session) {
#ifdef ACTG_OBS_DISABLED
  (void)session;
  return nullptr;
#else
  return session;
#endif
}

/// RAII span: emits the Begin event on construction when given a
/// session, the End event (with any args accumulated via AddArg) on
/// destruction. Without one the cost is the null check.
class ScopedSpan {
 public:
  ScopedSpan(TraceSession* session, const char* name, const char* category)
      : session_(Recording(session)), name_(name), category_(category) {
    if (session_ != nullptr) session_->BeginSpan(name_, category_);
  }

  ~ScopedSpan() {
    if (session_ != nullptr) {
      session_->EndSpan(name_, category_, std::move(end_args_));
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when the span actually records; guard arg construction with
  /// this so disabled runs never format values.
  bool enabled() const { return session_ != nullptr; }

  /// Attaches an argument to the End event (Chrome merges B/E args in
  /// the span view); call only when enabled().
  void AddArg(TraceArg arg) { end_args_.push_back(std::move(arg)); }

 private:
  TraceSession* session_;
  const char* name_;
  const char* category_;
  std::vector<TraceArg> end_args_;
};

}  // namespace actg::obs

#endif  // ACTG_OBS_TRACE_H
