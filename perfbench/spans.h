/// \file spans.h
/// In-memory spans recorded around calls into the program's layers,
/// the per-layer statistics derived from them, and the Chrome
/// trace_event export (the format docs/trace_event.schema.json
/// describes).

#ifndef ACTG_PERFBENCH_SPANS_H
#define ACTG_PERFBENCH_SPANS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  /// "layer.function"; a string literal.
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same lane, or -1.
  std::int32_t parent = -1;
  /// Population index (campaigns) or tenant index (serve).
  std::uint64_t instance = 0;
};

/// The spans of one single-threaded unit of work (a campaign shard, a
/// serve tenant). Spans nest strictly within a lane.
class Lane {
 public:
  Lane(int tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {}

  std::size_t Open(const char* name, std::uint64_t instance);
  /// Closes span \p index, which must be the innermost open one.
  /// Returns its duration in ms.
  double Close(std::size_t index);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Now() const;

  int tid_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Lane& lane, const char* name, std::uint64_t instance)
      : lane_(lane), index_(lane.Open(name, instance)) {}
  ~Scoped() {
    if (!closed_) lane_.Close(index_);
  }
  /// Closes early; returns the duration in ms.
  double Close() {
    closed_ = true;
    return lane_.Close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Lane& lane_;
  std::size_t index_;
  bool closed_ = false;
};

/// Aggregate of every span with one name.
struct LayerStats {
  std::size_t calls = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Per-name statistics over \p lanes. Self time is a span's duration
/// minus the time its direct children cover.
std::map<std::string, LayerStats> Summarize(const std::vector<Lane>& lanes);

/// Appends \p lanes' spans as Chrome trace_event B/E pairs, tid = lane
/// tid. \p first tracks whether a separator is needed.
void WriteChromeEvents(std::ostream& os, const std::vector<Lane>& lanes,
                       bool& first);

}  // namespace perfbench

#endif  // ACTG_PERFBENCH_SPANS_H
