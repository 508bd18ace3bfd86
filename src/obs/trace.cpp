#include "obs/trace.h"

#include <cstdio>
#include <utility>

namespace actg::obs {

TraceArg IntArg(std::string key, std::int64_t value) {
  return TraceArg{std::move(key), std::to_string(value), false};
}

TraceArg NumArg(std::string key, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return TraceArg{std::move(key), buffer, false};
}

TraceArg StrArg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), true};
}

TraceSession::TraceSession(TraceOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceSession::NowLocked() {
  if (options_.deterministic_clock) return next_seq_++;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int TraceSession::TidLocked() {
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

void TraceSession::Record(EventPhase phase, const char* name,
                          const char* category,
                          std::vector<TraceArg> args) {
  const std::lock_guard<std::mutex> lock(mu_);
  TraceEvent event;
  event.phase = phase;
  event.name = name;
  event.category = category;
  event.ts = NowLocked();
  event.tid = TidLocked();
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void TraceSession::BeginSpan(const char* name, const char* category,
                             std::vector<TraceArg> args) {
  Record(EventPhase::kBegin, name, category, std::move(args));
}

void TraceSession::EndSpan(const char* name, const char* category,
                           std::vector<TraceArg> args) {
  Record(EventPhase::kEnd, name, category, std::move(args));
}

void TraceSession::Counter(const char* name, const char* category,
                           double value) {
  Record(EventPhase::kCounter, name, category, {NumArg(name, value)});
}

void TraceSession::Instant(const char* name, const char* category,
                           std::vector<TraceArg> args) {
  Record(EventPhase::kInstant, name, category, std::move(args));
}

void TraceSession::AddTimelineRow(const TimelineRow& row) {
  const std::lock_guard<std::mutex> lock(mu_);
  timeline_.push_back(row);
}

std::vector<TraceEvent> TraceSession::Events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TimelineRow> TraceSession::Timeline() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return timeline_;
}

}  // namespace actg::obs
