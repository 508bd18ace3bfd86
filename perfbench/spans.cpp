#include "spans.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "json.h"

namespace perfbench {

namespace {

double NearestRank(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void WriteEvent(std::ostream& os, bool& first, const Span& span, char ph,
                int tid) {
  const std::string name(span.name);
  const std::string cat = name.substr(0, name.find('.'));
  const std::int64_t ns = ph == 'B' ? span.begin_ns : span.end_ns;
  os << (first ? "\n" : ",\n");
  first = false;
  os << "{\"name\": " << JsonObject::Quote(name)
     << ", \"cat\": " << JsonObject::Quote(cat) << ", \"ph\": \"" << ph
     << "\", \"ts\": " << std::max<std::int64_t>(ns / 1000, 0)
     << ", \"pid\": 1, \"tid\": " << tid;
  if (ph == 'B') os << ", \"args\": {\"instance\": " << span.instance << "}";
  os << "}";
}

}  // namespace

std::int64_t Lane::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::size_t Lane::Open(const char* name, std::uint64_t instance) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.instance = instance;
  span.begin_ns = Now();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Lane::Close(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = Now();
  return 1e-6 * static_cast<double>(span.end_ns - span.begin_ns);
}

std::map<std::string, LayerStats> Summarize(const std::vector<Lane>& lanes) {
  std::map<std::string, LayerStats> out;
  std::map<std::string, std::vector<double>> durations;
  for (const Lane& lane : lanes) {
    const std::vector<Span>& spans = lane.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ms[static_cast<std::size_t>(span.parent)] +=
            1e-6 * static_cast<double>(span.end_ns - span.begin_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double ms = 1e-6 * static_cast<double>(span.end_ns - span.begin_ns);
      LayerStats& stats = out[span.name];
      ++stats.calls;
      stats.busy_ms += ms;
      stats.self_ms += ms - child_ms[i];
      durations[span.name].push_back(ms);
    }
  }
  for (auto& [name, values] : durations) {
    std::sort(values.begin(), values.end());
    LayerStats& stats = out[name];
    stats.p50_ms = NearestRank(values, 0.5);
    stats.p99_ms = NearestRank(values, 0.99);
    stats.max_ms = values.back();
  }
  return out;
}

void WriteChromeEvents(std::ostream& os, const std::vector<Lane>& lanes,
                       bool& first) {
  for (const Lane& lane : lanes) {
    // Spans are stored in open order; replaying them against a stack
    // of open spans emits a correctly nested B/E sequence.
    const std::vector<Span>& spans = lane.spans();
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() &&
             static_cast<std::int32_t>(open.back()) != spans[i].parent) {
        WriteEvent(os, first, spans[open.back()], 'E', lane.tid());
        open.pop_back();
      }
      WriteEvent(os, first, spans[i], 'B', lane.tid());
      open.push_back(i);
    }
    while (!open.empty()) {
      WriteEvent(os, first, spans[open.back()], 'E', lane.tid());
      open.pop_back();
    }
  }
}

}  // namespace perfbench
