#include "runtime/metrics.h"

#include "util/error.h"

namespace actg::runtime {

Metrics& Metrics::Global() {
  static Metrics metrics;
  return metrics;
}

void Metrics::Increment(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::uint64_t Metrics::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Metrics::RecordTime(const std::string& name, std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  timer_ns_[name] += ns;
}

double Metrics::timer_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = timer_ns_.find(name);
  return it == timer_ns_.end() ? 0.0
                               : static_cast<double>(it->second) * 1e-6;
}

void Metrics::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  observations_[name].Observe(value);
}

std::size_t Metrics::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = observations_.find(name);
  return it == observations_.end()
             ? 0
             : static_cast<std::size_t>(it->second.count());
}

double Metrics::quantile(const std::string& name, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = observations_.find(name);
  return it == observations_.end() ? 0.0 : it->second.Quantile(q);
}

std::map<std::string, std::uint64_t> Metrics::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::map<std::string, double> Metrics::TimersMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, ns] : timer_ns_) {
    out[name] = static_cast<double>(ns) * 1e-6;
  }
  return out;
}

void Metrics::MergeFrom(const Metrics& other) {
  ACTG_CHECK(this != &other, "Metrics::MergeFrom: cannot merge a registry "
                             "into itself");
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, ns] : other.timer_ns_) {
    timer_ns_[name] += ns;
  }
  for (const auto& [name, histogram] : other.observations_) {
    observations_[name].Merge(histogram);
  }
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  timer_ns_.clear();
  observations_.clear();
}

void Metrics::WriteText(std::ostream& os) const {
  for (const auto& [name, value] : Counters()) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, ms] : TimersMs()) {
    os << name << "_ms " << ms << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, histogram] : observations_) {
    os << name << "_count " << histogram.count() << "\n";
    os << name << "_p50 " << histogram.Quantile(0.5) << "\n";
    os << name << "_p99 " << histogram.Quantile(0.99) << "\n";
  }
}

void Metrics::WriteCsv(std::ostream& os) const {
  os << "metric,kind,value\n";
  for (const auto& [name, value] : Counters()) {
    os << name << ",counter," << value << "\n";
  }
  for (const auto& [name, ms] : TimersMs()) {
    os << name << ",timer_ms," << ms << "\n";
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, histogram] : observations_) {
    os << name << ",dist_count," << histogram.count() << "\n";
    os << name << ",dist_p50," << histogram.Quantile(0.5) << "\n";
    os << name << ",dist_p99," << histogram.Quantile(0.99) << "\n";
  }
}

}  // namespace actg::runtime
