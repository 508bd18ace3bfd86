#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"

namespace actg::util {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bits below a bucket key in a double's IEEE-754 pattern.
constexpr int kKeyShift = 52 - Histogram::kSubBucketBits;

/// Positive doubles order like their bit patterns, so the top bits
/// (biased exponent, then the leading mantissa bits) are a monotone
/// bucket key. Key 0 is the zero bucket.
std::uint64_t BucketKey(double x) {
  return x > 0.0 ? std::bit_cast<std::uint64_t>(x) >> kKeyShift : 0;
}

double LowerEdge(std::uint64_t key) {
  return std::bit_cast<double>(key << kKeyShift);
}

}  // namespace

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = kInf;
    max_ = -kInf;
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta *
                         (static_cast<double>(count_) *
                          static_cast<double>(other.count_) / total);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

std::vector<Histogram::Bucket>::iterator Histogram::Add(
    std::vector<Bucket>::iterator from, std::uint64_t key,
    std::uint64_t count) {
  const auto at = std::lower_bound(
      from, buckets_.end(), key,
      [](const Bucket& b, std::uint64_t k) { return b.key < k; });
  if (at != buckets_.end() && at->key == key) {
    at->count += count;
    return at;
  }
  return buckets_.insert(at, Bucket{key, count});
}

void Histogram::Observe(double x) {
  Add(buckets_.begin(), BucketKey(x), 1);
  ++count_;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Histogram::Merge(const Histogram& other) {
  // other's keys increase, so each search starts at the previous hit.
  auto at = buckets_.begin();
  for (const Bucket& b : other.buckets_) at = Add(at, b.key, b.count);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the k-th smallest sample, k = max(1, ceil(q * count)).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  if (rank >= count_) return max_;
  std::uint64_t seen = 0;
  for (const Bucket& b : buckets_) {
    seen += b.count;
    if (rank <= seen) return b.key == 0 ? min_ : LowerEdge(b.key);
  }
  return max_;
}

Histogram Histogram::FromRaw(double min, double max,
                             std::vector<Bucket> buckets) {
  Histogram h;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].count == 0 ||
        (i > 0 && buckets[i - 1].key >= buckets[i].key)) {
      throw InvalidArgument(
          "histogram bucket keys must strictly increase and counts must "
          "be positive");
    }
    h.count_ += buckets[i].count;
  }
  h.min_ = min;
  h.max_ = max;
  h.buckets_ = std::move(buckets);
  return h;
}

double Quantile(std::vector<double> values, double q) {
  ACTG_CHECK(!values.empty(), "Quantile of an empty sample");
  ACTG_CHECK(q >= 0.0 && q <= 1.0, "Quantile order must be in [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Mean(const std::vector<double>& values) {
  ACTG_CHECK(!values.empty(), "Mean of an empty sample");
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

}  // namespace actg::util
