/// \file stats.h
/// Streaming statistics accumulators used by the simulator, the
/// campaign runner, the metrics registry and the benches.

#ifndef ACTG_UTIL_STATS_H
#define ACTG_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace actg::util {

/// Numerically stable streaming accumulator (Welford's algorithm) for
/// mean / variance / extrema of a sequence of observations.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added so far.
  std::size_t count() const { return count_; }

  /// Mean of the observations; 0 when empty.
  double mean() const { return mean_; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Smallest observation; +inf when empty.
  double min() const { return min_; }

  /// Largest observation; -inf when empty.
  double max() const { return max_; }

  /// Sum of all observations.
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_;
  double max_;
};

/// Mergeable log-linear histogram: the one distribution store (campaign
/// cell energies and makespans, runtime::Metrics latency distributions).
///
/// A positive value's bucket is its binary exponent plus its top 7
/// mantissa bits (the top 19 bits of its IEEE-754 pattern), so every
/// power of two splits into 128 equal sub-buckets; values <= 0 share one
/// zero bucket. There is no range, bin or precision knob. Counts are
/// integers kept only for occupied buckets, so memory grows with the
/// distinct buckets seen — at most 128 per octave the samples span —
/// and never with the sample count or the value range.
///
/// Quantile is nearest rank and returns the lower edge of the bucket
/// holding the rank: never above the true sample, less than 2^-7
/// (0.78 %) below it, exact for integers up to 256, and the exact max at
/// the top rank. The zero bucket's lower edge is the exact min.
///
/// Integer counts plus exact min and max make Merge bit-exactly
/// associative and commutative: any shard split and merge order of the
/// same samples yields identical state, which the campaign's
/// shard-split and resume contracts rely on.
class Histogram {
 public:
  /// Sub-buckets per power of two, as a bit count.
  static constexpr int kSubBucketBits = 7;

  /// One occupied bucket.
  struct Bucket {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    bool operator==(const Bucket&) const = default;
  };

  /// Adds one observation.
  void Observe(double x);

  /// Folds \p other in.
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  /// Exact extrema; +inf / -inf when empty.
  double min() const { return min_; }
  double max() const { return max_; }
  /// Occupied buckets in increasing key (and value) order.
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Nearest-rank quantile (q clamped to [0, 1]) at bucket resolution,
  /// as described above; 0 on an empty histogram.
  double Quantile(double q) const;

  /// Bit-exact state equality.
  bool operator==(const Histogram& other) const = default;

  /// Checkpoint codec access: rebuilds a histogram from its exact state
  /// (the count is the sum of the bucket counts). Throws
  /// InvalidArgument unless keys strictly increase and counts are
  /// positive.
  static Histogram FromRaw(double min, double max,
                           std::vector<Bucket> buckets);

 private:
  /// Adds \p count to bucket \p key, searching from \p from (no later
  /// than the key's position); returns the bucket.
  std::vector<Bucket>::iterator Add(std::vector<Bucket>::iterator from,
                                    std::uint64_t key, std::uint64_t count);

  std::uint64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<Bucket> buckets_;
};

/// Exact quantile of a sample (linear interpolation between order
/// statistics). \p q must lie in [0, 1]; \p values must be non-empty.
double Quantile(std::vector<double> values, double q);

/// Arithmetic mean of a non-empty vector.
double Mean(const std::vector<double>& values);

}  // namespace actg::util

#endif  // ACTG_UTIL_STATS_H
