/// \file accumulator.h
/// Mergeable streaming moments for sharded Monte-Carlo campaigns.
///
/// A campaign simulates hundreds of thousands of application instances;
/// keeping per-instance result vectors (the pre-campaign benches' habit)
/// would make memory grow linearly with the population. A Moments
/// tracks count/mean/M2 in constant memory and folds one observation at
/// a time; quantiles come from util::Histogram, which obeys the same
/// merge law.
///
/// The merge law is the load-bearing design point. Shards accumulate
/// independently and the runner merges them at the end, and the fleet
/// report must be byte-identical for any --jobs count AND any shard
/// split of the same population. Floating-point summation cannot
/// deliver that (addition is neither associative nor commutative at the
/// bit level), so observations are quantized to a fixed point
/// (kScaleBits fractional bits) and accumulated in 128-bit integers:
/// integer addition is an abelian monoid, so merge(a, b) == merge(b, a)
/// and any shard split of the same observation multiset produces
/// bit-identical state. The double-valued views (mean/variance) are
/// derived from that exact state at read time and are therefore equally
/// split-invariant. test_campaign fuzzes exactly these laws.
///
/// Quantization bounds the usable range: |x| must stay below 2^40
/// (about 1e12) for the squared sums to fit 128 bits across a
/// billion-observation population; campaign observables (mJ, ms,
/// reschedule counts) sit many orders of magnitude below that.

#ifndef ACTG_CAMPAIGN_ACCUMULATOR_H
#define ACTG_CAMPAIGN_ACCUMULATOR_H

#include <cstddef>
#include <cstdint>

namespace actg::campaign {

/// Exact streaming count / mean / M2 accumulator. Internally integer
/// (fixed point), so Merge is bit-exactly associative and commutative.
class Moments {
 public:
  /// Fractional bits of the fixed-point quantization (~1e-6 absolute
  /// resolution).
  static constexpr int kScaleBits = 20;

  /// Folds one observation in. Values are clamped to the representable
  /// range (|x| < 2^40); campaign observables never approach it.
  void Observe(double x);

  /// Folds \p other in. Bit-exactly associative and commutative: any
  /// grouping of the same observation multiset yields identical state.
  void Merge(const Moments& other);

  std::size_t count() const { return count_; }
  /// Mean of the quantized observations; 0 on an empty accumulator.
  double mean() const;
  /// Sum of squared deviations from the mean (the "M2" of Welford's
  /// algorithm), derived from the exact sums; 0 when count < 2.
  double m2() const;
  /// Population variance M2 / count; 0 when count < 2.
  double variance() const;
  /// Sum of the quantized observations.
  double sum() const;

  /// Bit-exact state equality (count and both integer sums).
  bool operator==(const Moments& other) const;

  /// Checkpoint codec access: the exact integer state. Serializing
  /// (count, raw_sum, raw_sum_sq) and rebuilding via FromRaw round-trips
  /// bit-identically — the property the campaign resume path needs.
  __int128 raw_sum() const { return sum_q_; }
  __int128 raw_sum_sq() const { return sum_sq_q_; }
  static Moments FromRaw(std::size_t count, __int128 sum_q,
                         __int128 sum_sq_q);

 private:
  std::size_t count_ = 0;
  __int128 sum_q_ = 0;     ///< sum of quantized observations
  __int128 sum_sq_q_ = 0;  ///< sum of squared quantized observations
};

}  // namespace actg::campaign

#endif  // ACTG_CAMPAIGN_ACCUMULATOR_H
