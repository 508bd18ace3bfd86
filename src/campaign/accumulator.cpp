#include "campaign/accumulator.h"

#include <cmath>

namespace actg::campaign {

namespace {

/// Quantizes x to kScaleBits fractional bits, clamped to +/- 2^40 so
/// the squared sum can never overflow 128 bits over any realistic
/// population (2^40 quantized -> 2^80 squared -> 2^110 after 2^30
/// observations).
std::int64_t Quantize(double x) {
  constexpr double kScale =
      static_cast<double>(std::int64_t{1} << Moments::kScaleBits);
  constexpr double kLimit = 1099511627776.0;  // 2^40
  if (x > kLimit) x = kLimit;
  if (x < -kLimit) x = -kLimit;
  return std::llround(x * kScale);
}

constexpr double kInvScale =
    1.0 / static_cast<double>(std::int64_t{1} << Moments::kScaleBits);

}  // namespace

void Moments::Observe(double x) {
  const std::int64_t q = Quantize(x);
  ++count_;
  sum_q_ += q;
  sum_sq_q_ += static_cast<__int128>(q) * q;
}

void Moments::Merge(const Moments& other) {
  count_ += other.count_;
  sum_q_ += other.sum_q_;
  sum_sq_q_ += other.sum_sq_q_;
}

double Moments::sum() const {
  return static_cast<double>(sum_q_) * kInvScale;
}

double Moments::mean() const {
  if (count_ == 0) return 0.0;
  return sum() / static_cast<double>(count_);
}

double Moments::m2() const {
  if (count_ < 2) return 0.0;
  // M2 = sum(x^2) - sum(x)^2 / n, on the exact integer sums. The
  // subtraction happens in doubles, but both operands are pure
  // functions of the exact state, so the result is split-invariant.
  const double sq = static_cast<double>(sum_sq_q_) * kInvScale * kInvScale;
  const double s = sum();
  const double m2 = sq - s * s / static_cast<double>(count_);
  return m2 > 0.0 ? m2 : 0.0;
}

double Moments::variance() const {
  if (count_ < 2) return 0.0;
  return m2() / static_cast<double>(count_);
}

bool Moments::operator==(const Moments& other) const {
  return count_ == other.count_ && sum_q_ == other.sum_q_ &&
         sum_sq_q_ == other.sum_sq_q_;
}

Moments Moments::FromRaw(std::size_t count, __int128 sum_q,
                         __int128 sum_sq_q) {
  Moments m;
  m.count_ = count;
  m.sum_q_ = sum_q;
  m.sum_sq_q_ = sum_sq_q;
  return m;
}

}  // namespace actg::campaign
