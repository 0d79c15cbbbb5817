#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace relax::util {

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void ExponentialHistogram::add(std::uint64_t value) noexcept {
  const unsigned bucket = std::bit_width(value + 1) - 1;
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++total_;
  sum_ += value;
  max_ = std::max(max_, value);
  if (raw_.size() < 1u << 16) raw_.push_back(value);
}

double ExponentialHistogram::tail_fraction_at_least(
    std::uint64_t threshold) const {
  if (total_ == 0) return 0.0;
  // Exact over the sampled reservoir when it covers everything.
  if (raw_.size() == total_) {
    std::uint64_t c = 0;
    for (std::uint64_t v : raw_)
      if (v >= threshold) ++c;
    return static_cast<double>(c) / static_cast<double>(total_);
  }
  // Otherwise conservative via buckets: count whole buckets whose minimum
  // value (2^b - 1) is >= threshold, plus the straddling bucket entirely.
  std::uint64_t c = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t bucket_max = (2ULL << b) - 2;  // max value in bucket b
    if (bucket_max >= threshold) c += buckets_[b];
  }
  return static_cast<double>(c) / static_cast<double>(total_);
}

double ExponentialHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  // Exact over the sampled reservoir when it covers everything.
  if (raw_.size() == total_) {
    std::vector<double> sample(raw_.begin(), raw_.end());
    return util::percentile(std::move(sample), clamped);
  }
  // Bucket walk: find the bucket holding the target rank, interpolate
  // linearly between the bucket's value bounds [2^b - 1, 2^(b+1) - 2].
  const double target =
      clamped / 100.0 * static_cast<double>(total_ - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (target < static_cast<double>(before + in_bucket)) {
      const double lo = static_cast<double>((1ULL << b) - 1);
      const double hi = static_cast<double>(
          std::min<std::uint64_t>((2ULL << b) - 2, max_));
      const double frac = in_bucket == 1
                              ? 0.0
                              : (target - static_cast<double>(before)) /
                                    static_cast<double>(in_bucket - 1);
      return lo + frac * (hi - lo);
    }
    before += in_bucket;
  }
  return static_cast<double>(max_);
}

void ExponentialHistogram::merge(const ExponentialHistogram& other) {
  if (other.buckets_.size() > buckets_.size())
    buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  total_ += other.total_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
  for (std::uint64_t v : other.raw_) {
    if (raw_.size() >= 1u << 16) break;
    raw_.push_back(v);
  }
}

std::string ExponentialHistogram::to_string() const {
  std::ostringstream os;
  os << "total=" << total_ << " max=" << max_;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    os << " [" << ((1ULL << b) - 1) << ".." << ((2ULL << b) - 2)
       << "]=" << buckets_[b];
  }
  return os.str();
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  const double idx = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sample[lo] * (1.0 - frac) + sample[hi] * frac;
}

}  // namespace relax::util
