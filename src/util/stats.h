// Small statistics toolkit: online mean/variance (Welford), min/max,
// fixed-bucket and exponential histograms, and run-summary helpers used by
// the benchmark harnesses to report paper-style numbers (avg over trials,
// error bars as min/max).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace relax::util {

/// Welford online accumulator: numerically stable mean/variance plus min/max.
class OnlineStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  void merge(const OnlineStats& other) noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over non-negative integer values with power-of-two buckets:
/// bucket b counts values v with 2^b <= v+1 < 2^(b+1) (so value 0 lands in
/// bucket 0). Used to validate the exponential tail bounds of Definition 1.
class ExponentialHistogram {
 public:
  void add(std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  /// Fraction of samples with value >= threshold (exact, via raw tail sums
  /// maintained per bucket boundary; conservative within the boundary
  /// bucket).
  [[nodiscard]] double tail_fraction_at_least(std::uint64_t threshold) const;
  /// The p-th percentile (p in [0, 100]). Exact while the raw-sample
  /// reservoir still covers every added value (<= 2^16 samples); beyond
  /// that, linear interpolation inside the boundary power-of-two bucket —
  /// exact for bucket 0 ({0}) and within a factor of two elsewhere, which
  /// is the resolution rank-error reporting needs. 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  /// Maximum value ever added.
  [[nodiscard]] std::uint64_t max_value() const noexcept { return max_; }
  /// Exact mean over all added values (0 when empty).
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }
  void merge(const ExponentialHistogram& other);

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::vector<std::uint64_t> raw_;  // sampled raw values (capped reservoir)
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Percentile from an unsorted sample (copies + sorts; for bench reporting).
[[nodiscard]] double percentile(std::vector<double> sample, double p);

}  // namespace relax::util
