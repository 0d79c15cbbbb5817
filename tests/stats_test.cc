#include "util/stats.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <string>

#include "core/execution_stats.h"

namespace relax::util {
namespace {

TEST(OnlineStats, EmptyIsZeroCount) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-6);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 0.5);
    all.add(i * 0.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(ExponentialHistogram, BucketsByPowerOfTwo) {
  ExponentialHistogram h;
  h.add(0);  // bucket 0: values {0}
  h.add(1);  // bucket 1: values {1, 2}
  h.add(2);
  h.add(3);  // bucket 2: values {3..6}
  h.add(6);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.max_value(), 6u);
  ASSERT_GE(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 2u);
}

TEST(ExponentialHistogram, TailFractionExactOnSmallSamples) {
  ExponentialHistogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_DOUBLE_EQ(h.tail_fraction_at_least(0), 1.0);
  EXPECT_DOUBLE_EQ(h.tail_fraction_at_least(50), 0.5);
  EXPECT_DOUBLE_EQ(h.tail_fraction_at_least(100), 0.0);
}

TEST(ExponentialHistogram, MergeAccumulates) {
  ExponentialHistogram a, b;
  a.add(1);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.max_value(), 100u);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, EmptyIsNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(ExecutionStats, MergeAccumulatesCounters) {
  relax::core::ExecutionStats a, b;
  a.iterations = 10;
  a.processed = 6;
  a.failed_deletes = 2;
  b.iterations = 5;
  b.dead_skips = 3;
  b.empty_polls = 7;
  b.seconds = 1.5;
  a += b;
  EXPECT_EQ(a.iterations, 15u);
  EXPECT_EQ(a.processed, 6u);
  EXPECT_EQ(a.failed_deletes, 2u);
  EXPECT_EQ(a.dead_skips, 3u);
  EXPECT_EQ(a.empty_polls, 7u);
  EXPECT_DOUBLE_EQ(a.seconds, 1.5);
}

// Regression: the max must merge even from a stripe with rank_samples == 0
// (a stripe can carry a max observed elsewhere); it used to be dropped
// together with the sample-weighted mean.
TEST(ExecutionStats, MaxRankErrorMergesWithoutSamples) {
  relax::core::ExecutionStats a, b;
  a.rank_samples = 4;
  a.mean_rank_error = 2.0;
  a.max_rank_error = 8;
  b.rank_samples = 0;  // no mean contribution...
  b.max_rank_error = 99;  // ...but a larger max
  a += b;
  EXPECT_EQ(a.max_rank_error, 99u);
  EXPECT_EQ(a.rank_samples, 4u);
  EXPECT_DOUBLE_EQ(a.mean_rank_error, 2.0);
}

TEST(ExecutionStats, MergedWallOverridesSeconds) {
  relax::core::ExecutionStats s1, s2;
  s1.iterations = 3;
  s1.seconds = 0.4;  // busy time on worker 1
  s2.iterations = 5;
  s2.seconds = 0.6;  // busy time on worker 2
  const std::array<relax::core::ExecutionStats, 2> stripes{s1, s2};
  const auto total = relax::core::ExecutionStats::merged_wall(
      std::span<const relax::core::ExecutionStats>(stripes), 0.5);
  EXPECT_EQ(total.iterations, 8u);
  // Wall clock, not the 1.0s busy-time sum.
  EXPECT_DOUBLE_EQ(total.seconds, 0.5);
}

TEST(ExecutionStats, MergePropagatesSliceHistogramAndPerWorker) {
  relax::core::ExecutionStats a, b;
  a.slices = 2;
  a.slice_latency_ns.record(1000);
  a.slice_latency_ns.record(2000);
  b.slices = 1;
  b.slice_latency_ns.record(4000);
  b.per_worker.resize(2);
  b.per_worker[1].processed = 5;
  a += b;
  EXPECT_EQ(a.slices, 3u);
  EXPECT_EQ(a.slice_latency_ns.count(), 3u);
  EXPECT_EQ(a.slice_latency_ns.max(), 4000u);
  ASSERT_EQ(a.per_worker.size(), 2u);
  EXPECT_EQ(a.per_worker[1].processed, 5u);
}

// to_string must render every field that holds a nonzero value — a metric
// that exists but never prints is how telemetry rots.
TEST(ExecutionStats, ToStringMentionsEveryNonzeroField) {
  relax::core::ExecutionStats s;
  s.iterations = 1;
  s.processed = 2;
  s.failed_deletes = 3;
  s.dead_skips = 4;
  s.empty_polls = 5;
  s.seconds = 6.0;
  s.slices = 7;
  s.slice_latency_ns.record(8000);
  s.per_worker.resize(2);
  s.rank_samples = 9;
  s.mean_rank_error = 1.25;
  s.max_rank_error = 10;
  s.inversion_samples = 11;
  s.mean_inversions = 0.5;
  const std::string text = s.to_string();
  for (const char* field :
       {"iterations=", "processed=", "failed_deletes=", "dead_skips=",
        "empty_polls=", "seconds=", "slices=", "slice_p50_us=",
        "slice_p95_us=", "slice_p99_us=", "workers=", "mean_rank_error=",
        "max_rank_error=", "mean_inversions="}) {
    EXPECT_NE(text.find(field), std::string::npos)
        << "to_string() dropped '" << field << "': " << text;
  }
}

// A max_rank_error carried without samples still prints (same contract as
// the merge fix above).
TEST(ExecutionStats, ToStringShowsMaxRankWithoutSamples) {
  relax::core::ExecutionStats s;
  s.max_rank_error = 42;
  EXPECT_NE(s.to_string().find("max_rank_error=42"), std::string::npos);
}

}  // namespace
}  // namespace relax::util
