#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace wadp::obs {
namespace {

/// Exact quantile by sort, nearest-rank with interpolation disabled —
/// the histogram only promises to land within one bucket of this.
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

TEST(HistogramTest, EmptyIsAllZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
}

TEST(HistogramTest, MomentsAreExact) {
  // min/max/mean come from RunningStats, not buckets, so they are exact
  // even though quantiles are approximate.
  Histogram histogram;
  for (const double v : {3.0, 1.0, 4.0, 1.5, 9.25}) histogram.record(v);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 9.25);
  EXPECT_DOUBLE_EQ(histogram.sum(), 18.75);
  EXPECT_DOUBLE_EQ(histogram.mean(), 3.75);
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  std::size_t last = 0;
  for (double v = 1e-6; v < 1e9; v *= 1.37) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_GE(index, last) << "at value " << v;
    last = index;
  }
}

TEST(HistogramTest, ValueFallsWithinItsBucketBounds) {
  for (const double v : {0.001, 0.7, 1.0, 1.5, 17.0, 1234.5, 9.9e8}) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(index)) << "at value " << v;
    if (index > 0) {
      // Buckets are lower-inclusive: a value exactly on a boundary
      // belongs to the bucket above it.
      EXPECT_GE(v, Histogram::bucket_upper_bound(index - 1))
          << "at value " << v;
    }
  }
}

TEST(HistogramTest, NonPositiveSamplesUnderflowButFeedMoments) {
  Histogram histogram;
  histogram.record(-2.0);
  histogram.record(0.0);
  histogram.record(8.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.min(), -2.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 8.0);
  // Two of three samples sit in the underflow bucket -> p50 is 0.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantilesClampToObservedRange) {
  Histogram histogram;
  for (const double v : {5.0, 6.0, 7.0}) histogram.record(v);
  EXPECT_GE(histogram.quantile(0.0), 5.0);
  EXPECT_LE(histogram.quantile(1.0), 7.0);
}

TEST(HistogramTest, InfinityLandsInOverflowNanInUnderflow) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Histogram::bucket_index(kInf), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(-kInf), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
}

TEST(HistogramTest, InfiniteSamplesReadInfiniteQuantiles) {
  // 10 finite samples under 90 +inf ones: the median and the tail are
  // +inf — never 0 (the underflow bound) and never NaN from inf * 0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Histogram mixed;
  for (int i = 0; i < 10; ++i) mixed.record(1.0);
  for (int i = 0; i < 90; ++i) mixed.record(kInf);
  EXPECT_EQ(mixed.quantile(0.5), kInf);
  EXPECT_EQ(mixed.quantile(0.99), kInf);
  EXPECT_EQ(mixed.quantile(1.0), kInf);
  EXPECT_LE(mixed.quantile(0.0), 1.0625);  // the 1.0 bucket's bound

  Histogram all_inf;
  for (int i = 0; i < 3; ++i) all_inf.record(kInf);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(all_inf.quantile(q), kInf) << "at q=" << q;
  }
}

TEST(HistogramTest, BoundedWalkMatchesFullArrayWalk) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {},
      {-3.0, -0.5},
      {0.0, 0.0},
      {std::nan(""), 2.0},
      {std::nan("")},
      {kInf, 4.0, -kInf},
      {-kInf},
      {1e-30, 1e-5, 3.0, 1e25},
      {-1.0, 0.0, 0.75, 1.0, 1.5, 1024.0, std::nan(""), kInf},
  };
  std::vector<Histogram::BucketCount> walked;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    Histogram histogram;
    // Reference: every sample's bucket counted into a full array,
    // then read back over all kBucketCount slots.
    std::vector<std::uint64_t> full(Histogram::kBucketCount, 0);
    for (const double v : cases[c]) {
      histogram.record(v);
      ++full[Histogram::bucket_index(v)];
    }
    std::vector<Histogram::BucketCount> expected;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (full[i] != 0) expected.push_back({i, full[i]});
    }
    const std::uint64_t total = histogram.walk_buckets(walked);
    EXPECT_EQ(total, cases[c].size()) << "case " << c;
    ASSERT_EQ(walked.size(), expected.size()) << "case " << c;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(walked[i].index, expected[i].index) << "case " << c;
      EXPECT_EQ(walked[i].count, expected[i].count) << "case " << c;
    }
  }
}

TEST(HistogramAccuracyTest, QuantilesWithinLogLinearBoundVsExactSort) {
  // 16 sub-buckets per octave bound the relative width of any bucket by
  // 1/16 of its octave => <= ~6-7% relative error on any quantile.
  constexpr double kRelativeBound = 0.07;
  // Deterministic LCG: a spread of magnitudes across several octaves.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 33) / 4294967296.0;  // [0,1)
  };
  Histogram histogram;
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(next() * 8.0 - 2.0);  // ~[0.14, 400)
    values.push_back(v);
    histogram.record(v);
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double approx = histogram.quantile(q);
    EXPECT_NEAR(approx, exact, kRelativeBound * exact) << "at q=" << q;
  }
}

}  // namespace
}  // namespace wadp::obs
