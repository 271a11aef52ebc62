// The resilience plane tags failed attempts and appends them to the
// same history series as successes.  The streaming prediction engine
// must stay prefix-equivalent to the stateless battery when those
// outcome-tagged records are interleaved into the series.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "predict/incremental.hpp"
#include "predict/suite.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wadp::predict {
namespace {

/// An irregular series where roughly a quarter of the entries are
/// failed attempts: partial transfers with low (but positive) observed
/// rates, exactly what the client's failure sink produces for a
/// truncated or timed-out attempt.
std::vector<Observation> series_with_failures(std::uint64_t seed,
                                              std::size_t n) {
  util::Rng rng(seed);
  const std::vector<Bytes> sizes = {1 * kMB,   10 * kMB,  100 * kMB,
                                    500 * kMB, 1000 * kMB};
  std::vector<Observation> out;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool failed = rng.uniform() < 0.25;
    out.push_back(
        {.time = t,
         // Failures observe the partial-progress rate, well below the
         // healthy band but positive (a failed attempt still has a
         // well-defined duration).
         .value = failed ? rng.uniform(1e4, 1e6) : rng.uniform(2e6, 9e6),
         .file_size = sizes[static_cast<std::size_t>(rng.uniform_int(0, 4))],
         .ok = !failed});
    t += rng.uniform(60.0, 4.0 * util::kSecondsPerHour);
  }
  return out;
}

bool bit_identical_family(const std::string& name) {
  return name.find("hr") == std::string::npos &&
         name.find("AR") == std::string::npos;
}

TEST(StreamingFailureEquivalenceTest, EveryPrefixAllThirtyPredictors) {
  const auto series = series_with_failures(23, 150);
  std::size_t failures = 0;
  for (const auto& obs : series) failures += obs.ok ? 0 : 1;
  ASSERT_GT(failures, 20u);  // the mix actually contains failures

  const auto suite = PredictorSuite::paper_suite();
  for (const auto& predictor : suite.predictors()) {
    auto state = predictor->stream();
    ASSERT_NE(state, nullptr) << predictor->name();
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Query query{.time = series[i].time,
                        .file_size = series[i].file_size};
      const auto batch = predictor->predict(
          std::span<const Observation>(series).first(i), query);
      const auto streamed = state->predict(query);
      ASSERT_EQ(batch.has_value(), streamed.has_value())
          << predictor->name() << " at prefix " << i;
      if (batch) {
        if (bit_identical_family(predictor->name())) {
          EXPECT_DOUBLE_EQ(*batch, *streamed)
              << predictor->name() << " at prefix " << i;
        } else {
          EXPECT_NEAR(*batch, *streamed,
                      std::max(1e-9, 1e-9 * std::abs(*batch)))
              << predictor->name() << " at prefix " << i;
        }
      }
      state->observe(series[i]);
    }
  }
}

}  // namespace
}  // namespace wadp::predict
