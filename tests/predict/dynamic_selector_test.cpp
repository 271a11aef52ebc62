// NWS-style dynamic selection (predict::DynamicSelector) over small
// candidate sets and the paper battery.
#include "predict/incremental.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "predict/suite.hpp"

namespace wadp::predict {
namespace {

Observation obs(double t, double value, Bytes size = kMB) {
  return {.time = t, .value = value, .file_size = size};
}

TEST(DynamicSelectorTest, PicksTheAccuratePredictor) {
  // Series alternates 2, 8, 2, 8 ... LV is always maximally wrong;
  // the full-history median settles near 5.  MED beats LV, and the
  // selector must converge on it.
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<LastValuePredictor>(),
      std::make_shared<MedianPredictor>("MED", WindowSpec::all()),
  };
  DynamicSelector selector("DYN", candidates);
  for (int i = 0; i < 40; ++i) {
    selector.observe(obs(i * 10.0, i % 2 == 0 ? 2.0 : 8.0));
  }
  EXPECT_EQ(selector.current_choice(), "MED");
}

TEST(DynamicSelectorTest, PicksLastValueOnSmoothSeries) {
  // Slow drift: LV tracks it closely; the all-history mean lags.
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<MeanPredictor>("AVG", WindowSpec::all()),
      std::make_shared<LastValuePredictor>(),
  };
  DynamicSelector selector("DYN", candidates);
  for (int i = 0; i < 60; ++i) {
    selector.observe(obs(i * 10.0, 100.0 + 5.0 * i));
  }
  EXPECT_EQ(selector.current_choice(), "LV");
}

TEST(DynamicSelectorTest, DefaultsToFirstCandidateWithoutHistory) {
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<MeanPredictor>("AVG", WindowSpec::all()),
      std::make_shared<LastValuePredictor>(),
  };
  DynamicSelector selector("DYN", candidates);
  EXPECT_EQ(selector.current_choice(), "AVG");
  EXPECT_FALSE(selector.predict({.time = 0.0, .file_size = kMB}).has_value());
}

TEST(DynamicSelectorTest, PredictsWithChosenCandidate) {
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<LastValuePredictor>(),
  };
  DynamicSelector selector("DYN", candidates);
  selector.observe(obs(1.0, 3.0));
  selector.observe(obs(2.0, 7.0));
  EXPECT_DOUBLE_EQ(*selector.predict({.time = 3.0, .file_size = kMB}), 7.0);
}

TEST(DynamicSelectorTest, ScoresExposeTrackRecord) {
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<LastValuePredictor>(),
      std::make_shared<MeanPredictor>("AVG", WindowSpec::all()),
  };
  DynamicSelector selector("DYN", candidates);
  for (int i = 0; i < 10; ++i) selector.observe(obs(i * 10.0, 5.0));
  const auto scores = selector.scores();
  ASSERT_EQ(scores.size(), 2u);
  // Constant series: both are exact once they have history.
  EXPECT_DOUBLE_EQ(scores[0].second, 0.0);
  EXPECT_DOUBLE_EQ(scores[1].second, 0.0);
}

TEST(DynamicSelectorTest, SelectorOverPaperBatteryRuns) {
  const auto battery = PredictorSuite::context_insensitive();
  DynamicSelector selector("DYN", battery.predictors());
  for (int i = 0; i < 50; ++i) {
    selector.observe(obs(i * 100.0, 5e6 + (i % 7) * 1e5, 100 * kMB));
  }
  const auto prediction =
      selector.predict({.time = 5000.0, .file_size = 100 * kMB});
  ASSERT_TRUE(prediction.has_value());
  EXPECT_GT(*prediction, 4e6);
  EXPECT_LT(*prediction, 7e6);
}

}  // namespace
}  // namespace wadp::predict
