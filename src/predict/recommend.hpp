// Predictor recommendation: which battery member to deploy for a
// series.
//
// This is the operational question behind the paper's evaluation — a
// site publishing predictions must pick a technique.  recommend() does
// what Section 6 does by hand: replay the series against the battery
// and rank by mean percentage error.  (The NWS alternative, dynamic
// selection at query time, is predict::DynamicSelector in
// predict/incremental.hpp.)
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "predict/evaluator.hpp"
#include "predict/suite.hpp"

namespace wadp::predict {

struct Recommendation {
  std::string predictor;  ///< lowest mean % error
  double mean_error = 0.0;
  /// Every answering predictor, ascending by mean error.
  std::vector<std::pair<std::string, double>> ranking;
};

/// nullopt when the series is too short for any predictor to answer
/// after the training prefix.
std::optional<Recommendation> recommend(std::span<const Observation> series,
                                        const PredictorSuite& suite,
                                        const EvalConfig& config = {});

}  // namespace wadp::predict
