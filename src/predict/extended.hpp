// Extended predictors beyond the paper's Fig. 4 battery.
//
// Section 4.1 notes that mean-based predictors vary in "the amount of
// weight put on each value"; Section 4.2 that window sizes "can be
// decided dynamically"; Section 4.3 that bandwidth correlates with
// file size.  The paper evaluates only the static battery and names the
// rest as variants/future work — these are those variants:
//
//  * EwmaPredictor         — exponentially weighted moving average,
//                            the classic "more weight on recent" mean.
//  * SizeRegressionPredictor — fits bandwidth = a + b*log(size) on the
//                            history and evaluates at the query size:
//                            classification's continuous cousin.
//  * AdaptiveWindowPredictor — picks the best last-N window per query
//                            by scoring each candidate window on the
//                            recent history it did not see (a small
//                            online cross-validation), per the
//                            dynamic-window discussion in Section 4.2.
//
// Each has a streaming form (stream()) that answers bit-identically to
// the stateless definition: EWMA is an O(1) recurrence, SREG keeps the
// window's (log10 size, value) pairs, ADAPT keeps only the suffix its
// holdout replay can read.
#pragma once

#include <vector>

#include "predict/predictors.hpp"
#include "predict/suite.hpp"

namespace wadp::predict {

/// EWMA over the whole history:
///   s_0 = x_0;  s_i = alpha * x_i + (1 - alpha) * s_{i-1}.
/// alpha in (0, 1]; alpha -> 1 degenerates to last-value, alpha -> 0 to
/// a long-memory mean.
class EwmaPredictor final : public Predictor {
 public:
  EwmaPredictor(std::string name, double alpha);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

/// Ordinary least squares of bandwidth on log10(file size) over the
/// window; the prediction evaluates the fitted line at the query size.
/// Unlike ClassifiedPredictor it uses *all* sizes as signal, so it can
/// answer for a class that has never been transferred.  Falls back to
/// the window mean when sizes are (nearly) constant; clamps at zero.
/// Only all-data and last-N windows are supported.
class SizeRegressionPredictor final : public Predictor {
 public:
  SizeRegressionPredictor(std::string name,
                          WindowSpec window = WindowSpec::all(),
                          std::size_t min_samples = 5);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;

 private:
  WindowSpec window_;
  std::size_t min_samples_;
};

/// Chooses, per query, among candidate last-N windows by replaying each
/// candidate over the most recent `holdout` observations (predicting
/// each from the history before it) and using the lowest-error window
/// for the real prediction.
class AdaptiveWindowPredictor final : public Predictor {
 public:
  AdaptiveWindowPredictor(std::string name,
                          std::vector<std::size_t> candidate_windows = {1, 5,
                                                                        15, 25},
                          std::size_t holdout = 10);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;

  /// The window predict() would use right now (for tests/diagnostics).
  std::optional<std::size_t> chosen_window(
      std::span<const Observation> history) const;

 private:
  std::vector<std::size_t> candidates_;
  std::size_t holdout_;
};

/// The extended battery: the paper's 30 plus classified variants of the
/// predictors above — used by the extended-battery ablation bench.
PredictorSuite extended_suite(
    SizeClassifier classifier = SizeClassifier::paper_classes());

}  // namespace wadp::predict
