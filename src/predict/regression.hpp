// Regression and hybrid predictors: the Vazhkudai & Schopf sequel.
//
// "Using Regression Techniques to Predict Large Data Transfers" shows
// that regressing achieved GridFTP bandwidth on end-system disk-I/O
// throughput — and on disk plus a network probe — beats the univariate
// mean/median battery of the source paper; the source paper itself
// speculates about NWS-probe+GridFTP hybrids.  These predictors consume
// the disk/probe fields the instrumented log now carries (DISK=/PROBE=
// keys; see gridftp/record.hpp):
//
//  * kDisk        (DREG) — bw = a + b*disk, simple linear regression.
//  * kProbeDisk   (MREG) — bw = a + b*probe + c*disk, the paper's
//                          multivariate fit via 2-regressor normal
//                          equations.
//  * kDiskQuad    (PREG) — bw = a + b*disk + c*disk^2, the polynomial
//                          variant (same solver, x2 = disk^2).
//  * kHybridRatio (HYB)  — mean of observed bw/probe ratios scaled by
//                          the latest probe: the NWS-correction hybrid.
//
// Every model evaluates its fit at the *latest* qualifying regressor
// values (a nowcast), so the Query contract of the rest of the battery
// is unchanged.  Observations whose regressors are missing (0), negative
// or non-finite are skipped — a disk-field-free log yields no
// qualifying samples and the predictors answer nullopt, leaving the
// univariate battery's behavior bit-identical to pre-regression runs.
//
// Identity contract: RegressionCore is the *single* accumulator used by
// the stateless batch path and the streaming engine, so the streaming
// fits are EXPECT_DOUBLE_EQ-identical to an offline batch fit by
// construction (same adds in the same order, same solve).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "predict/classifier.hpp"
#include "predict/predictors.hpp"
#include "predict/suite.hpp"
#include "predict/window.hpp"
#include "util/types.hpp"

namespace wadp::predict {

enum class RegressionModel {
  kDisk,         ///< bw = a + b*disk
  kProbeDisk,    ///< bw = a + b*probe + c*disk
  kDiskQuad,     ///< bw = a + b*disk + c*disk^2
  kHybridRatio,  ///< bw = mean(bw_i/probe_i) * latest probe
};

const char* to_string(RegressionModel model);

/// Incremental least-squares accumulator shared by the batch and
/// streaming paths.  O(1) add, O(1) predict.  Regressors are shifted by
/// their first qualifying value (the StreamingAr trick) so a constant
/// regressor produces exactly-zero centered moments and the degenerate
/// fallback (drop the regressor; ultimately the plain mean) is
/// deterministic rather than at the mercy of rounding.
class RegressionCore {
 public:
  explicit RegressionCore(RegressionModel model) : model_(model) {}

  /// True when `o` carries finite values for everything `model` regresses
  /// on (positive disk/probe as required, finite bandwidth).
  static bool qualifies(RegressionModel model, const Observation& o);

  /// Absorbs one *qualifying* observation; call in history order.
  void add(const Observation& o);

  std::size_t count() const { return n_; }

  /// The model evaluated at the latest added regressor values, clamped
  /// non-negative.  nullopt before the first add.  Callers enforce their
  /// own min-sample floors on count().
  std::optional<Bandwidth> predict() const;

 private:
  RegressionModel model_;
  std::size_t n_ = 0;
  bool shift_set_ = false;
  double shift_u_ = 0.0, shift_v_ = 0.0;  // first regressor values
  // Shifted sums: u/v are the (shifted) regressors, y the bandwidth.
  double su_ = 0.0, sv_ = 0.0, sy_ = 0.0;
  double suu_ = 0.0, svv_ = 0.0, suv_ = 0.0;
  double suy_ = 0.0, svy_ = 0.0;
  double last_u_ = 0.0, last_v_ = 0.0;
  // kHybridRatio state.
  double ratio_sum_ = 0.0;
  double last_probe_ = 0.0;
};

/// Stateless battery member: applies the window, filters qualifying
/// observations through a fresh RegressionCore, and nowcasts.  Only
/// all-data and last-N windows are supported.
class RegressionPredictor final : public Predictor {
 public:
  RegressionPredictor(std::string name, RegressionModel model,
                      WindowSpec window = WindowSpec::all(),
                      std::size_t min_samples = 5);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;

 private:
  RegressionModel model_;
  WindowSpec window_;
  std::size_t min_samples_;
};

/// Streaming counterpart.  All-data windows keep one persistent
/// RegressionCore (O(1) observe/predict); last-N windows keep the raw
/// window and replay it through a fresh core per predict (O(N), N <= 25
/// in the battery), which is the batch computation verbatim — identity
/// by construction either way.
class StreamingRegression final : public StreamingPredictor {
 public:
  StreamingRegression(std::string name, RegressionModel model,
                      WindowSpec window, std::size_t min_samples);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;

 private:
  RegressionModel model_;
  WindowSpec window_;
  std::size_t min_samples_;
  RegressionCore all_core_;        // kAll: persistent accumulator
  std::size_t all_qualifying_ = 0;
  std::deque<Observation> last_n_;  // kLastN: raw window contents
};

/// The full battery for the regression era: the extended suite plus the
/// regression/hybrid members over all-data and last-25 windows (DREG,
/// DREG25, MREG, MREG25, PREG, PREG25, HYB, HYB25).
PredictorSuite regression_suite(
    SizeClassifier classifier = SizeClassifier::paper_classes());

}  // namespace wadp::predict
