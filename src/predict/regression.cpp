#include "predict/regression.hpp"

#include <algorithm>
#include <cmath>

#include "predict/extended.hpp"
#include "util/error.hpp"

namespace wadp::predict {
namespace {

bool finite_nonneg(double x) { return std::isfinite(x) && x >= 0.0; }
bool finite_pos(double x) { return std::isfinite(x) && x > 0.0; }

/// Simple linear fit from shifted sums; nullopt when the centered
/// second moment is non-positive (constant regressor).
std::optional<double> solve_single(std::size_t n, double sx, double sy,
                                   double sxx, double sxy, double at_x) {
  const double dn = static_cast<double>(n);
  const double mean_x = sx / dn;
  const double mean_y = sy / dn;
  const double cxx = sxx - sx * mean_x;
  if (cxx <= 0.0) return std::nullopt;
  const double cxy = sxy - sx * mean_y;
  const double slope = cxy / cxx;
  const double intercept = mean_y - slope * mean_x;
  return intercept + slope * at_x;
}

}  // namespace

const char* to_string(RegressionModel model) {
  switch (model) {
    case RegressionModel::kDisk: return "disk";
    case RegressionModel::kProbeDisk: return "probe+disk";
    case RegressionModel::kDiskQuad: return "disk+disk^2";
    case RegressionModel::kHybridRatio: return "hybrid-ratio";
  }
  return "?";
}

bool RegressionCore::qualifies(RegressionModel model, const Observation& o) {
  if (!finite_nonneg(o.value)) return false;
  switch (model) {
    case RegressionModel::kDisk:
    case RegressionModel::kDiskQuad:
      return finite_pos(o.disk);
    case RegressionModel::kProbeDisk:
      return finite_pos(o.disk) && finite_pos(o.probe);
    case RegressionModel::kHybridRatio:
      return finite_pos(o.probe);
  }
  return false;
}

void RegressionCore::add(const Observation& o) {
  WADP_CHECK_MSG(qualifies(model_, o), "non-qualifying regression sample");
  if (model_ == RegressionModel::kHybridRatio) {
    ratio_sum_ += o.value / o.probe;
    last_probe_ = o.probe;
    ++n_;
    return;
  }

  double u = 0.0, v = 0.0;
  switch (model_) {
    case RegressionModel::kDisk:
      u = o.disk;
      break;
    case RegressionModel::kProbeDisk:
      u = o.probe;
      v = o.disk;
      break;
    case RegressionModel::kDiskQuad:
      u = o.disk;
      v = o.disk * o.disk;
      break;
    case RegressionModel::kHybridRatio:
      break;  // handled above
  }
  if (!shift_set_) {
    shift_u_ = u;
    shift_v_ = v;
    shift_set_ = true;
  }
  u -= shift_u_;
  v -= shift_v_;
  const double y = o.value;
  su_ += u;
  sv_ += v;
  sy_ += y;
  suu_ += u * u;
  svv_ += v * v;
  suv_ += u * v;
  suy_ += u * y;
  svy_ += v * y;
  last_u_ = u;
  last_v_ = v;
  ++n_;
}

std::optional<Bandwidth> RegressionCore::predict() const {
  if (n_ == 0) return std::nullopt;
  const double dn = static_cast<double>(n_);

  if (model_ == RegressionModel::kHybridRatio) {
    return std::max(0.0, ratio_sum_ / dn * last_probe_);
  }

  if (model_ == RegressionModel::kDisk) {
    if (const auto y = solve_single(n_, su_, sy_, suu_, suy_, last_u_)) {
      return std::max(0.0, *y);
    }
    return std::max(0.0, sy_ / dn);  // constant disk: plain mean
  }

  // Two-regressor normal equations in centered (shifted) coordinates.
  const double mean_u = su_ / dn;
  const double mean_v = sv_ / dn;
  const double mean_y = sy_ / dn;
  const double cuu = suu_ - su_ * mean_u;
  const double cvv = svv_ - sv_ * mean_v;
  const double cuv = suv_ - su_ * mean_v;
  const double cuy = suy_ - su_ * mean_y;
  const double cvy = svy_ - sv_ * mean_y;
  const double det = cuu * cvv - cuv * cuv;
  if (det > 0.0) {
    const double b = (cuy * cvv - cvy * cuv) / det;
    const double c = (cvy * cuu - cuy * cuv) / det;
    const double a = mean_y - b * mean_u - c * mean_v;
    return std::max(0.0, a + b * last_u_ + c * last_v_);
  }
  // Degenerate (constant or collinear regressors): drop one regressor,
  // then the other, then fall back to the window mean.
  if (const auto y = solve_single(n_, su_, sy_, suu_, suy_, last_u_)) {
    return std::max(0.0, *y);
  }
  if (const auto y = solve_single(n_, sv_, sy_, svv_, svy_, last_v_)) {
    return std::max(0.0, *y);
  }
  return std::max(0.0, mean_y);
}

// ---------------------------------------------------------------------------
// RegressionPredictor (stateless)

RegressionPredictor::RegressionPredictor(std::string name,
                                         RegressionModel model,
                                         WindowSpec window,
                                         std::size_t min_samples)
    : Predictor(std::move(name)),
      model_(model),
      window_(window),
      min_samples_(min_samples) {
  WADP_CHECK(min_samples_ >= 2);
  WADP_CHECK_MSG(window_.kind() != WindowSpec::Kind::kLastDuration,
                 "regression predictors support all/last-N windows");
}

std::optional<Bandwidth> RegressionPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const auto window = window_.apply(history, query.time);
  RegressionCore core(model_);
  for (const auto& o : window) {
    if (RegressionCore::qualifies(model_, o)) core.add(o);
  }
  if (core.count() < min_samples_) return std::nullopt;
  return core.predict();
}

std::unique_ptr<StreamingPredictor> RegressionPredictor::stream() const {
  return std::make_unique<StreamingRegression>(name(), model_, window_,
                                               min_samples_);
}

// ---------------------------------------------------------------------------
// StreamingRegression

StreamingRegression::StreamingRegression(std::string name,
                                         RegressionModel model,
                                         WindowSpec window,
                                         std::size_t min_samples)
    : StreamingPredictor(std::move(name)),
      model_(model),
      window_(window),
      min_samples_(min_samples),
      all_core_(model) {
  WADP_CHECK_MSG(window_.kind() != WindowSpec::Kind::kLastDuration,
                 "regression predictors support all/last-N windows");
}

void StreamingRegression::observe(const Observation& observation) {
  if (window_.kind() == WindowSpec::Kind::kAll) {
    if (RegressionCore::qualifies(model_, observation)) {
      all_core_.add(observation);
      ++all_qualifying_;
    }
    return;
  }
  last_n_.push_back(observation);
  if (last_n_.size() > window_.n()) last_n_.pop_front();
}

std::optional<Bandwidth> StreamingRegression::predict(const Query&) {
  if (window_.kind() == WindowSpec::Kind::kAll) {
    if (all_qualifying_ < min_samples_) return std::nullopt;
    return all_core_.predict();
  }
  // Replay the raw window through a fresh core: literally the batch
  // computation, so bit-identity needs no proof.
  RegressionCore core(model_);
  for (const auto& o : last_n_) {
    if (RegressionCore::qualifies(model_, o)) core.add(o);
  }
  if (core.count() < min_samples_) return std::nullopt;
  return core.predict();
}

// ---------------------------------------------------------------------------
// Battery

PredictorSuite regression_suite(SizeClassifier classifier) {
  PredictorSuite suite = extended_suite(classifier);
  const auto add_windows = [&](const std::string& base, RegressionModel model,
                               std::size_t min_samples) {
    suite.add(std::make_shared<RegressionPredictor>(
        base, model, WindowSpec::all(), min_samples));
    suite.add(std::make_shared<RegressionPredictor>(
        base + "25", model, WindowSpec::last_n(25), min_samples));
  };
  add_windows("DREG", RegressionModel::kDisk, 5);
  add_windows("MREG", RegressionModel::kProbeDisk, 5);
  add_windows("PREG", RegressionModel::kDiskQuad, 5);
  add_windows("HYB", RegressionModel::kHybridRatio, 3);
  return suite;
}

}  // namespace wadp::predict
