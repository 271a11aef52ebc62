#include "predict/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace wadp::predict {
namespace {

/// Per-run aggregates only — nothing on the per-observation path, so
/// the streaming-throughput bench stays within its budget.
struct EvalMetrics {
  obs::Counter& runs = obs::Registry::global().counter(
      "wadp_eval_runs_total", {}, "Evaluator runs");
  obs::Counter& transfers = obs::Registry::global().counter(
      "wadp_eval_transfers_total", {},
      "Transfers scored across all evaluator runs");

  static EvalMetrics& get() {
    static EvalMetrics metrics;
    return metrics;
  }
};

}  // namespace

EvaluationResult::EvaluationResult(std::vector<std::string> predictor_names,
                                   int num_classes)
    : names_(std::move(predictor_names)), num_classes_(num_classes) {
  WADP_CHECK(num_classes_ >= 1);
  const std::size_t slots =
      names_.size() * (static_cast<std::size_t>(num_classes_) + 1);
  errors_.resize(slots);
  relative_.resize(slots);
  transfers_per_class_.assign(static_cast<std::size_t>(num_classes_) + 1, 0);
  name_index_.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) name_index_[names_[i]] = i;
}

std::size_t EvaluationResult::slot(std::size_t predictor, int cls) const {
  WADP_CHECK(predictor < names_.size());
  WADP_CHECK(cls >= kAllClasses && cls < num_classes_);
  const std::size_t class_slot = static_cast<std::size_t>(cls + 1);  // -1 -> 0
  return predictor * (static_cast<std::size_t>(num_classes_) + 1) + class_slot;
}

const ErrorStats& EvaluationResult::errors(std::size_t predictor,
                                           int cls) const {
  return errors_[slot(predictor, cls)];
}

const RelativeStats& EvaluationResult::relative(std::size_t predictor,
                                                int cls) const {
  return relative_[slot(predictor, cls)];
}

std::size_t EvaluationResult::evaluated_transfers(int cls) const {
  WADP_CHECK(cls >= kAllClasses && cls < num_classes_);
  return transfers_per_class_[static_cast<std::size_t>(cls + 1)];
}

std::optional<std::size_t> EvaluationResult::index_of(
    std::string_view name) const {
  const auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> error_values(const EvaluationResult& result,
                                 std::size_t predictor, int cls) {
  WADP_CHECK(predictor < result.predictor_names().size());
  std::vector<double> out;
  for (const auto& sample : result.samples()) {
    if (cls != EvaluationResult::kAllClasses && sample.size_class != cls) {
      continue;
    }
    const auto& prediction = sample.predictions[predictor];
    if (!prediction) continue;
    out.push_back(util::percent_error(sample.measured, *prediction));
  }
  return out;
}

EvaluationResult Evaluator::run(
    std::span<const Observation> series,
    const std::vector<const Predictor*>& predictors) const {
  std::vector<std::string> names;
  names.reserve(predictors.size());
  for (const auto* p : predictors) {
    WADP_CHECK(p != nullptr);
    names.push_back(p->name());
  }
  EvaluationResult result(std::move(names), config_.classifier.num_classes());

  const std::size_t training = config_.training_count;
  const std::size_t count = predictors.size();

  EvalMetrics::get().runs.inc();
  EvalMetrics::get().transfers.inc(
      series.size() > training ? series.size() - training : 0);

  // Ties within this relative tolerance share best/worst credit.
  constexpr double kTieEpsilon = 1e-9;

  // Single streaming pass: every state absorbs each observation once,
  // and each transfer is predicted from the states before it absorbs
  // that transfer.  Predictions outlive their transfer only in the
  // keep_samples matrix.
  std::vector<std::unique_ptr<StreamingPredictor>> states;
  states.reserve(count);
  for (const auto* p : predictors) states.push_back(p->stream());
  std::vector<std::optional<Bandwidth>> predictions(count);
  std::vector<double> errors(count);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Observation& actual = series[i];
    if (i >= training) {
      const Query query{.time = actual.time, .file_size = actual.file_size};
      for (std::size_t p = 0; p < count; ++p) {
        predictions[p] = states[p]->predict(query);
      }

      WADP_CHECK_MSG(actual.value > 0.0, "non-positive measured bandwidth");
      const int cls = config_.classifier.classify(actual.file_size);
      ++result.transfers_per_class_[0];
      ++result.transfers_per_class_[static_cast<std::size_t>(cls) + 1];

      errors.assign(count, std::numeric_limits<double>::quiet_NaN());
      double best = std::numeric_limits<double>::infinity();
      double worst = -std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < count; ++p) {
        const auto& prediction = predictions[p];
        if (!prediction) continue;
        const double err = util::percent_error(actual.value, *prediction);
        errors[p] = err;
        best = std::min(best, err);
        worst = std::max(worst, err);
        result.errors_[result.slot(p, EvaluationResult::kAllClasses)].add(err);
        result.errors_[result.slot(p, cls)].add(err);
      }

      for (std::size_t p = 0; p < count; ++p) {
        if (std::isnan(errors[p])) continue;
        auto& overall =
            result.relative_[result.slot(p, EvaluationResult::kAllClasses)];
        auto& in_class = result.relative_[result.slot(p, cls)];
        ++overall.opportunities;
        ++in_class.opportunities;
        if (errors[p] <= best + kTieEpsilon) {
          ++overall.best;
          ++in_class.best;
        }
        if (errors[p] >= worst - kTieEpsilon) {
          ++overall.worst;
          ++in_class.worst;
        }
      }

      if (config_.keep_samples) {
        result.samples_.push_back(EvalSample{
            .time = actual.time,
            .file_size = actual.file_size,
            .size_class = cls,
            .measured = actual.value,
            .predictions = predictions,
        });
      }
    }
    for (const auto& state : states) state->observe(actual);
  }
  return result;
}

}  // namespace wadp::predict
