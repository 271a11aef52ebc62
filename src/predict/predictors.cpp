#include "predict/predictors.hpp"

#include <algorithm>

#include "predict/incremental.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace wadp::predict {
namespace {

std::vector<double> values_of(std::span<const Observation> window) {
  std::vector<double> out;
  out.reserve(window.size());
  for (const auto& o : window) out.push_back(o.value);
  return out;
}

}  // namespace

MeanPredictor::MeanPredictor(std::string name, WindowSpec window)
    : Predictor(std::move(name)), window_(window) {}

std::optional<Bandwidth> MeanPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const auto window = window_.apply(history, query.time);
  if (window.empty()) return std::nullopt;
  return util::mean(values_of(window));
}

std::unique_ptr<StreamingPredictor> MeanPredictor::stream() const {
  return std::make_unique<StreamingMean>(name(), window_);
}

MedianPredictor::MedianPredictor(std::string name, WindowSpec window)
    : Predictor(std::move(name)), window_(window) {}

std::optional<Bandwidth> MedianPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const auto window = window_.apply(history, query.time);
  if (window.empty()) return std::nullopt;
  return util::median(values_of(window));
}

std::unique_ptr<StreamingPredictor> MedianPredictor::stream() const {
  return std::make_unique<StreamingMedian>(name(), window_);
}

LastValuePredictor::LastValuePredictor(std::string name)
    : Predictor(std::move(name)) {}

std::optional<Bandwidth> LastValuePredictor::predict(
    std::span<const Observation> history, const Query& /*query*/) const {
  if (history.empty()) return std::nullopt;
  return history.back().value;
}

std::unique_ptr<StreamingPredictor> LastValuePredictor::stream() const {
  return std::make_unique<StreamingLastValue>(name());
}

ArPredictor::ArPredictor(std::string name, WindowSpec window,
                         std::size_t min_samples)
    : Predictor(std::move(name)), window_(window), min_samples_(min_samples) {
  WADP_CHECK(min_samples_ >= 3);
}

std::optional<Bandwidth> ArPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const auto window = window_.apply(history, query.time);
  if (window.size() < min_samples_) return std::nullopt;
  const auto series = values_of(window);
  const auto fit = util::ar1_fit(series);
  if (!fit) return std::nullopt;
  const double predicted = fit->intercept + fit->slope * series.back();
  // Bandwidth cannot be negative; an extrapolation below zero is
  // reported as zero (and scored accordingly) rather than hidden.
  return std::max(0.0, predicted);
}

std::unique_ptr<StreamingPredictor> ArPredictor::stream() const {
  return std::make_unique<StreamingAr>(name(), window_, min_samples_);
}

ClassifiedPredictor::ClassifiedPredictor(std::shared_ptr<const Predictor> base,
                                         SizeClassifier classifier)
    : Predictor(base->name() + "/fs"),
      base_(std::move(base)),
      classifier_(std::move(classifier)) {
  WADP_CHECK(base_ != nullptr);
}

std::optional<Bandwidth> ClassifiedPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const int wanted = classifier_.classify(query.file_size);
  std::vector<Observation> filtered;
  filtered.reserve(history.size());
  for (const auto& o : history) {
    if (classifier_.classify(o.file_size) == wanted) filtered.push_back(o);
  }
  return base_->predict(filtered, query);
}

std::unique_ptr<StreamingPredictor> ClassifiedPredictor::stream() const {
  return std::make_unique<StreamingClassified>(
      name(), classifier_, [this] { return base_->stream(); });
}

}  // namespace wadp::predict
