#include "predict/extended.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace wadp::predict {
namespace {

/// SREG's answer from the window's (log10 size, value) pairs;
/// `in_window` counts every windowed observation, zero-size ones
/// included, as the min-sample floor does.
std::optional<Bandwidth> size_regression_answer(
    std::size_t in_window, std::size_t min_samples,
    std::span<const double> log_sizes, std::span<const double> values,
    Bytes query_size) {
  if (in_window < min_samples || log_sizes.size() < min_samples) {
    return std::nullopt;
  }
  if (const auto fit = util::linear_fit(log_sizes, values)) {
    const double x =
        std::log10(static_cast<double>(std::max<Bytes>(query_size, 1)));
    return std::max(0.0, fit->intercept + fit->slope * x);
  }
  // Constant regressor (all files the same size): plain mean.
  return util::mean(values);
}

/// Appends `o`'s pair when it has a size to regress on.
void add_pair(const Observation& o, std::vector<double>& log_sizes,
              std::vector<double>& values) {
  if (o.file_size == 0) return;
  log_sizes.push_back(std::log10(static_cast<double>(o.file_size)));
  values.push_back(o.value);
}

/// The candidate last-N window with the lowest mean error over the
/// last `holdout` observations, each predicted from the history before
/// it.  Reads at most max(candidates) + holdout trailing observations.
std::optional<std::size_t> choose_window(
    const std::vector<std::size_t>& candidates, std::size_t holdout,
    std::span<const Observation> history) {
  if (history.size() < 2) return std::nullopt;
  const std::size_t first =
      history.size() > holdout ? history.size() - holdout : 1;

  std::size_t best = candidates.front();
  double best_error = std::numeric_limits<double>::infinity();
  for (const std::size_t n : candidates) {
    double error_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = first; i < history.size(); ++i) {
      const auto prior = history.first(i);
      const std::size_t take = std::min(n, prior.size());
      double sum = 0.0;
      for (std::size_t j = prior.size() - take; j < prior.size(); ++j) {
        sum += prior[j].value;
      }
      const double predicted = sum / static_cast<double>(take);
      if (history[i].value > 0.0) {
        error_sum += util::percent_error(history[i].value, predicted);
        ++count;
      }
    }
    if (count == 0) continue;
    const double mean_error = error_sum / static_cast<double>(count);
    if (mean_error < best_error) {
      best_error = mean_error;
      best = n;
    }
  }
  if (!std::isfinite(best_error)) return std::nullopt;
  return best;
}

/// ADAPT's answer: the mean of the last chosen-window observations.
std::optional<Bandwidth> adaptive_answer(
    const std::vector<std::size_t>& candidates, std::size_t holdout,
    std::span<const Observation> history) {
  if (history.empty()) return std::nullopt;
  const std::size_t n =
      choose_window(candidates, holdout, history).value_or(candidates.front());
  std::vector<double> values;
  for (const auto& o : history.last(std::min(n, history.size()))) {
    values.push_back(o.value);
  }
  return util::mean(values);
}

/// Streaming EWMA: the batch recurrence, one step per observation.
class StreamingEwma final : public StreamingPredictor {
 public:
  StreamingEwma(std::string name, double alpha)
      : StreamingPredictor(std::move(name)), alpha_(alpha) {}
  void observe(const Observation& o) override {
    smoothed_ = smoothed_ ? alpha_ * o.value + (1.0 - alpha_) * *smoothed_
                          : o.value;
  }
  std::optional<Bandwidth> predict(const Query&) override { return smoothed_; }

 private:
  double alpha_;
  std::optional<double> smoothed_;
};

/// Streaming SREG.  util::linear_fit is two-pass, so the fit is redone
/// per query over the kept pairs (an O(1) running form would change
/// bits).  All-data windows keep the pairs; last-N windows keep the raw
/// window and re-derive its pairs.
class StreamingSizeRegression final : public StreamingPredictor {
 public:
  StreamingSizeRegression(std::string name, WindowSpec window,
                          std::size_t min_samples)
      : StreamingPredictor(std::move(name)),
        window_(window),
        min_samples_(min_samples) {}
  void observe(const Observation& o) override {
    if (window_.kind() == WindowSpec::Kind::kAll) {
      ++observed_;
      add_pair(o, log_sizes_, values_);
      return;
    }
    last_n_.push_back(o);
    if (last_n_.size() > window_.n()) last_n_.pop_front();
  }
  std::optional<Bandwidth> predict(const Query& query) override {
    if (window_.kind() == WindowSpec::Kind::kAll) {
      return size_regression_answer(observed_, min_samples_, log_sizes_,
                                    values_, query.file_size);
    }
    std::vector<double> log_sizes, values;
    for (const auto& o : last_n_) add_pair(o, log_sizes, values);
    return size_regression_answer(last_n_.size(), min_samples_, log_sizes,
                                  values, query.file_size);
  }

 private:
  WindowSpec window_;
  std::size_t min_samples_;
  std::size_t observed_ = 0;                // kAll
  std::vector<double> log_sizes_, values_;  // kAll
  std::deque<Observation> last_n_;          // kLastN
};

/// Streaming ADAPT: keeps the last max(candidates) + holdout
/// observations — everything the holdout replay and the final last-N
/// mean can read — so each answer equals the batch one over the full
/// history.
class StreamingAdaptiveWindow final : public StreamingPredictor {
 public:
  StreamingAdaptiveWindow(std::string name, std::vector<std::size_t> candidates,
                          std::size_t holdout)
      : StreamingPredictor(std::move(name)),
        candidates_(std::move(candidates)),
        holdout_(holdout),
        keep_(*std::max_element(candidates_.begin(), candidates_.end()) +
              holdout_) {}
  void observe(const Observation& o) override {
    recent_.push_back(o);
    // Trim in amortized O(1) steps: drop the stale prefix once the
    // buffer reaches twice what the answer reads.
    if (recent_.size() >= 2 * keep_) {
      recent_.erase(recent_.begin(),
                    recent_.end() - static_cast<std::ptrdiff_t>(keep_));
    }
  }
  std::optional<Bandwidth> predict(const Query&) override {
    const std::span<const Observation> all(recent_);
    return adaptive_answer(candidates_, holdout_,
                           all.last(std::min(keep_, all.size())));
  }

 private:
  std::vector<std::size_t> candidates_;
  std::size_t holdout_;
  std::size_t keep_;
  std::vector<Observation> recent_;
};

}  // namespace

EwmaPredictor::EwmaPredictor(std::string name, double alpha)
    : Predictor(std::move(name)), alpha_(alpha) {
  WADP_CHECK(alpha_ > 0.0 && alpha_ <= 1.0);
}

std::optional<Bandwidth> EwmaPredictor::predict(
    std::span<const Observation> history, const Query& /*query*/) const {
  if (history.empty()) return std::nullopt;
  double smoothed = history.front().value;
  for (std::size_t i = 1; i < history.size(); ++i) {
    smoothed = alpha_ * history[i].value + (1.0 - alpha_) * smoothed;
  }
  return smoothed;
}

std::unique_ptr<StreamingPredictor> EwmaPredictor::stream() const {
  return std::make_unique<StreamingEwma>(name(), alpha_);
}

SizeRegressionPredictor::SizeRegressionPredictor(std::string name,
                                                 WindowSpec window,
                                                 std::size_t min_samples)
    : Predictor(std::move(name)), window_(window), min_samples_(min_samples) {
  WADP_CHECK(min_samples_ >= 2);
  WADP_CHECK_MSG(window_.kind() != WindowSpec::Kind::kLastDuration,
                 "size regression supports all/last-N windows");
}

std::optional<Bandwidth> SizeRegressionPredictor::predict(
    std::span<const Observation> history, const Query& query) const {
  const auto window = window_.apply(history, query.time);
  std::vector<double> log_sizes, values;
  for (const auto& o : window) add_pair(o, log_sizes, values);
  return size_regression_answer(window.size(), min_samples_, log_sizes,
                                values, query.file_size);
}

std::unique_ptr<StreamingPredictor> SizeRegressionPredictor::stream() const {
  return std::make_unique<StreamingSizeRegression>(name(), window_,
                                                   min_samples_);
}

AdaptiveWindowPredictor::AdaptiveWindowPredictor(
    std::string name, std::vector<std::size_t> candidate_windows,
    std::size_t holdout)
    : Predictor(std::move(name)),
      candidates_(std::move(candidate_windows)),
      holdout_(holdout) {
  WADP_CHECK(!candidates_.empty());
  WADP_CHECK(holdout_ >= 1);
  for (const auto n : candidates_) WADP_CHECK(n >= 1);
}

std::optional<std::size_t> AdaptiveWindowPredictor::chosen_window(
    std::span<const Observation> history) const {
  return choose_window(candidates_, holdout_, history);
}

std::optional<Bandwidth> AdaptiveWindowPredictor::predict(
    std::span<const Observation> history, const Query& /*query*/) const {
  return adaptive_answer(candidates_, holdout_, history);
}

std::unique_ptr<StreamingPredictor> AdaptiveWindowPredictor::stream() const {
  return std::make_unique<StreamingAdaptiveWindow>(name(), candidates_,
                                                   holdout_);
}

PredictorSuite extended_suite(SizeClassifier classifier) {
  PredictorSuite suite = PredictorSuite::paper_suite(classifier);
  const auto add_both = [&](std::shared_ptr<const Predictor> p) {
    suite.add(std::make_shared<ClassifiedPredictor>(p, classifier));
    suite.add(std::move(p));
  };
  add_both(std::make_shared<EwmaPredictor>("EWMA0.2", 0.2));
  add_both(std::make_shared<EwmaPredictor>("EWMA0.5", 0.5));
  suite.add(std::make_shared<SizeRegressionPredictor>("SREG"));
  suite.add(std::make_shared<SizeRegressionPredictor>(
      "SREG25", WindowSpec::last_n(25)));
  add_both(std::make_shared<AdaptiveWindowPredictor>("ADAPT"));
  return suite;
}

}  // namespace wadp::predict
