// Prediction-accuracy evaluation (Section 6.2).
//
// The Evaluator replays a measurement series the way the paper replays
// its log files: the first `training_count` observations are training
// prefix only; every later observation is predicted from the history
// before it, scored by absolute percentage error, and aggregated per
// predictor and per file-size class.  It also computes the paper's
// "relative performance" statistic (Figs. 14–21): for each transfer,
// which predictor was best and which was worst.
//
// The replay is one streaming pass: every predictor's stream() absorbs
// each observation once and answers the next transfer from its
// incremental state — O(N·P) for N transfers and P predictors.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "predict/classifier.hpp"
#include "predict/observation.hpp"
#include "predict/predictors.hpp"
#include "util/stats.hpp"

namespace wadp::predict {

struct EvalConfig {
  /// Minimum log length before predictions start (Section 6.1 uses 15;
  /// note this does NOT guarantee 15 same-class values for classified
  /// predictors, exactly as the paper cautions).
  std::size_t training_count = 15;
  SizeClassifier classifier = SizeClassifier::paper_classes();
  bool keep_samples = true;  ///< retain the per-transfer prediction matrix
};

/// Streaming aggregate of percentage errors: one util::RunningStats
/// carries everything (exact running sum, Welford spread, min/max), so
/// this class is a thin view.  The mean keeps the exact sum/count
/// definition, bit-identical to the historical aggregation.
class ErrorStats {
 public:
  void add(double error) { acc_.add(error); }
  std::size_t count() const { return acc_.count(); }
  double sum() const { return acc_.sum(); }
  double mean() const {
    return count() ? sum() / static_cast<double>(count()) : 0.0;
  }
  double stddev() const { return acc_.stddev(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }

 private:
  util::RunningStats acc_;
};

/// Best/worst tallies for the relative-performance figures.
struct RelativeStats {
  std::size_t best = 0;           ///< transfers where this predictor won
  std::size_t worst = 0;          ///< transfers where it lost
  std::size_t opportunities = 0;  ///< transfers where it produced a prediction

  double best_pct() const {
    return opportunities ? 100.0 * static_cast<double>(best) /
                               static_cast<double>(opportunities)
                         : 0.0;
  }
  double worst_pct() const {
    return opportunities ? 100.0 * static_cast<double>(worst) /
                               static_cast<double>(opportunities)
                         : 0.0;
  }
};

/// One evaluated transfer: the measurement and every predictor's guess.
struct EvalSample {
  SimTime time = 0.0;
  Bytes file_size = 0;
  int size_class = 0;
  Bandwidth measured = 0.0;
  std::vector<std::optional<Bandwidth>> predictions;  // suite order
};

class EvaluationResult {
 public:
  EvaluationResult(std::vector<std::string> predictor_names, int num_classes);

  /// Error aggregate for `predictor` (input-order index) in `cls`, or
  /// across all classes when cls == kAllClasses.
  static constexpr int kAllClasses = -1;
  const ErrorStats& errors(std::size_t predictor, int cls = kAllClasses) const;
  const RelativeStats& relative(std::size_t predictor,
                                int cls = kAllClasses) const;

  const std::vector<std::string>& predictor_names() const { return names_; }
  int num_classes() const { return num_classes_; }
  std::size_t evaluated_transfers(int cls = kAllClasses) const;
  const std::vector<EvalSample>& samples() const { return samples_; }

  /// Index of `name` in the predictor list; nullopt when absent.
  /// O(1): backed by a name→index map built at construction.
  std::optional<std::size_t> index_of(std::string_view name) const;

 private:
  friend class Evaluator;
  std::size_t slot(std::size_t predictor, int cls) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::size_t> name_index_;
  int num_classes_;
  // Row-major [predictor][class+1] with class slot 0 = overall.
  std::vector<ErrorStats> errors_;
  std::vector<RelativeStats> relative_;
  std::vector<std::size_t> transfers_per_class_;  // slot 0 = overall
  std::vector<EvalSample> samples_;
};

/// Per-transfer percentage errors of one predictor in `cls`
/// (kAllClasses for everything), extracted from the result's stored
/// sample matrix — requires the evaluation ran with keep_samples.
/// The paper reports only means; distributions (via util::quantile)
/// show the tails the relative-performance figures hint at.
std::vector<double> error_values(const EvaluationResult& result,
                                 std::size_t predictor,
                                 int cls = EvaluationResult::kAllClasses);

class Evaluator {
 public:
  explicit Evaluator(EvalConfig config = {}) : config_(std::move(config)) {}

  const EvalConfig& config() const { return config_; }

  /// Replays `series` (time-ordered) against `predictors`' streams.
  EvaluationResult run(std::span<const Observation> series,
                       const std::vector<const Predictor*>& predictors) const;

 private:
  EvalConfig config_;
};

}  // namespace wadp::predict
