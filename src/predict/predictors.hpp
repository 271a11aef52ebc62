// The predictor battery (Section 4).
//
// A Predictor is a pure function of the (time-ordered) measurement
// history and a query: it returns the expected bandwidth of the next
// transfer, or nullopt when the history it is allowed to see is too
// thin.  Three mathematical families (Section 4.1) — mean-based,
// median-based, and the degenerate ARIMA regression Y_t = a + b*Y_{t-1}
// — are each combined with a history window (Section 4.2), and any
// predictor can be wrapped in file-size classification (Section 4.3).
//
// Every predictor also has a streaming form (stream()): the one engine
// that answers queries everywhere in the system.  The stateless
// predict(history, query) is the reference definition the streaming
// forms are tested against.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "predict/classifier.hpp"
#include "predict/observation.hpp"
#include "predict/window.hpp"
#include "util/types.hpp"

namespace wadp::predict {

/// A predictor's incremental state: absorbs one observation at a time
/// and answers from what it has absorbed, equal to the stateless
/// predictor applied to the accumulated history (see
/// predict/incremental.hpp for the per-family forms and their cost).
///
/// Contract: observations must arrive in non-decreasing time order, and
/// query times must be non-decreasing as well (interleaved with
/// observes) — temporal windows evict history older than `query.time -
/// duration` and cannot resurrect it.  A query older than
/// safe_query_time() needs a fresh state replayed over the history.
class StreamingPredictor {
 public:
  virtual ~StreamingPredictor() = default;

  /// Same stable name as the stateless counterpart ("AVG25", "MED5/fs").
  const std::string& name() const { return name_; }

  /// Absorbs one measurement; times must be non-decreasing across calls.
  virtual void observe(const Observation& observation) = 0;

  /// Prediction from everything observed so far, equivalent to the
  /// stateless predictor applied to the full accumulated history.
  /// Non-const: temporal windows advance their eviction frontier.
  virtual std::optional<Bandwidth> predict(const Query& query) = 0;

  /// Earliest query time this state can still answer exactly.  Queries
  /// at `time >= safe_query_time()` are always exact; earlier ones may
  /// need history a temporal window has already evicted.  -infinity
  /// for states that never discard data.
  virtual SimTime safe_query_time() const {
    return -std::numeric_limits<SimTime>::infinity();
  }

 protected:
  explicit StreamingPredictor(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Short stable name ("AVG25", "MED5", "AR10d"), as in Fig. 4.
  const std::string& name() const { return name_; }

  /// Predicted bandwidth (bytes/s) for `query` given `history`, which
  /// must be ordered by Observation::time.  nullopt when the usable
  /// subset of the history is insufficient for this technique.  The
  /// reference definition: production code answers from stream().
  virtual std::optional<Bandwidth> predict(
      std::span<const Observation> history, const Query& query) const = 0;

  /// A fresh streaming state (nothing observed yet) that answers
  /// exactly what predict() would over the history it absorbs.  The
  /// state does not reference this predictor and may outlive it.
  virtual std::unique_ptr<StreamingPredictor> stream() const = 0;

 protected:
  explicit Predictor(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

/// Arithmetic mean over a window (AVG, AVG5/15/25, AVG5hr/15hr/25hr).
class MeanPredictor final : public Predictor {
 public:
  MeanPredictor(std::string name, WindowSpec window);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
  const WindowSpec& window() const { return window_; }

 private:
  WindowSpec window_;
};

/// Median over a window (MED, MED5/15/25).  Robust to asymmetric
/// outliers, jittery on smooth data (Section 4.1).
class MedianPredictor final : public Predictor {
 public:
  MedianPredictor(std::string name, WindowSpec window);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
  const WindowSpec& window() const { return window_; }

 private:
  WindowSpec window_;
};

/// The degenerate sliding-window case: the last measurement (LV).
class LastValuePredictor final : public Predictor {
 public:
  explicit LastValuePredictor(std::string name = "LV");
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
};

/// The paper's ARIMA-model technique: ordinary least squares on
/// (Y_{t-1}, Y_t) pairs in the window, predicting a + b*Y_last.
/// Needs min_samples history points (the paper notes the technique
/// really wants >= 50 equally spaced samples; we enforce only a small
/// floor and let the evaluation show the consequences, as the paper's
/// does).  Predictions are clamped to be non-negative.
class ArPredictor final : public Predictor {
 public:
  ArPredictor(std::string name, WindowSpec window, std::size_t min_samples = 3);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
  const WindowSpec& window() const { return window_; }

 private:
  WindowSpec window_;
  std::size_t min_samples_;
};

/// Context-sensitive wrapper: filters the history to observations in
/// the same size class as the query, then delegates.  This is the
/// "file-size classification" of Section 4.3 applied to any base
/// technique.
class ClassifiedPredictor final : public Predictor {
 public:
  /// Named "<base>/fs" by default ("fs" = filtered by file size).
  ClassifiedPredictor(std::shared_ptr<const Predictor> base,
                      SizeClassifier classifier);
  std::optional<Bandwidth> predict(std::span<const Observation> history,
                                   const Query& query) const override;
  std::unique_ptr<StreamingPredictor> stream() const override;
  const Predictor& base() const { return *base_; }

 private:
  std::shared_ptr<const Predictor> base_;
  SizeClassifier classifier_;
};

}  // namespace wadp::predict
