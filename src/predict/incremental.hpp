// Incremental prediction engine: streaming counterparts to the
// stateless Section 4 battery.
//
// A stateless Predictor recomputes from the full history prefix on
// every call — O(window) per query, O(N^2) when replayed over a log.
// A StreamingPredictor instead absorbs one observation at a time and
// keeps just enough per-family state to answer the next query in O(1)
// (means, AR fits) or O(log W) (medians) amortized:
//
//   * mean families    — a running sum for the all-data window, an
//     evicting deque for last-N / last-duration windows (bounded
//     windows are re-summed left-to-right, which keeps them
//     bit-identical to the batch path; unbounded temporal windows use
//     a compensated rolling sum with amortized exact rebuilds);
//   * median families  — a dual-multiset sliding median: two balanced
//     halves (max-half / min-half) whose boundary elements are the
//     paper's order statistics, O(log W) insert/evict;
//   * AR families      — running shifted moments (n, Σu, Σw, Σu²,
//     Σu·w over consecutive (Y_{t-1}, Y_t) pairs) plus monotonic
//     min/max deques that detect constant lagged series exactly, so
//     the degenerate-fit fallback matches util::ar1_fit bit-for-bit;
//   * classified (/fs) — per-size-class partitioned sub-states
//     replacing ClassifiedPredictor's per-query filter-copy.
//
// Contract (see StreamingPredictor in predict/predictors.hpp):
// observations and query times must be non-decreasing.  Every state
// reports safe_query_time(); core::PredictionService answers a query
// older than that by replaying its snapshot through a fresh state.
//
// Each Predictor builds its own streaming form through
// Predictor::stream(); the families beyond the paper's battery keep
// theirs next to their stateless definitions (predict/extended.*,
// predict/regression.*, nws/forecaster.*).  DynamicSelector, the NWS
// dynamic selection the paper names as future work, is a streaming
// state over its candidates' streams.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "predict/classifier.hpp"
#include "predict/observation.hpp"
#include "predict/predictors.hpp"
#include "predict/window.hpp"
#include "util/types.hpp"

namespace wadp::predict {

/// Streaming MeanPredictor: O(1) observe; predict is O(1) for all-data
/// and temporal windows, O(N) for a last-N window (N is the spec
/// constant, <= 25 in the paper battery) to stay bit-identical with the
/// batch left-to-right sum.
class StreamingMean final : public StreamingPredictor {
 public:
  StreamingMean(std::string name, WindowSpec window);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;
  SimTime safe_query_time() const override;
  const WindowSpec& window() const { return window_; }

 private:
  void evict_before(SimTime cutoff);
  void rebuild_sum();

  WindowSpec window_;
  // kAll: running left-to-right sum (bit-identical to util::mean).
  double all_sum_ = 0.0;
  std::size_t all_count_ = 0;
  // kLastN: the window itself; re-summed per predict.
  std::deque<double> last_n_;
  // kLastDuration: the window plus a Neumaier-compensated rolling sum,
  // exactly rebuilt every |window| updates so drift stays a few ulps.
  std::deque<Observation> timed_;
  double rolling_sum_ = 0.0;
  double rolling_comp_ = 0.0;
  std::size_t ops_since_rebuild_ = 0;
  SimTime evicted_through_ = -std::numeric_limits<SimTime>::infinity();
};

/// Streaming MedianPredictor: dual-multiset sliding median, O(log W)
/// observe/evict, O(1) median read-off.  Bit-identical to sorting the
/// window: the halves' boundary elements are the batch order statistics.
class StreamingMedian final : public StreamingPredictor {
 public:
  StreamingMedian(std::string name, WindowSpec window);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;
  SimTime safe_query_time() const override;
  const WindowSpec& window() const { return window_; }

 private:
  void insert_value(double value);
  void erase_value(double value);
  void rebalance();
  void evict_before(SimTime cutoff);

  WindowSpec window_;
  std::deque<Observation> order_;    // window contents in arrival order
  std::multiset<double> lo_;         // smaller half; |lo| = |hi| or |hi|+1
  std::multiset<double> hi_;         // larger half
  SimTime evicted_through_ = -std::numeric_limits<SimTime>::infinity();
};

/// Streaming LastValuePredictor: O(1) everything.
class StreamingLastValue final : public StreamingPredictor {
 public:
  explicit StreamingLastValue(std::string name = "LV");
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;

 private:
  std::optional<double> last_;
};

/// Streaming ArPredictor: running shifted moments over consecutive
/// (Y_{t-1}, Y_t) pairs give the OLS fit in O(1); monotonic min/max
/// deques over the lagged values detect constant windows exactly, so
/// the degenerate fallback (predict the last value) matches
/// util::ar1_fit.  Windowed variants evict pairs as observations leave
/// the window and rebuild moments exactly every |window| updates.
class StreamingAr final : public StreamingPredictor {
 public:
  StreamingAr(std::string name, WindowSpec window, std::size_t min_samples = 3);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;
  SimTime safe_query_time() const override;
  const WindowSpec& window() const { return window_; }

 private:
  struct MinMaxEntry {
    std::uint64_t seq;
    double value;
  };

  void add_pair(double prev, double value);
  void remove_front_pair();
  void evict_front_observation();
  void evict_before(SimTime cutoff);
  void maybe_rebuild();
  void rebuild_from_window();
  double fit_and_predict() const;

  WindowSpec window_;
  std::size_t min_samples_;
  // Window contents (empty for the all-data window, which never evicts).
  std::deque<Observation> obs_;
  std::size_t count_ = 0;      // observations currently in the window
  double last_value_ = 0.0;    // newest value in the window
  // Shifted pair moments: u = Y_{t-1} - shift, w = Y_t - shift.
  double shift_ = 0.0;
  bool shift_set_ = false;
  std::size_t pairs_ = 0;
  double su_ = 0.0, sw_ = 0.0, suu_ = 0.0, suw_ = 0.0;
  // Monotonic deques over lagged values for exact min/max under eviction.
  std::deque<MinMaxEntry> min_deque_, max_deque_;
  std::uint64_t next_pair_seq_ = 0;
  std::uint64_t front_pair_seq_ = 0;
  std::size_t ops_since_rebuild_ = 0;
  SimTime evicted_through_ = -std::numeric_limits<SimTime>::infinity();
};

/// Streaming ClassifiedPredictor: one sub-state per size class; each
/// observation/query is routed to its class, so nothing is ever
/// filtered or copied.  Matches the batch filter-then-predict exactly
/// because filtering preserves arrival order.
class StreamingClassified final : public StreamingPredictor {
 public:
  /// `make_base` is called once per size class during construction (it
  /// is not retained) and must return a fresh base-family state.
  StreamingClassified(
      std::string name, SizeClassifier classifier,
      const std::function<std::unique_ptr<StreamingPredictor>()>& make_base);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;
  SimTime safe_query_time() const override;

 private:
  SizeClassifier classifier_;
  std::vector<std::unique_ptr<StreamingPredictor>> per_class_;
};

/// NWS-style dynamic selection (Wolski 1998, cited as [42]) over a
/// battery: before absorbing each measurement, every candidate's
/// stream is scored on it; predict() delegates to the candidate with
/// the lowest mean percentage error so far (the first candidate until
/// any has a track record).
class DynamicSelector final : public StreamingPredictor {
 public:
  DynamicSelector(
      std::string name,
      const std::vector<std::shared_ptr<const Predictor>>& candidates);
  void observe(const Observation& observation) override;
  std::optional<Bandwidth> predict(const Query& query) override;
  SimTime safe_query_time() const override;

  /// Name of the candidate predict() currently delegates to.
  const std::string& current_choice() const;

  /// Mean percentage error accumulated per candidate (test/diagnostics).
  std::vector<std::pair<std::string, double>> scores() const;

 private:
  std::size_t best_index() const;

  std::vector<std::unique_ptr<StreamingPredictor>> streams_;
  std::vector<double> error_sum_;
  std::vector<std::size_t> error_count_;
};

}  // namespace wadp::predict
