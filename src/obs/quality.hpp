// Online prediction-quality plane: joins the predictions the framework
// *served* against the transfers that later *completed*, maintaining
// the paper's normalized percent error (Section 6.2) as a rolling,
// per-(site, predictor, size-class) statistic — at serving time, not
// in an offline evaluator pass.
//
// The join is causal first, temporal second: every served prediction
// is remembered under the trace id of the query that produced it
// (obs/context.hpp), and a completed TransferRecord carrying the same
// trace id claims those predictions exactly.  Records without a trace
// id (legacy logs, replayed campaigns) fall back to a
// (site, size-class, time-window) nearest-neighbour match.
//
// Each joined error feeds a Page-Hinkley drift detector per
// (site, predictor): when the error mean shifts upward — the serving
// link changed and the predictor hasn't caught up — the tracker raises
// a `quality.drift` ULM self-event, bumps wadp_quality_drift_total,
// and marks the pair "drifting" for a cooldown so the replica broker
// can demote it in kPredictedBest ranking (see replica/broker.cpp).
// That is the closed loop: predictions are scored online and the
// scores steer the next selection.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gridftp/record.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "predict/classifier.hpp"
#include "util/stats.hpp"

namespace wadp::obs {

/// One prediction as it was served to a caller.
struct ServedPrediction {
  std::uint64_t trace_id = 0;  ///< 0 = untraced (fallback join only)
  std::string site;            ///< serving host the prediction is about
  Bytes file_size = 0;         ///< size the query asked about
  double time = 0.0;           ///< sim-time the prediction was served
  std::string predictor;       ///< e.g. "AVG15/fs" — closed set of 30
  double value = 0.0;          ///< predicted bandwidth (bytes/sec)
};

struct QualityConfig {
  predict::SizeClassifier classifier = predict::SizeClassifier::paper_classes();
  /// Max traces (and max unkeyed predictions) remembered while waiting
  /// for their transfer; oldest evicted first.
  std::size_t ledger_capacity = 4096;
  /// Fallback join: |record.start_time - prediction.time| bound (sim s).
  double fallback_window = 600.0;
  /// Page-Hinkley: errors seen before the detector may alarm.
  std::size_t min_observations = 8;
  /// Page-Hinkley tolerated drift delta (percent-error points).
  double ph_delta = 2.0;
  /// Page-Hinkley alarm threshold lambda (percent-error points).
  double ph_lambda = 30.0;
  /// Joins a (site, predictor) stays demoted after an alarm before the
  /// drifting flag clears and the detector restarts.
  std::size_t drift_cooldown = 50;
  /// Registry for wadp_quality_* metrics; nullptr = Registry::global().
  Registry* registry = nullptr;
  /// Sink for quality.drift self-events; nullptr = EventSink::global().
  EventSink* events = nullptr;
};

/// Rolling error statistics for one (site, predictor, size-class).
struct QualityCell {
  std::string site;
  std::string predictor;
  int size_class = 0;
  std::string class_label;  ///< classifier figure label, e.g. "10MB"
  std::size_t count = 0;
  double mean_error_pct = 0.0;
  double stddev_error_pct = 0.0;
  double min_error_pct = 0.0;
  double max_error_pct = 0.0;
  bool drifting = false;  ///< the (site, predictor) pair is demoted
};

/// Snapshot the broker (and the `wadp quality` verb) consults.
struct QualityReport {
  std::vector<QualityCell> cells;  ///< site / predictor / class sorted
  std::uint64_t predictions = 0;
  std::uint64_t joins_trace = 0;
  std::uint64_t joins_fallback = 0;
  std::uint64_t join_misses = 0;
  std::uint64_t skipped = 0;  ///< failed transfers not scored
  std::uint64_t drift_events = 0;

  std::uint64_t joins() const { return joins_trace + joins_fallback; }
  /// Joined transfers / scoreable transfers (1.0 when nothing seen).
  double join_rate() const;
};

class QualityTracker {
 public:
  explicit QualityTracker(QualityConfig config = {});
  QualityTracker(const QualityTracker&) = delete;
  QualityTracker& operator=(const QualityTracker&) = delete;

  /// Remembers one served prediction for a later join.
  void record_prediction(const ServedPrediction& prediction);

  /// Scores a completed transfer against the prediction(s) served for
  /// it.  Failed records are counted and skipped — a dead link says
  /// nothing about predictor accuracy.  Intended as a
  /// HistoryStore record observer (history/store.hpp).
  void observe_transfer(const gridftp::TransferRecord& record);

  /// True while the pair is in its post-alarm demotion window.
  bool drifting(const std::string& site, const std::string& predictor) const;
  /// Count-weighted mean percent error across every size class of one
  /// (site, predictor) pair — one scalar for how that predictor is
  /// doing at that site.  nullopt until at least one joined transfer
  /// scored the pair.
  std::optional<double> mean_error(const std::string& site,
                                   const std::string& predictor) const;
  /// True when any predictor serving `site` is drifting.
  bool site_drifting(const std::string& site) const;

  QualityReport report() const;

  const predict::SizeClassifier& classifier() const {
    return config_.classifier;
  }

 private:
  struct Detector {
    // Page-Hinkley over the error stream: alarm when the cumulative
    // deviation above the running mean exceeds lambda.
    std::size_t n = 0;
    double mean = 0.0;
    double cum = 0.0;
    double cum_min = 0.0;
    bool drifting = false;
    std::size_t cooldown_left = 0;

    void reset();
    /// Returns true when this sample raises an alarm.
    bool update(double x, const QualityConfig& config);
  };

  struct CellStats {
    util::RunningStats stats;
    Histogram* histogram = nullptr;  // registry-owned, resolved lazily
  };

  using CellKey = std::tuple<std::string, std::string, int>;  // site,pred,cls
  using PairKey = std::tuple<std::string, std::string>;       // site, pred
  // Transparent comparators: the observe hot path probes with
  // std::tie'd string references, never constructing an owning key on
  // the hit path (keys are built only on first insertion).

  void score(const ServedPrediction& prediction,
             const gridftp::TransferRecord& record, int size_class,
             const char* method);
  void evict_locked();

  QualityConfig config_;
  Registry& registry_;
  EventSink& events_;

  Counter& predictions_total_;
  Counter& joins_trace_total_;
  Counter& joins_fallback_total_;
  Counter& join_misses_total_;
  Counter& skipped_total_;

  mutable std::mutex mu_;
  /// Trace-keyed ledger plus FIFO of trace ids for eviction.
  std::unordered_map<std::uint64_t, std::vector<ServedPrediction>> ledger_;
  std::deque<std::uint64_t> ledger_order_;
  /// Untraced predictions, insertion order (time order in practice).
  std::deque<ServedPrediction> unkeyed_;
  std::map<CellKey, CellStats, std::less<>> cells_;
  std::map<PairKey, Detector, std::less<>> detectors_;
  std::uint64_t drift_events_ = 0;
};

}  // namespace wadp::obs
