// PredictionService: the predictive framework's front door.
//
// Ties the paper's three elements together behind one object: feed it
// instrumented transfer records (element 1), and it answers prediction
// queries with any predictor from the Section 4 battery (element 2),
// and exposes everything the information provider / broker need to
// publish (element 3 lives in mds/ and replica/, both of which can be
// driven from the same service).
//
// The service no longer owns any history.  All observations live in a
// history::HistoryStore (owned by default, shareable with the rest of
// the deployment via the shared_ptr constructor); the service keeps
// only derived state — one lazily-maintained streaming battery per
// series, keyed off store snapshots and their generation watermarks.
// Ingest goes straight to the store and never takes the battery lock,
// so queries on other threads never block a producer.
//
// Every answer comes from a predictor's streaming form.  A query older
// than a stream's safe_query_time() (a temporal window already evicted
// what it needs) replays the series snapshot through a fresh stream(),
// counted in wadp_predict_fallback_total{reason="time_travel"}.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gridftp/log.hpp"
#include "gridftp/record.hpp"
#include "history/store.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "predict/evaluator.hpp"
#include "predict/predictors.hpp"
#include "predict/suite.hpp"

namespace wadp::core {

struct ServiceConfig {
  predict::SizeClassifier classifier = predict::SizeClassifier::paper_classes();
  std::size_t training_count = 15;  ///< Section 6.1 training prefix
  /// Predictor answering predict() when none is named.  AVG15 with
  /// file-size classification is one of the paper's stronger simple
  /// choices (Figs. 12-13).
  std::string default_predictor = "AVG15/fs";
  /// The battery the service answers from: the paper's 30 (Section
  /// 4.4), the extended battery (the 30 plus the EWMA / SREG / ADAPT
  /// variants of predict/extended.hpp), or the regression battery (the
  /// extended one plus the disk/probe regression and hybrid predictors
  /// of predict/regression.hpp).
  enum class Battery { kPaper, kExtended, kRegression };
  Battery battery = Battery::kPaper;
};

/// The series key now lives with the history plane; core re-exports it
/// for existing call sites.
using SeriesKey = history::SeriesKey;

class PredictionService {
 public:
  explicit PredictionService(ServiceConfig config = {});

  /// Runs against an existing store (the testbed's, a server fleet's)
  /// instead of a private one.  Records already in the store — and
  /// records other producers append later — are predictable without
  /// ever passing through ingest().
  explicit PredictionService(std::shared_ptr<history::HistoryStore> store,
                             ServiceConfig config = {});

  /// Feeds one instrumented record into the history store.  Records
  /// may arrive from multiple logs; each series is kept time-ordered
  /// by the store.
  void ingest(const gridftp::TransferRecord& record);

  /// Feeds every record of a server log.  (Don't call this for logs
  /// already attached to a shared store — they are ingested already.)
  void ingest_log(const gridftp::TransferLog& log);

  /// Predicted bandwidth (bytes/s) for a `size`-byte transfer on the
  /// series at time `now`, using `predictor_name` (default predictor
  /// when empty).  nullopt when the series is shorter than the training
  /// count, the predictor is unknown, or it cannot produce a value.
  /// Thread-safe; concurrent with ingest.
  std::optional<Bandwidth> predict(const SeriesKey& key, Bytes size,
                                   SimTime now,
                                   std::string_view predictor_name = "") const;

  /// Batch form of predict(): answers every query of one series with
  /// one store snapshot, one predictor resolution, and one battery
  /// catch-up for the whole batch, instead of repeating all three per
  /// query.  Answers are bit-identical to calling predict() per query
  /// (same snapshot → same streams → same arithmetic; asserted by
  /// tests/core/service_batch_test).  This is the serving plane's fill
  /// amortization for coalesced same-series misses.
  std::vector<std::optional<Bandwidth>> predict_many(
      const SeriesKey& key, std::span<const predict::Query> queries,
      std::string_view predictor_name = "") const;

  /// Every battery member's answer, in suite order (for comparison UIs
  /// and the information provider's extended attributes).
  std::vector<std::pair<std::string, std::optional<Bandwidth>>> predict_all(
      const SeriesKey& key, Bytes size, SimTime now) const;

  /// Runs the paper's evaluation (percentage error, relative
  /// performance) over a stored series with the full battery.  nullopt
  /// when the series is too short to evaluate anything.
  std::optional<predict::EvaluationResult> evaluate(const SeriesKey& key) const;

  /// Builds (or extends) the streaming battery for every series the
  /// store currently holds, so the first query after a restart pays
  /// no replay.  This is the durability plane's battery catch-up: run
  /// it after durability::recover() and the streaming state is
  /// bit-identical to the pre-crash process (same observations, same
  /// order, same arithmetic — tests/durability/recovery_test proves
  /// it against the offline Evaluator).  Returns series warmed.
  std::size_t warm_up();

  /// Snapshot of one series (valid()==false when unknown).
  history::SeriesSnapshot series(const SeriesKey& key) const;
  std::vector<SeriesKey> series_keys() const;
  std::size_t total_observations() const;

  history::HistoryStore& history() { return *store_; }
  const history::HistoryStore& history() const { return *store_; }
  const std::shared_ptr<history::HistoryStore>& history_ptr() const {
    return store_;
  }

  const predict::PredictorSuite& suite() const { return suite_; }
  const ServiceConfig& config() const { return config_; }

  /// Optional quality plane: every answered prediction is recorded as a
  /// ServedPrediction (under the ambient trace id) so the tracker can
  /// later join it against the completed transfer.  The tracker must
  /// outlive the service.
  void bind_quality(obs::QualityTracker* quality) { quality_ = quality; }

 private:
  /// One series' lazily-maintained streaming battery (suite order).
  /// Queries answer from the streams in O(1)/O(log W) per predictor.
  /// `generation` is the store generation the streams were built
  /// against: a mismatch (out-of-order insert or retention eviction
  /// changed the absorbed prefix) forces one full replay.
  struct BatteryState {
    std::vector<std::unique_ptr<predict::StreamingPredictor>> streams;
    std::size_t fed = 0;  ///< observations already absorbed
    std::uint64_t generation = 0;
  };

  /// Builds/replays/extends the battery for `key` so every stream has
  /// absorbed every observation of `snapshot`.  Caller holds mu_.
  BatteryState& catch_up(const SeriesKey& key,
                         const history::SeriesSnapshot& snapshot) const;

  /// Answers `query` with battery member `index`: from the caught-up
  /// stream, or — for a time-travelling query — from a fresh stream
  /// replayed over `snapshot`.  Caller holds mu_.
  std::optional<Bandwidth> predict_at(const BatteryState& state,
                                      const history::SeriesSnapshot& snapshot,
                                      std::size_t index,
                                      const predict::Query& query) const;

  /// Obs instruments, resolved once at construction; the ingest and
  /// query hot paths then cost relaxed atomic adds.
  struct Metrics {
    obs::Counter* ingested = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* fallback_time_travel = nullptr;
    obs::Counter* replays = nullptr;
    obs::Histogram* predict_latency = nullptr;
  };

  ServiceConfig config_;
  predict::PredictorSuite suite_;
  std::shared_ptr<history::HistoryStore> store_;
  obs::QualityTracker* quality_ = nullptr;
  /// Guards battery_ only.  Ingest does not take it; predict() holds it
  /// while catching up and answering, so concurrent queries serialize
  /// on the streaming state but raw snapshot readers never wait.
  mutable std::mutex mu_;
  mutable std::map<SeriesKey, BatteryState> battery_;
  Metrics metrics_;
};

}  // namespace wadp::core
