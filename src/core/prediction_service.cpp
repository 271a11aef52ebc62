#include "core/prediction_service.hpp"

#include <chrono>

#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "predict/extended.hpp"
#include "predict/regression.hpp"
#include "util/error.hpp"

namespace wadp::core {
namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

predict::PredictorSuite make_battery(
    ServiceConfig::Battery battery,
    const predict::SizeClassifier& classifier) {
  switch (battery) {
    case ServiceConfig::Battery::kExtended:
      return predict::extended_suite(classifier);
    case ServiceConfig::Battery::kRegression:
      return predict::regression_suite(classifier);
    case ServiceConfig::Battery::kPaper:
      break;
  }
  return predict::PredictorSuite::paper_suite(classifier);
}

}  // namespace

PredictionService::PredictionService(ServiceConfig config)
    : PredictionService(std::make_shared<history::HistoryStore>(),
                        std::move(config)) {}

PredictionService::PredictionService(
    std::shared_ptr<history::HistoryStore> store, ServiceConfig config)
    : config_(std::move(config)),
      suite_(make_battery(config_.battery, config_.classifier)),
      store_(std::move(store)) {
  WADP_CHECK_MSG(store_ != nullptr, "prediction service needs a store");
  WADP_CHECK_MSG(suite_.find(config_.default_predictor) != nullptr,
                 "default predictor not in the battery");
  auto& registry = obs::Registry::global();
  metrics_.ingested = &registry.counter(
      "wadp_ingest_records_total", {},
      "Transfer records ingested through the prediction service");
  metrics_.queries =
      &registry.counter("wadp_predict_queries_total", {},
                        "Prediction queries answered by the service");
  metrics_.fallback_time_travel = &registry.counter(
      "wadp_predict_fallback_total", {{"reason", "time_travel"}},
      "Queries older than a stream's eviction frontier, answered by "
      "replaying the series through a fresh stream");
  metrics_.replays = &registry.counter(
      "wadp_battery_replays_total", {},
      "Streaming-battery replays forced by prefix-invalidating ingest");
  metrics_.predict_latency =
      &registry.histogram("wadp_predict_latency_seconds", {},
                          "Wall-clock latency of predict()");
}

void PredictionService::ingest(const gridftp::TransferRecord& record) {
  // Ordering (including out-of-order inserts) is the store's job now;
  // the battery discovers prefix changes via the generation watermark.
  metrics_.ingested->inc();
  store_->append(record);
}

void PredictionService::ingest_log(const gridftp::TransferLog& log) {
  auto span = obs::Tracer::global().start("predict.ingest");
  span.set_attr("RECORDS",
                static_cast<std::int64_t>(log.records().size()));
  for (const auto& record : log.records()) ingest(record);
}

PredictionService::BatteryState& PredictionService::catch_up(
    const SeriesKey& key, const history::SeriesSnapshot& snapshot) const {
  BatteryState& state = battery_[key];
  if (state.generation != snapshot.generation() && !state.streams.empty()) {
    metrics_.replays->inc();
    state.streams.clear();
  }
  if (state.streams.empty()) {
    state.streams.reserve(suite_.size());
    for (const auto& predictor : suite_.predictors()) {
      state.streams.push_back(predictor->stream());
    }
    state.fed = 0;
    state.generation = snapshot.generation();
  }
  const auto& series = snapshot.observations();
  for (; state.fed < series.size(); ++state.fed) {
    const auto& obs = series[state.fed];
    for (const auto& stream : state.streams) stream->observe(obs);
  }
  return state;
}

std::optional<Bandwidth> PredictionService::predict_at(
    const BatteryState& state, const history::SeriesSnapshot& snapshot,
    std::size_t index, const predict::Query& query) const {
  predict::StreamingPredictor& stream = *state.streams[index];
  if (query.time >= stream.safe_query_time()) return stream.predict(query);
  // Time travel: a temporal window has already evicted history this
  // query needs, so replay the snapshot through a fresh state.
  metrics_.fallback_time_travel->inc();
  const auto replay = suite_.predictors()[index]->stream();
  for (const auto& obs : snapshot.observations()) replay->observe(obs);
  return replay->predict(query);
}

std::optional<Bandwidth> PredictionService::predict(
    const SeriesKey& key, Bytes size, SimTime now,
    std::string_view predictor_name) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc();
  auto span = obs::Tracer::global().start("predict.query");
  span.set_attr("SERIES", key.to_string());

  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() < config_.training_count) {
    span.set_attr("RESULT", "too_short");
    return std::nullopt;
  }
  const auto index = suite_.index_of(
      predictor_name.empty() ? config_.default_predictor : predictor_name);
  if (!index) {
    span.set_attr("RESULT", "unknown_predictor");
    return std::nullopt;
  }
  span.set_attr("PREDICTOR", suite_.predictors()[*index]->name());
  {
    auto classify = span.child("predict.classify");
    classify.set_attr(
        "CLASS", static_cast<std::int64_t>(config_.classifier.classify(size)));
  }
  std::optional<Bandwidth> answer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    {
      auto update = span.child("predict.battery_update");
      update.set_attr("EPOCH", static_cast<std::int64_t>(snapshot.epoch()));
    }
    const BatteryState& state = catch_up(key, snapshot);
    auto answer_span = span.child("predict.answer");
    answer = predict_at(state, snapshot, *index,
                        predict::Query{.time = now, .file_size = size});
    answer_span.end();
  }
  if (quality_ != nullptr && answer) {
    quality_->record_prediction(obs::ServedPrediction{
        .trace_id = obs::TraceContext::current().trace_id,
        .site = key.host,
        .file_size = size,
        .time = now,
        .predictor = suite_.predictors()[*index]->name(),
        .value = *answer,
    });
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return answer;
}

std::vector<std::optional<Bandwidth>> PredictionService::predict_many(
    const SeriesKey& key, std::span<const predict::Query> queries,
    std::string_view predictor_name) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc(queries.size());
  auto span = obs::Tracer::global().start("predict.query_many");
  span.set_attr("SERIES", key.to_string());
  span.set_attr("BATCH", static_cast<std::int64_t>(queries.size()));

  std::vector<std::optional<Bandwidth>> answers(queries.size());
  if (queries.empty()) return answers;

  // One snapshot covers the batch: every answer is computed against the
  // same epoch, which is what makes the batch bit-identical to a
  // per-query loop that ran before the next append.
  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() < config_.training_count) {
    span.set_attr("RESULT", "too_short");
    return answers;
  }
  const auto index = suite_.index_of(
      predictor_name.empty() ? config_.default_predictor : predictor_name);
  if (!index) {
    span.set_attr("RESULT", "unknown_predictor");
    return answers;
  }
  span.set_attr("PREDICTOR", suite_.predictors()[*index]->name());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const BatteryState& state = catch_up(key, snapshot);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      answers[i] = predict_at(state, snapshot, *index, queries[i]);
    }
  }
  if (quality_ != nullptr) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!answers[i]) continue;
      quality_->record_prediction(obs::ServedPrediction{
          .trace_id = obs::TraceContext::current().trace_id,
          .site = key.host,
          .file_size = queries[i].file_size,
          .time = queries[i].time,
          .predictor = suite_.predictors()[*index]->name(),
          .value = *answers[i],
      });
    }
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return answers;
}

std::vector<std::pair<std::string, std::optional<Bandwidth>>>
PredictionService::predict_all(const SeriesKey& key, Bytes size,
                               SimTime now) const {
  const std::uint64_t started = wall_ns();
  metrics_.queries->inc();
  auto span = obs::Tracer::global().start("predict.query");
  span.set_attr("SERIES", key.to_string());
  span.set_attr("PREDICTOR", "*");

  std::vector<std::pair<std::string, std::optional<Bandwidth>>> out;
  out.reserve(suite_.size());
  const auto snapshot = store_->snapshot(key);
  const bool ready = snapshot.size() >= config_.training_count;
  const predict::Query query{.time = now, .file_size = size};
  if (ready) {
    std::lock_guard<std::mutex> lock(mu_);
    auto update = span.child("predict.battery_update");
    const BatteryState& state = catch_up(key, snapshot);
    update.end();
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      out.emplace_back(suite_.predictors()[i]->name(),
                       predict_at(state, snapshot, i, query));
    }
    if (quality_ != nullptr) {
      for (const auto& [name, value] : out) {
        if (!value) continue;
        quality_->record_prediction(obs::ServedPrediction{
            .trace_id = obs::TraceContext::current().trace_id,
            .site = key.host,
            .file_size = size,
            .time = now,
            .predictor = name,
            .value = *value,
        });
      }
    }
  } else {
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      out.emplace_back(suite_.predictors()[i]->name(), std::nullopt);
    }
  }
  metrics_.predict_latency->record(
      static_cast<double>(wall_ns() - started) * 1e-9);
  return out;
}

std::size_t PredictionService::warm_up() {
  auto span = obs::Tracer::global().start("predict.warm_up");
  std::size_t warmed = 0;
  for (const auto& key : store_->keys()) {
    const auto snapshot = store_->snapshot(key);
    if (!snapshot.valid()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    catch_up(key, snapshot);
    ++warmed;
  }
  span.set_attr("SERIES", static_cast<std::int64_t>(warmed));
  return warmed;
}

std::optional<predict::EvaluationResult> PredictionService::evaluate(
    const SeriesKey& key) const {
  const auto snapshot = store_->snapshot(key);
  if (snapshot.size() <= config_.training_count) return std::nullopt;
  predict::EvalConfig eval_config;
  eval_config.training_count = config_.training_count;
  eval_config.classifier = config_.classifier;
  const predict::Evaluator evaluator(eval_config);
  return evaluator.run(snapshot.span(), suite_.pointers());
}

history::SeriesSnapshot PredictionService::series(const SeriesKey& key) const {
  return store_->snapshot(key);
}

std::vector<SeriesKey> PredictionService::series_keys() const {
  return store_->keys();
}

std::size_t PredictionService::total_observations() const {
  return store_->total_observations();
}

}  // namespace wadp::core
