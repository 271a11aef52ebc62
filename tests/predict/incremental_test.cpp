// Streaming/batch equivalence: every predictor's stream() must answer
// exactly what its stateless definition computes over the accumulated
// history prefix — on every prefix, for every battery in the system.
#include "predict/incremental.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/prediction_service.hpp"
#include "nws/forecaster.hpp"
#include "predict/evaluator.hpp"
#include "predict/extended.hpp"
#include "predict/regression.hpp"
#include "predict/suite.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace wadp::predict {
namespace {

std::vector<Observation> irregular_series(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const std::vector<Bytes> sizes = {1 * kMB,   10 * kMB,  100 * kMB,
                                    500 * kMB, 1000 * kMB};
  std::vector<Observation> out;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.time = t,
                   .value = rng.uniform(2e6, 9e6),
                   .file_size = sizes[static_cast<std::size_t>(
                       rng.uniform_int(0, 4))]});
    // Mix short gaps with multi-hour ones so the temporal windows
    // (5hr..25hr, 5d/10d) actually evict during the walk.
    t += rng.uniform(60.0, 4.0 * util::kSecondsPerHour);
  }
  return out;
}

/// irregular_series carrying the regression battery's end-system
/// signals: disk and probe samples on most records, with gaps (0) that
/// the regression members must skip.
std::vector<Observation> carrying_series(std::uint64_t seed, std::size_t n) {
  auto out = irregular_series(seed, n);
  util::Rng rng(seed + 1000);
  for (auto& o : out) {
    o.disk = rng.uniform(0.0, 1.0) < 0.9 ? rng.uniform(1e7, 6e7) : 0.0;
    o.probe = rng.uniform(0.0, 1.0) < 0.8 ? rng.uniform(3e6, 2e7) : 0.0;
  }
  return out;
}

/// NWS probes every 20 minutes across the span of carrying_series, for
/// the hybrid GridFTP+NWS predictor to read.
const std::vector<nws::ProbeMeasurement>& probe_series() {
  static const auto probes = [] {
    util::Rng rng(99);
    std::vector<nws::ProbeMeasurement> out;
    for (double t = 0.0; t < 400.0 * util::kSecondsPerHour; t += 1200.0) {
      out.push_back(
          {.time = t, .value = rng.uniform(1e6, 4e6), .duration = 5.0});
    }
    return out;
  }();
  return probes;
}

std::vector<Observation> constant_series(std::size_t n, double value) {
  std::vector<Observation> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.time = static_cast<double>(i) * 1800.0,
                   .value = value,
                   .file_size = (i % 2 == 0) ? 10 * kMB : 900 * kMB});
  }
  return out;
}

// Families whose streaming form is bit-identical to the batch path
// (running/re-summed means, dual-multiset medians, last value); the
// temporal means and AR fits are exact to a relative ~1e-12 instead.
bool bit_identical_family(const std::string& name) {
  return name.find("hr") == std::string::npos &&
         name.find("AR") == std::string::npos;
}

/// The oracle check: every member's stream() answers what its stateless
/// predict() computes over the same prefix, at every prefix of a
/// disk/probe-carrying series with evicting gaps.
void expect_every_prefix_matches(const PredictorSuite& suite) {
  const auto series = carrying_series(7, 150);
  ASSERT_GT(suite.size(), 0u);
  for (const auto& predictor : suite.predictors()) {
    auto state = predictor->stream();
    ASSERT_NE(state, nullptr) << predictor->name();
    EXPECT_EQ(state->name(), predictor->name());
    std::size_t answered = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Query query{.time = series[i].time,
                        .file_size = series[i].file_size};
      const auto batch = predictor->predict(
          std::span<const Observation>(series).first(i), query);
      const auto streamed = state->predict(query);
      ASSERT_EQ(batch.has_value(), streamed.has_value())
          << predictor->name() << " at prefix " << i;
      if (batch) {
        ++answered;
        if (bit_identical_family(predictor->name())) {
          EXPECT_DOUBLE_EQ(*batch, *streamed)
              << predictor->name() << " at prefix " << i;
        } else {
          EXPECT_NEAR(*batch, *streamed,
                      std::max(1e-9, 1e-9 * std::abs(*batch)))
              << predictor->name() << " at prefix " << i;
        }
      }
      state->observe(series[i]);
    }
    // A member that never answers would pass vacuously.
    EXPECT_GT(answered, 0u) << predictor->name();
  }
}

TEST(StreamingEquivalenceTest, EveryPrefixAllThirtyPredictors) {
  expect_every_prefix_matches(PredictorSuite::paper_suite());
}

TEST(StreamingEquivalenceTest, EveryPrefixExtendedBattery) {
  expect_every_prefix_matches(extended_suite());
}

TEST(StreamingEquivalenceTest, EveryPrefixRegressionBattery) {
  const auto suite = regression_suite();
  EXPECT_EQ(suite.size(), 46u);
  expect_every_prefix_matches(suite);
}

TEST(StreamingEquivalenceTest, EveryPrefixNwsForecasterBattery) {
  const auto suite = nws::nws_forecaster_battery();
  EXPECT_EQ(suite.size(), 7u);
  expect_every_prefix_matches(suite);
}

TEST(StreamingEquivalenceTest, EveryPrefixHybridNws) {
  PredictorSuite suite;
  suite.add(std::make_shared<nws::HybridNwsPredictor>("HYBRID",
                                                      &probe_series()));
  expect_every_prefix_matches(suite);
}

TEST(StreamingEquivalenceTest, ConstantSeriesIsExactForAllThirty) {
  const auto series = constant_series(60, 5.0);
  const auto suite = PredictorSuite::paper_suite();
  std::vector<std::unique_ptr<StreamingPredictor>> states;
  for (const auto& predictor : suite.predictors()) {
    states.push_back(predictor->stream());
  }
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i >= 3) {
      const Query query{.time = series[i].time,
                        .file_size = series[i].file_size};
      for (const auto& state : states) {
        if (const auto value = state->predict(query)) {
          EXPECT_DOUBLE_EQ(*value, 5.0) << state->name();
        }
      }
    }
    for (const auto& state : states) state->observe(series[i]);
  }
}

/// The O(N²) reference the streaming evaluator replaced: every
/// prediction recomputed from its history prefix, then scored exactly
/// as Evaluator::run scores (same class split, same tie tolerance).
struct PrefixReplay {
  std::vector<ErrorStats> errors;      // [predictor][class + 1]
  std::vector<RelativeStats> relative;  // same layout
  std::size_t slots_per_predictor = 0;

  const ErrorStats& error(std::size_t p, int cls) const {
    return errors[p * slots_per_predictor + static_cast<std::size_t>(cls + 1)];
  }
  const RelativeStats& rel(std::size_t p, int cls) const {
    return relative[p * slots_per_predictor +
                    static_cast<std::size_t>(cls + 1)];
  }
};

PrefixReplay prefix_replay(std::span<const Observation> series,
                           const PredictorSuite& suite,
                           const EvalConfig& config) {
  constexpr double kTieEpsilon = 1e-9;
  PrefixReplay out;
  out.slots_per_predictor =
      static_cast<std::size_t>(config.classifier.num_classes()) + 1;
  out.errors.resize(suite.size() * out.slots_per_predictor);
  out.relative.resize(suite.size() * out.slots_per_predictor);
  for (std::size_t i = config.training_count; i < series.size(); ++i) {
    const Observation& actual = series[i];
    const Query query{.time = actual.time, .file_size = actual.file_size};
    const int cls = config.classifier.classify(actual.file_size);
    std::vector<double> errors(suite.size(),
                               std::numeric_limits<double>::quiet_NaN());
    double best = std::numeric_limits<double>::infinity();
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < suite.size(); ++p) {
      const auto predicted =
          suite.predictors()[p]->predict(series.first(i), query);
      if (!predicted) continue;
      errors[p] = util::percent_error(actual.value, *predicted);
      best = std::min(best, errors[p]);
      worst = std::max(worst, errors[p]);
    }
    for (std::size_t p = 0; p < suite.size(); ++p) {
      if (std::isnan(errors[p])) continue;
      for (const int slot : {0, cls + 1}) {
        const std::size_t at =
            p * out.slots_per_predictor + static_cast<std::size_t>(slot);
        out.errors[at].add(errors[p]);
        auto& rel = out.relative[at];
        ++rel.opportunities;
        if (errors[p] <= best + kTieEpsilon) ++rel.best;
        if (errors[p] >= worst - kTieEpsilon) ++rel.worst;
      }
    }
  }
  return out;
}

TEST(EvaluatorEngineTest, StreamingMatchesLegacyAggregates) {
  const auto series = irregular_series(11, 140);
  const auto suite = PredictorSuite::paper_suite();
  const EvalConfig config;

  const auto legacy = prefix_replay(series, suite, config);
  const auto streaming = Evaluator(config).run(series, suite.pointers());

  ASSERT_EQ(streaming.evaluated_transfers(),
            series.size() - config.training_count);
  for (std::size_t p = 0; p < suite.size(); ++p) {
    for (int cls = EvaluationResult::kAllClasses; cls < 4; ++cls) {
      const auto& a = legacy.error(p, cls);
      const auto& b = streaming.errors(p, cls);
      ASSERT_EQ(a.count(), b.count()) << p << "/" << cls;
      EXPECT_NEAR(a.sum(), b.sum(), 1e-6);
      EXPECT_NEAR(a.min(), b.min(), 1e-9);
      EXPECT_NEAR(a.max(), b.max(), 1e-9);
      EXPECT_NEAR(a.stddev(), b.stddev(), 1e-6);
      const auto& ra = legacy.rel(p, cls);
      const auto& rb = streaming.relative(p, cls);
      EXPECT_EQ(ra.opportunities, rb.opportunities) << p << "/" << cls;
      EXPECT_EQ(ra.best, rb.best) << p << "/" << cls;
      EXPECT_EQ(ra.worst, rb.worst) << p << "/" << cls;
    }
  }
}

TEST(OnlineStreamingTest, DynamicSelectorScoresViaStreams) {
  const auto series = irregular_series(23, 60);
  std::vector<std::shared_ptr<const Predictor>> candidates = {
      std::make_shared<MeanPredictor>("AVG", WindowSpec::all()),
      std::make_shared<LastValuePredictor>(),
      std::make_shared<MedianPredictor>("MED15", WindowSpec::last_n(15)),
  };
  DynamicSelector streamed("sel", candidates);
  // Reference selector: same candidates scored the stateless way.
  std::vector<Observation> history;
  std::vector<double> error_sum(candidates.size(), 0.0);
  std::vector<std::size_t> error_count(candidates.size(), 0);
  for (const auto& obs : series) {
    const Query query{.time = obs.time, .file_size = obs.file_size};
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (const auto p = candidates[i]->predict(history, query)) {
        error_sum[i] += util::percent_error(obs.value, *p);
        ++error_count[i];
      }
    }
    history.push_back(obs);
    streamed.observe(obs);
  }
  const auto scores = streamed.scores();
  ASSERT_EQ(scores.size(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_GT(error_count[i], 0u);
    const double expected =
        error_sum[i] / static_cast<double>(error_count[i]);
    EXPECT_DOUBLE_EQ(scores[i].second, expected) << scores[i].first;
  }
}

}  // namespace
}  // namespace wadp::predict

namespace wadp::core {
namespace {

gridftp::TransferRecord service_record(double end, double bw_mb, Bytes size) {
  gridftp::TransferRecord r;
  r.host = "dpsslx04.lbl.gov";
  r.source_ip = "140.221.65.69";
  r.file_name = "/v/f";
  r.file_size = size;
  r.volume = "/v";
  const double duration = static_cast<double>(size) / (bw_mb * 1e6);
  r.start_time = end - duration;
  r.end_time = end;
  r.op = gridftp::Operation::kRead;
  r.streams = 8;
  r.tcp_buffer = 1'000'000;
  return r;
}

const SeriesKey kServiceKey{.host = "dpsslx04.lbl.gov",
                            .remote_ip = "140.221.65.69",
                            .op = gridftp::Operation::kRead};

TEST(PredictionServiceStreamingTest, OutOfOrderIngestStaysConsistent) {
  // The streaming battery is invalidated and replayed when a record
  // lands mid-series, so answers always match the sorted history.
  const SeriesKey& key = kServiceKey;
  PredictionService ordered;
  PredictionService interleaved;
  std::vector<gridftp::TransferRecord> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(
        service_record(100.0 + i * 500.0, 2.0 + (i % 7), 10 * kMB));
  }
  for (const auto& r : records) ordered.ingest(r);
  // Query the interleaved service mid-stream so its battery is built,
  // then force the out-of-order replay path.
  for (int i = 0; i < 30; ++i) interleaved.ingest(records[static_cast<std::size_t>(i)]);
  (void)interleaved.predict(key, 10 * kMB, 1e9);
  for (int i = 39; i >= 30; --i) interleaved.ingest(records[static_cast<std::size_t>(i)]);

  const double now = records.back().end_time + 60.0;
  for (const auto& name : {"AVG15/fs", "AVG", "MED15", "AR"}) {
    const auto a = ordered.predict(key, 10 * kMB, now, name);
    const auto b = interleaved.predict(key, 10 * kMB, now, name);
    ASSERT_EQ(a.has_value(), b.has_value()) << name;
    if (a) {
      EXPECT_DOUBLE_EQ(*a, *b) << name;
    }
  }
  const auto all_a = ordered.predict_all(key, 10 * kMB, now);
  const auto all_b = interleaved.predict_all(key, 10 * kMB, now);
  ASSERT_EQ(all_a.size(), all_b.size());
  for (std::size_t i = 0; i < all_a.size(); ++i) {
    EXPECT_EQ(all_a[i].first, all_b[i].first);
    ASSERT_EQ(all_a[i].second.has_value(), all_b[i].second.has_value())
        << all_a[i].first;
  }
}

TEST(PredictionServiceStreamingTest, TimeTravellingQueryReplaysSnapshot) {
  // A query far in the future advances AVG5hr/fs's eviction frontier;
  // a later query behind that frontier must replay the snapshot through
  // a fresh stream and still equal the stateless oracle — through both
  // predict() and predict_many(), each answer counted as a time-travel.
  constexpr const char* kName = "AVG5hr/fs";
  PredictionService service;
  for (int i = 0; i < 40; ++i) {
    service.ingest(service_record(100.0 + i * 1800.0, 2.0 + (i % 5),
                                  10 * kMB));
  }
  auto& time_travel = obs::Registry::global().counter(
      "wadp_predict_fallback_total", {{"reason", "time_travel"}});
  const auto snapshot = service.series(kServiceKey);
  const predict::Predictor* oracle = service.suite().find(kName);
  ASSERT_NE(oracle, nullptr);

  const double late = snapshot.back().time + 30 * util::kSecondsPerHour;
  (void)service.predict(kServiceKey, 10 * kMB, late, kName);

  const std::uint64_t before = time_travel.value();
  const std::vector<predict::Query> queries = {
      {.time = snapshot.observations()[20].time, .file_size = 10 * kMB},
      {.time = snapshot.observations()[30].time + 600.0,
       .file_size = 10 * kMB},
  };
  for (const auto& query : queries) {
    const auto expected = oracle->predict(snapshot.span(), query);
    ASSERT_TRUE(expected.has_value());
    const auto single =
        service.predict(kServiceKey, query.file_size, query.time, kName);
    ASSERT_TRUE(single.has_value());
    EXPECT_DOUBLE_EQ(*single, *expected);
  }
  EXPECT_EQ(time_travel.value(), before + queries.size());

  const auto batch = service.predict_many(kServiceKey, queries, kName);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = oracle->predict(snapshot.span(), queries[i]);
    ASSERT_TRUE(batch[i].has_value());
    EXPECT_DOUBLE_EQ(*batch[i], *expected);
  }
  EXPECT_EQ(time_travel.value(), before + 2 * queries.size());
}

}  // namespace
}  // namespace wadp::core
