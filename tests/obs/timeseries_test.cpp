#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace wadp::obs {
namespace {

RecorderConfig with(Registry* registry, std::size_t ring_capacity = 512,
                    std::size_t max_series = 8192) {
  RecorderConfig config;
  config.registry = registry;
  config.ring_capacity = ring_capacity;
  config.max_series = max_series;
  return config;
}

TEST(TimeseriesTest, CounterYieldsCumulativeAndRateSeries) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Counter& c = registry.counter("wadp_x_total");

  c.inc(10);
  recorder.scrape(1.0);
  c.inc(30);
  recorder.scrape(5.0);

  const auto raw = recorder.samples("wadp_x_total");
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_DOUBLE_EQ(raw[0].value, 10.0);
  EXPECT_DOUBLE_EQ(raw[1].value, 40.0);

  const auto latest =
      recorder.latest(MetricsRecorder::rate_series("wadp_x_total"));
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->time, 5.0);
  EXPECT_DOUBLE_EQ(latest->value, 30.0 / 4.0);
}

TEST(TimeseriesTest, CounterBornAfterFirstScrapeRatesImmediately) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  recorder.scrape(10.0);

  // A counter first seen mid-run implicitly sat at zero before it
  // registered; its rate series must carry a sample on the very first
  // scrape that sees it, or SLO detection pays an extra interval.
  Counter& c = registry.counter("wadp_late_total");
  c.inc(6);
  recorder.scrape(13.0);

  const auto rate =
      recorder.latest(MetricsRecorder::rate_series("wadp_late_total"));
  ASSERT_TRUE(rate.has_value());
  EXPECT_DOUBLE_EQ(rate->value, 2.0);
}

TEST(TimeseriesTest, LabeledCounterFamilyGetsAggregateRate) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Counter& read = registry.counter("wadp_ops_total", {{"op", "read"}});
  Counter& write = registry.counter("wadp_ops_total", {{"op", "write"}});

  recorder.scrape(0.0);
  read.inc(4);
  write.inc(6);
  recorder.scrape(2.0);

  const auto family =
      recorder.latest(MetricsRecorder::rate_series("wadp_ops_total"));
  ASSERT_TRUE(family.has_value());
  EXPECT_DOUBLE_EQ(family->value, 5.0);

  const auto cell = recorder.latest(
      MetricsRecorder::rate_series("wadp_ops_total{op=\"read\"}"));
  ASSERT_TRUE(cell.has_value());
  EXPECT_DOUBLE_EQ(cell->value, 2.0);
}

TEST(TimeseriesTest, HistogramYieldsQuantilesAndSampleRate) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Histogram& h = registry.histogram("wadp_latency_seconds");

  recorder.scrape(0.0);
  for (int i = 0; i < 100; ++i) h.record(0.01 * (i + 1));
  recorder.scrape(10.0);

  const auto p50 =
      recorder.latest(MetricsRecorder::p50_series("wadp_latency_seconds"));
  const auto p99 =
      recorder.latest(MetricsRecorder::p99_series("wadp_latency_seconds"));
  const auto rate =
      recorder.latest(MetricsRecorder::rate_series("wadp_latency_seconds"));
  ASSERT_TRUE(p50.has_value());
  ASSERT_TRUE(p99.has_value());
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(p50->value, 0.5, 0.1);
  EXPECT_GT(p99->value, p50->value);
  EXPECT_DOUBLE_EQ(rate->value, 10.0);
}

TEST(TimeseriesTest, InfiniteHistogramSamplesReadInfiniteQuantiles) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Histogram& h = registry.histogram("wadp_stall_seconds");
  for (int i = 0; i < 10; ++i) h.record(1.0);
  for (int i = 0; i < 90; ++i) {
    h.record(std::numeric_limits<double>::infinity());
  }
  recorder.scrape(1.0);

  const auto p50 =
      recorder.latest(MetricsRecorder::p50_series("wadp_stall_seconds"));
  const auto p99 =
      recorder.latest(MetricsRecorder::p99_series("wadp_stall_seconds"));
  ASSERT_TRUE(p50.has_value());
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p50->value, std::numeric_limits<double>::infinity());
  EXPECT_EQ(p99->value, std::numeric_limits<double>::infinity());
}

TEST(TimeseriesTest, IdleHistogramReusesQuantilesUntilCountMoves) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Histogram& h = registry.histogram("wadp_idle_seconds");
  recorder.scrape(1.0);
  h.record(2.0);
  recorder.scrape(2.0);
  recorder.scrape(3.0);  // count unchanged: same quantiles reused
  h.record(8.0);
  h.record(8.0);
  recorder.scrape(4.0);

  const auto p50 = recorder.samples(
      MetricsRecorder::p50_series("wadp_idle_seconds"));
  ASSERT_EQ(p50.size(), 4u);
  EXPECT_DOUBLE_EQ(p50[0].value, 0.0);
  EXPECT_GT(p50[1].value, 1.0);
  EXPECT_DOUBLE_EQ(p50[2].value, p50[1].value);
  EXPECT_GT(p50[3].value, p50[2].value);
}

TEST(TimeseriesTest, ScrapeRacesRegistration) {
  // One thread keeps registering labeled counters and histograms (each
  // registration bumps the registry generation) and recording into
  // them while another scrapes.  Once both stop, one more scrape must
  // see every instrument with its final value: a registration that
  // raced a plan rebuild is picked up by the next scrape, never lost.
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  constexpr int kCells = 64;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kCells; ++i) {
      const std::string cell = std::to_string(i);
      registry.counter("wadp_race_total", {{"cell", cell}}).inc(i + 1);
      registry.histogram("wadp_race_seconds", {{"cell", cell}})
          .record(0.001 * (i + 1));
      registry.counter("wadp_race_total", {{"cell", "0"}}).inc();
    }
    done.store(true, std::memory_order_release);
  });
  double now = 0.0;
  while (!done.load(std::memory_order_acquire)) recorder.scrape(now += 1.0);
  writer.join();
  recorder.scrape(now + 1.0);

  for (int i = 0; i < kCells; ++i) {
    const std::string cell = std::to_string(i);
    const auto value =
        recorder.latest("wadp_race_total{cell=\"" + cell + "\"}");
    ASSERT_TRUE(value.has_value()) << "cell " << i;
    EXPECT_DOUBLE_EQ(value->value, i == 0 ? 1.0 + kCells : i + 1.0);
    EXPECT_TRUE(recorder
                    .latest(MetricsRecorder::p50_series(
                        "wadp_race_seconds{cell=\"" + cell + "\"}"))
                    .has_value())
        << "cell " << i;
  }
}

TEST(TimeseriesTest, NonAdvancingScrapeIsSkippedAndCounted) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  registry.counter("wadp_x_total").inc();

  EXPECT_GT(recorder.scrape(1.0), 0u);
  EXPECT_EQ(recorder.scrape(1.0), 0u);  // same instant: double-wired tick
  EXPECT_EQ(recorder.scrape(0.5), 0u);  // time went backwards
  EXPECT_EQ(recorder.scrapes(), 1u);
  EXPECT_EQ(recorder.skipped_scrapes(), 2u);
  EXPECT_DOUBLE_EQ(recorder.last_scrape_time(), 1.0);
}

TEST(TimeseriesTest, ScrapeTalliesAreLocalToEachRecorder) {
  // Two recorders over one registry share the wadp_ts_* self-metrics
  // (wadp serve runs a wall-clock and a query-time recorder in one
  // process); the accessors must report each recorder's own work.
  Registry registry;
  MetricsRecorder a(with(&registry));
  MetricsRecorder b(with(&registry));

  a.scrape(1.0);
  a.scrape(2.0);
  b.scrape(1.0);

  EXPECT_EQ(a.scrapes(), 2u);
  EXPECT_EQ(b.scrapes(), 1u);
  EXPECT_EQ(registry.counter("wadp_ts_scrapes_total").value(), 3u);
}

TEST(TimeseriesTest, RingEvictsOldestFirst) {
  Registry registry;
  MetricsRecorder recorder(with(&registry, /*ring_capacity=*/4));
  Gauge& g = registry.gauge("wadp_depth_ratio");

  for (int i = 0; i < 10; ++i) {
    g.set(static_cast<double>(i));
    recorder.scrape(static_cast<double>(i));
  }

  const auto samples = recorder.samples("wadp_depth_ratio");
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples.front().value, 6.0);
  EXPECT_DOUBLE_EQ(samples.back().value, 9.0);
}

TEST(TimeseriesTest, SeriesBeyondTheCapAreDroppedAndCounted) {
  Registry registry;
  // The recorder's own self-metrics claim some of the budget; a tiny
  // cap guarantees the user gauges overflow it.
  MetricsRecorder recorder(with(&registry, 512, /*max_series=*/4));
  for (int i = 0; i < 16; ++i) {
    registry.gauge("wadp_g" + std::to_string(i) + "_ratio").set(1.0);
  }
  recorder.scrape(1.0);

  EXPECT_EQ(recorder.series_count(), 4u);
  EXPECT_GT(recorder.dropped_series(), 0u);
}

TEST(TimeseriesTest, WindowAggregatesOnlySamplesInsideIt) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Gauge& g = registry.gauge("wadp_load_ratio");

  const double values[] = {1.0, 2.0, 3.0, 10.0, 20.0};
  for (int i = 0; i < 5; ++i) {
    g.set(values[i]);
    recorder.scrape(static_cast<double>(i + 1));
  }

  const TsWindow recent = recorder.window("wadp_load_ratio", 2.0, 5.0);
  EXPECT_EQ(recent.samples, 2u);
  EXPECT_DOUBLE_EQ(recent.mean, 15.0);
  EXPECT_DOUBLE_EQ(recent.min, 10.0);
  EXPECT_DOUBLE_EQ(recent.max, 20.0);
  EXPECT_DOUBLE_EQ(recent.last, 20.0);

  const TsWindow all = recorder.window("wadp_load_ratio", 100.0, 5.0);
  EXPECT_EQ(all.samples, 5u);
  EXPECT_TRUE(recorder.window("wadp_absent", 100.0, 5.0).empty());
}

TEST(TimeseriesTest, HottestRanksRateSeriesByWindowedMean) {
  Registry registry;
  MetricsRecorder recorder(with(&registry));
  Counter& hot = registry.counter("wadp_hot_total");
  Counter& cold = registry.counter("wadp_cold_total");

  recorder.scrape(0.0);
  hot.inc(1000);
  cold.inc(10);
  recorder.scrape(1.0);

  const auto ranked = recorder.hottest(2, 10.0, 1.0);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, MetricsRecorder::rate_series("wadp_hot_total"));
  EXPECT_DOUBLE_EQ(ranked[0].mean, 1000.0);
  EXPECT_GE(ranked[0].mean, ranked[1].mean);
  for (const auto& row : ranked) {
    EXPECT_NE(row.name.find(":rate"), std::string::npos);
  }
}

}  // namespace
}  // namespace wadp::obs
