#include "obs/health.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace wadp::obs {
namespace {

/// One registry + recorder + monitor with a private event sink, plus a
/// gauge the rules watch — the common stage for every scenario below.
struct HealthStage {
  Registry registry;
  EventSink events;
  MetricsRecorder recorder;
  HealthMonitor monitor;
  Gauge& signal;
  double now = 0.0;

  HealthStage()
      : recorder([this] {
          RecorderConfig config;
          config.registry = &registry;
          return config;
        }()),
        monitor(recorder, HealthConfig{&registry, &events}),
        signal(registry.gauge("wadp_signal_ratio")) {}

  /// Scrapes `signal` at `value` then evaluates, advancing time by 1 s.
  std::size_t step(double value) {
    signal.set(value);
    now += 1.0;
    recorder.scrape(now);
    return monitor.evaluate(now);
  }
};

SloRule gauge_rule(std::size_t clear_after = 3) {
  SloRule rule;
  rule.name = "test.signal";
  rule.description = "test gauge stays low";
  rule.series = "wadp_signal_ratio";
  rule.direction = SloDirection::kAbove;
  rule.threshold = 5.0;
  rule.fast_window = 2.0;
  rule.slow_window = 10.0;
  rule.min_samples = 2;
  rule.clear_after = clear_after;
  return rule;
}

TEST(HealthTest, FiresOnlyWhenBothWindowsViolate) {
  HealthStage stage;
  stage.monitor.add_rule(gauge_rule());

  // Ten healthy samples fill the slow window before the fault.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(stage.step(0.0), 0u);

  // Two hot samples violate the fast window, but the slow-window mean
  // (2 of 10 samples at 10.0) is still below threshold: no alert yet.
  stage.step(10.0);
  EXPECT_EQ(stage.step(10.0), 0u);
  {
    const auto status = stage.monitor.status();
    ASSERT_EQ(status.size(), 1u);
    EXPECT_FALSE(status[0].firing);
    EXPECT_GT(status[0].fast_value, status[0].rule.threshold);
  }

  // Sustained violation pushes the slow window over too: one fire.
  std::size_t transitions = 0;
  for (int i = 0; i < 10; ++i) transitions += stage.step(10.0);
  EXPECT_EQ(transitions, 1u);
  EXPECT_EQ(stage.monitor.firing_count(), 1u);
}

TEST(HealthTest, ColdRingsAreHealthyNotFiring) {
  HealthStage stage;
  stage.monitor.add_rule(gauge_rule());

  // One sample is below min_samples for both windows: absence of
  // evidence, even though the lone value screams violation.
  EXPECT_EQ(stage.step(100.0), 0u);
  EXPECT_EQ(stage.monitor.firing_count(), 0u);

  // A rule over a series nobody records stays healthy forever.
  SloRule absent = gauge_rule();
  absent.name = "test.absent";
  absent.series = "wadp_never_recorded";
  stage.monitor.add_rule(absent);
  for (int i = 0; i < 20; ++i) stage.step(0.0);
  EXPECT_EQ(stage.monitor.firing_count(), 0u);
}

TEST(HealthTest, HysteresisHoldsTheAlertUntilTheStreakCompletes) {
  HealthStage stage;
  stage.monitor.add_rule(gauge_rule(/*clear_after=*/3));
  for (int i = 0; i < 20; ++i) stage.step(10.0);
  ASSERT_EQ(stage.monitor.firing_count(), 1u);

  // Recovery: both windows drain below threshold, yet the rule keeps
  // firing until clear_after consecutive healthy evaluations pass.
  int steps_to_clear = 0;
  while (stage.monitor.firing_count() > 0) {
    stage.step(0.0);
    ++steps_to_clear;
    ASSERT_LE(steps_to_clear, 40) << "rule never cleared";
  }
  EXPECT_GE(steps_to_clear, 3);

  const auto status = stage.monitor.status();
  EXPECT_FALSE(status[0].firing);
  EXPECT_EQ(status[0].alerts, 1u);  // clearing is not a new alert
}

TEST(HealthTest, RatioWithZeroDenominatorIsNoDataNotOutage) {
  HealthStage stage;
  // Idle-serving shape: zero hits over zero queries must not read as a
  // 0% hit rate.
  stage.registry.counter("wadp_hits_total");
  stage.registry.counter("wadp_queries_total");
  SloRule rule = gauge_rule();
  rule.name = "test.hit_rate";
  rule.direction = SloDirection::kBelow;
  rule.threshold = 0.5;
  rule.series = MetricsRecorder::rate_series("wadp_hits_total");
  rule.denominator = MetricsRecorder::rate_series("wadp_queries_total");
  stage.monitor.add_rule(rule);

  for (int i = 0; i < 20; ++i) EXPECT_EQ(stage.step(0.0), 0u);
  EXPECT_EQ(stage.monitor.firing_count(), 0u);
}

TEST(HealthTest, AlertEmitsUlmEventAndBumpsMetrics) {
  HealthStage stage;
  stage.monitor.add_rule(gauge_rule());

  int alerts_seen = 0;
  std::string alerted_rule;
  stage.monitor.set_on_alert([&](const SloStatus& status, double) {
    ++alerts_seen;
    alerted_rule = status.rule.name;
  });

  for (int i = 0; i < 25; ++i) stage.step(10.0);

  // The callback runs on the fire transition only — not per evaluation.
  EXPECT_EQ(alerts_seen, 1);
  EXPECT_EQ(alerted_rule, "test.signal");
  EXPECT_EQ(stage.registry
                .counter("wadp_health_alerts_total", {{"rule", "test.signal"}})
                .value(),
            1u);
  EXPECT_DOUBLE_EQ(stage.registry.gauge("wadp_health_rules_firing").value(),
                   1.0);

  bool saw_alert_event = false;
  for (const auto& record : stage.events.events()) {
    if (record.get("EVNT") == "health.alert") saw_alert_event = true;
  }
  EXPECT_TRUE(saw_alert_event);
}

TEST(HealthTest, EvaluationsCountRoundsNotRules) {
  HealthStage stage;
  stage.monitor.add_rules({gauge_rule(), [] {
                             SloRule r = gauge_rule();
                             r.name = "test.signal2";
                             return r;
                           }()});
  for (int i = 0; i < 5; ++i) stage.step(0.0);
  EXPECT_EQ(stage.monitor.evaluations(), 5u);
}

TEST(HealthTest, BuiltinCatalogScalesWindowsFromTheScrapeInterval) {
  const double interval = 30.0;
  const auto rules = HealthMonitor::builtin_rules(interval);
  std::vector<std::string> names;
  for (const auto& rule : rules) names.push_back(rule.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "serving.hit_rate", "serving.shed_ratio",
                       "wal.fsync_p99", "wal.torn_frames",
                       "resilience.retry_exhaustion", "quality.drift",
                       "quality.join_rate"}));

  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.description.empty());
    EXPECT_FALSE(rule.series.empty());
    EXPECT_DOUBLE_EQ(rule.fast_window, 2.0 * interval);
    EXPECT_DOUBLE_EQ(rule.slow_window, 10.0 * interval);
    if (rule.name == "serving.hit_rate") {
      EXPECT_EQ(rule.direction, SloDirection::kBelow);
      EXPECT_FALSE(rule.denominator.empty());
    }
    if (rule.name == "wal.fsync_p99") {
      EXPECT_EQ(rule.direction, SloDirection::kAbove);
    }
  }
}

}  // namespace
}  // namespace wadp::obs
