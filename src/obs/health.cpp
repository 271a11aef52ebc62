#include "obs/health.hpp"

#include <utility>

namespace wadp::obs {
namespace {

/// Effective boundary after the burn multiplier: an above-rule must
/// exceed threshold*burn, a below-rule must drop under threshold/burn.
bool violates(const SloRule& rule, double value, double burn) {
  if (rule.direction == SloDirection::kAbove) {
    return value > rule.threshold * burn;
  }
  const double effective =
      burn > 0.0 ? rule.threshold / burn : rule.threshold;
  return value < effective;
}

}  // namespace

HealthMonitor::HealthMonitor(const MetricsRecorder& recorder,
                             HealthConfig config)
    : recorder_(recorder),
      registry_(config.registry != nullptr ? *config.registry
                                           : Registry::global()),
      events_(config.events != nullptr ? *config.events
                                       : EventSink::global()),
      evaluations_total_(registry_.counter(
          "wadp_health_evaluations_total", {},
          "SLO rule-set evaluation passes")),
      firing_gauge_(registry_.gauge("wadp_health_rules_firing", {},
                                    "SLO rules currently in firing state")) {}

void HealthMonitor::add_rule(SloRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  RuleState state;
  state.rule = std::move(rule);
  // Register the per-rule alert counter eagerly so the family shows up
  // in exports (and the metric lint) before any alert ever fires.
  registry_.counter("wadp_health_alerts_total", {{"rule", state.rule.name}},
                    "SLO alert fire transitions");
  rules_.push_back(std::move(state));
}

void HealthMonitor::add_rules(std::vector<SloRule> rules) {
  for (SloRule& rule : rules) add_rule(std::move(rule));
}

bool HealthMonitor::window_value(const SloRule& rule, double window,
                                 double now, double* value,
                                 std::size_t* samples) const {
  const TsWindow num = recorder_.window(rule.series, window, now);
  *samples = num.samples;
  if (num.samples < rule.min_samples) return false;
  if (rule.denominator.empty()) {
    *value = num.mean;
    return true;
  }
  const TsWindow den = recorder_.window(rule.denominator, window, now);
  if (den.samples < rule.min_samples || den.mean <= 0.0) return false;
  *value = num.mean / den.mean;
  return true;
}

std::size_t HealthMonitor::evaluate(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t fired = 0;
  std::size_t firing = 0;
  for (RuleState& state : rules_) {
    const SloRule& rule = state.rule;
    double fast_value = 0.0;
    double slow_value = 0.0;
    std::size_t fast_samples = 0;
    std::size_t slow_samples = 0;
    const bool fast_ok = window_value(rule, rule.fast_window, now,
                                      &fast_value, &fast_samples);
    const bool slow_ok = window_value(rule, rule.slow_window, now,
                                      &slow_value, &slow_samples);
    // Both windows must have data AND violate — the burn-rate pair.
    const bool violating = fast_ok && slow_ok &&
                           violates(rule, fast_value, rule.fast_burn) &&
                           violates(rule, slow_value, rule.slow_burn);

    bool transitioned_to_firing = false;
    if (violating) {
      state.healthy_streak = 0;
      if (!state.firing) {
        state.firing = true;
        ++state.alerts;
        state.last_transition = now;
        transitioned_to_firing = true;
        ++fired;
      }
    } else if (state.firing) {
      if (++state.healthy_streak >= rule.clear_after) {
        state.firing = false;
        state.healthy_streak = 0;
        state.last_transition = now;
        util::UlmRecord record;
        record.set("STATE", "cleared");
        record.set("RULE", rule.name);
        record.set_double("TIME", now);
        events_.emit("health.alert", "wadp.health", std::move(record));
      }
    }
    if (state.firing) ++firing;

    if (transitioned_to_firing) {
      registry_
          .counter("wadp_health_alerts_total", {{"rule", rule.name}})
          .inc();
      util::UlmRecord record;
      record.set("STATE", "firing");
      record.set("RULE", rule.name);
      record.set("SERIES", rule.series);
      record.set_double("TIME", now);
      record.set_double("VALUE.FAST", fast_value);
      record.set_double("VALUE.SLOW", slow_value);
      record.set_double("THRESHOLD", rule.threshold);
      events_.emit("health.alert", "wadp.health", std::move(record));
      if (on_alert_) {
        SloStatus status;
        status.rule = rule;
        status.firing = true;
        status.fast_value = fast_value;
        status.slow_value = slow_value;
        status.fast_samples = fast_samples;
        status.slow_samples = slow_samples;
        status.alerts = state.alerts;
        status.last_transition = state.last_transition;
        on_alert_(status, now);
      }
    }
  }
  evaluations_total_.inc();
  firing_gauge_.set(static_cast<double>(firing));
  return fired;
}

std::vector<SloStatus> HealthMonitor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(rules_.size());
  const double now = recorder_.last_scrape_time();
  for (const RuleState& state : rules_) {
    SloStatus status;
    status.rule = state.rule;
    status.firing = state.firing;
    window_value(state.rule, state.rule.fast_window, now, &status.fast_value,
                 &status.fast_samples);
    window_value(state.rule, state.rule.slow_window, now, &status.slow_value,
                 &status.slow_samples);
    status.alerts = state.alerts;
    status.last_transition = state.last_transition;
    out.push_back(std::move(status));
  }
  return out;
}

std::size_t HealthMonitor::firing_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t firing = 0;
  for (const RuleState& state : rules_) {
    if (state.firing) ++firing;
  }
  return firing;
}

std::vector<SloRule> HealthMonitor::builtin_rules(
    double scrape_interval_seconds) {
  const double interval =
      scrape_interval_seconds > 0.0 ? scrape_interval_seconds : 1.0;
  const double fast = 2.0 * interval;
  const double slow = 10.0 * interval;
  auto rate = [](const std::string& key) {
    return MetricsRecorder::rate_series(key);
  };

  std::vector<SloRule> rules;

  {
    SloRule r;
    r.name = "serving.hit_rate";
    r.description = "Serving cache hit rate stays above 50%";
    r.series = rate("wadp_serving_cache_hits_total");
    r.denominator = rate("wadp_serving_queries_total");
    r.direction = SloDirection::kBelow;
    r.threshold = 0.5;
    r.fast_window = fast;
    r.slow_window = slow;
    r.fast_burn = 1.5;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "serving.shed_ratio";
    r.description = "Shed answers stay under 20% of queries";
    r.series = rate("wadp_serving_shed_total");
    r.denominator = rate("wadp_serving_queries_total");
    r.direction = SloDirection::kAbove;
    r.threshold = 0.2;
    r.fast_window = fast;
    r.slow_window = slow;
    r.fast_burn = 1.5;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "wal.fsync_p99";
    r.description = "WAL fsync p99 stays under 50 ms";
    r.series = MetricsRecorder::p99_series("wadp_wal_fsync_seconds");
    r.direction = SloDirection::kAbove;
    r.threshold = 0.05;
    r.fast_window = fast;
    r.slow_window = slow;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "wal.torn_frames";
    r.description = "No torn WAL frames observed";
    r.series = rate("wadp_wal_torn_frames_total");
    r.direction = SloDirection::kAbove;
    r.threshold = 0.0;
    r.fast_window = fast;
    r.slow_window = slow;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "resilience.retry_exhaustion";
    r.description = "Retry exhaustion stays under 0.05/s";
    // Family aggregate: wadp_resilience_retry_exhausted_total is
    // labeled by op, and any op exhausting retries is bad.
    r.series = rate("wadp_resilience_retry_exhausted_total");
    r.direction = SloDirection::kAbove;
    r.threshold = 0.05;
    r.fast_window = fast;
    r.slow_window = slow;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "quality.drift";
    r.description = "No predictor drift detections";
    r.series = rate("wadp_quality_drift_total");
    r.direction = SloDirection::kAbove;
    r.threshold = 0.0;
    r.fast_window = fast;
    r.slow_window = slow;
    rules.push_back(std::move(r));
  }
  {
    SloRule r;
    r.name = "quality.join_rate";
    r.description = "Transfers join back to predictions at >= 50%";
    r.series = rate("wadp_quality_joins_total");
    r.denominator = rate("wadp_quality_predictions_total");
    r.direction = SloDirection::kBelow;
    r.threshold = 0.5;
    r.fast_window = fast;
    r.slow_window = slow;
    r.fast_burn = 1.5;
    rules.push_back(std::move(r));
  }
  return rules;
}

}  // namespace wadp::obs
