// SLO health monitor: declarative burn-rate rules over recorded rings.
//
// A point-in-time metric cannot distinguish "one shed query" from "a
// shed storm"; an SLO rule over the MetricsRecorder's rings can.  Each
// rule watches one series (optionally as a ratio against a denominator
// series) through a fast/slow window pair, the multi-window burn-rate
// scheme from SRE practice: the fast window catches a violation
// quickly, the slow window confirms it is sustained, and an alert
// fires only when BOTH violate.  Hysteresis (clear_after consecutive
// healthy evaluations) keeps a flapping signal from strobing alerts.
//
// Firing and clearing emit `health.alert` ULM events through the
// EventSink and bump `wadp_health_*` metrics; callers (the flight
// recorder, the CLI) can also hook on_alert for synchronous capture.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "util/types.hpp"

namespace wadp::obs {

/// Which side of the threshold is unhealthy.
enum class SloDirection {
  kAbove,  ///< violation when value > threshold (error/latency rules)
  kBelow,  ///< violation when value < threshold (hit-rate/join rules)
};

/// One declarative service-level rule.
struct SloRule {
  std::string name;         ///< e.g. "serving.hit_rate" (dotted, stable)
  std::string description;  ///< one line for the `wadp health` table
  std::string series;       ///< recorder series (numerator for ratios)
  std::string denominator;  ///< optional ratio denominator series
  SloDirection direction = SloDirection::kAbove;
  double threshold = 0.0;   ///< the SLO boundary itself
  double fast_window = 0.0;  ///< seconds; catches violations quickly
  double slow_window = 0.0;  ///< seconds; confirms they are sustained
  /// Burn multipliers: the fast window must burn harder than the slow
  /// one to fire (kAbove: value > threshold*burn; kBelow: value <
  /// threshold/burn).  1.0 disables the margin.
  double fast_burn = 1.0;
  double slow_burn = 1.0;
  /// Windows with fewer samples than this are treated as healthy —
  /// a cold ring is absence of evidence, not an outage.
  std::size_t min_samples = 2;
  /// Consecutive healthy evaluations before a firing rule clears.
  std::size_t clear_after = 3;
};

/// Evaluated state of one rule, for the CLI table and `--json`.
struct SloStatus {
  SloRule rule;
  bool firing = false;
  double fast_value = 0.0;   ///< windowed mean over fast_window
  double slow_value = 0.0;   ///< windowed mean over slow_window
  std::size_t fast_samples = 0;
  std::size_t slow_samples = 0;
  std::uint64_t alerts = 0;  ///< lifetime fire transitions
  double last_transition = 0.0;  ///< eval time of the last fire/clear
};

struct HealthConfig {
  /// Where wadp_health_* metrics register; nullptr = Registry::global().
  Registry* registry = nullptr;
  /// Where health.alert events go; nullptr = EventSink::global().
  EventSink* events = nullptr;
};

class HealthMonitor {
 public:
  HealthMonitor(const MetricsRecorder& recorder, HealthConfig config = {});

  void add_rule(SloRule rule);
  void add_rules(std::vector<SloRule> rules);

  /// Evaluates every rule against the rings at time `now`.  Returns the
  /// number of rules that TRANSITIONED to firing this evaluation (not
  /// the number currently firing).
  std::size_t evaluate(double now);

  /// Current state of every rule, in registration order.
  std::vector<SloStatus> status() const;

  std::size_t firing_count() const;
  std::uint64_t evaluations() const { return evaluations_total_.value(); }

  /// Called synchronously on each fire transition (not on clear) —
  /// the flight recorder hangs its capture here.
  void set_on_alert(std::function<void(const SloStatus&, double now)> cb) {
    on_alert_ = std::move(cb);
  }

  /// The built-in rule catalog covering the subsystems the framework
  /// already ships (docs/OBSERVABILITY.md lists each): serving
  /// hit-rate and shed-ratio, WAL fsync p99 and torn frames, retry
  /// exhaustion, quality drift and join rate.  Windows scale from the
  /// scrape interval: fast = 2 intervals, slow = 10.
  static std::vector<SloRule> builtin_rules(double scrape_interval_seconds);

 private:
  struct RuleState {
    SloRule rule;
    bool firing = false;
    std::size_t healthy_streak = 0;
    std::uint64_t alerts = 0;
    double last_transition = 0.0;
  };

  /// Windowed value of `series` (ratio when the rule has a
  /// denominator).  Returns false when there is not enough data.
  bool window_value(const SloRule& rule, double window, double now,
                    double* value, std::size_t* samples) const;

  const MetricsRecorder& recorder_;
  Registry& registry_;
  EventSink& events_;
  Counter& evaluations_total_;
  Gauge& firing_gauge_;
  mutable std::mutex mu_;  ///< guards rules_ (serve evaluates off-thread)
  std::vector<RuleState> rules_;
  std::function<void(const SloStatus&, double)> on_alert_;
};

}  // namespace wadp::obs
