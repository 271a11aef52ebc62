// Metric time-series recorder: the registry, remembered.
//
// The paper's thesis is that *logged history* makes a system
// predictable; obs/metrics only ever answered "what is the value now".
// The MetricsRecorder closes that gap: on a fixed cadence it scrapes a
// Registry snapshot into fixed-capacity per-series ring buffers, so a
// shed storm, an fsync stall, or a drift episode leaves an inspectable
// trail instead of a single post-hoc gauge reading.
//
// Derived series, one ring each (names are `<metric key>` plus an
// aspect suffix):
//
//   counter    `name{labels}`        cumulative value
//              `name{labels}:rate`   per-second delta vs previous scrape
//              `name:rate`           label-summed family rate (only when
//                                    the family is labeled — ratio rules
//                                    want the aggregate)
//   gauge      `name{labels}`        instantaneous value
//   histogram  `name{labels}:rate`   samples/second
//              `name{labels}:p50`    } quantiles interpolated from ONE
//              `name{labels}:p99`    } bounded bucket walk, redone only
//                                      when count() has moved
//
// Scrape plan: the derived series above are compiled once per
// Registry::generation() into a flat plan of instrument and series
// pointers, so a steady-state scrape copies no family list, assembles
// no string and does no string-keyed lookup — it reads each instrument
// and appends to its rings.  A registration bumps the generation and
// the next scrape recompiles.
//
// Cadence contract (docs/OBSERVABILITY.md): under the simulator the
// caller drives scrape(now) from a sim::PeriodicTask, so sample times
// are simulated seconds and runs stay deterministic; under a live
// process (`wadp serve`) start_wall_clock() runs a background thread
// stamping seconds-since-start.  scrape() never blocks metric writers:
// instruments are read with the same relaxed loads the exporters use,
// and only the recorder's own rings take a lock.  A scrape whose
// `now` does not advance past the previous one is skipped (counted),
// which makes double-wiring a tick harmless.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace wadp::obs {

struct RecorderConfig {
  /// Samples kept per series; the oldest falls off first.
  std::size_t ring_capacity = 512;
  /// Bound on distinct series; past it new series are dropped+counted.
  std::size_t max_series = 8192;
  /// Registry to scrape (and where wadp_ts_* self-metrics register);
  /// nullptr = Registry::global().
  Registry* registry = nullptr;
};

/// One recorded point of one series.
struct TsSample {
  double time = 0.0;  ///< scrape instant (sim seconds or wall seconds)
  double value = 0.0;
};

/// Windowed aggregate the SLO evaluator and `wadp top` consume.
struct TsWindow {
  std::size_t samples = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;  ///< newest sample inside the window

  bool empty() const { return samples == 0; }
};

/// One row of the `wadp top` ranking.
struct HotSeries {
  std::string name;
  double mean = 0.0;  ///< windowed mean (rate series: events/second)
  double last = 0.0;
  std::size_t samples = 0;
};

class MetricsRecorder {
 public:
  explicit MetricsRecorder(RecorderConfig config = {});
  ~MetricsRecorder();

  MetricsRecorder(const MetricsRecorder&) = delete;
  MetricsRecorder& operator=(const MetricsRecorder&) = delete;

  /// Scrapes every instrument into the rings, stamped `now`.  Returns
  /// the number of points recorded (0 when the scrape was skipped
  /// because `now` had not advanced).  Thread-safe.
  std::size_t scrape(double now);

  /// Spawns a background thread scraping every `interval_seconds` of
  /// wall time, stamping seconds since this call.  stop_wall_clock()
  /// (or destruction) joins it.  The sim path never uses this — it
  /// drives scrape(now) itself so runs stay deterministic.
  void start_wall_clock(double interval_seconds);
  void stop_wall_clock();

  /// Name-sorted list of every recorded series.
  std::vector<std::string> series_names() const;

  /// All samples of one series, oldest first (empty when unknown).
  std::vector<TsSample> samples(const std::string& series) const;

  /// Newest sample, or nullopt when the series is unknown/empty.
  std::optional<TsSample> latest(const std::string& series) const;

  /// Aggregate over samples with time in (now - window, now].
  TsWindow window(const std::string& series, double window_seconds,
                  double now) const;

  /// Rate-aspect series ranked by windowed mean, highest first — the
  /// "hottest series" view behind `wadp top`.
  std::vector<HotSeries> hottest(std::size_t limit, double window_seconds,
                                 double now) const;

  std::uint64_t scrapes() const;
  std::uint64_t skipped_scrapes() const;
  std::uint64_t dropped_series() const;
  std::size_t series_count() const;
  double last_scrape_time() const;

  const RecorderConfig& config() const { return config_; }

  /// Aspect-suffix helpers, so rule catalogs and tests never hand-roll
  /// the separator.
  static std::string rate_series(const std::string& metric_key);
  static std::string p50_series(const std::string& metric_key);
  static std::string p99_series(const std::string& metric_key);

 private:
  /// Everything kept under one series name: its ring and, for a rate
  /// series, the raw reading of the previous scrape.  The ring is
  /// allocated on the series' first point, not when the plan names it:
  /// ring creation order decides which series the max_series cap
  /// refuses, and a rate series has no point before its second scrape.
  /// A name without a ring is not recorded (series_names, counts).
  struct Series {
    std::vector<TsSample> ring;  ///< empty, then ring_capacity, circular
    std::size_t head = 0;        ///< next write slot
    std::size_t size = 0;
    double prev_value = 0.0;
    double prev_time = 0.0;
    bool prev_seen = false;

    bool recorded() const { return !ring.empty(); }
    void push(TsSample sample);
    /// i-th retained sample, oldest first (i < size).
    const TsSample& at(std::size_t i) const;
  };

  /// Everything one scrape does for one instrument, prebuilt.  The
  /// plan is one flat vector in families() order; the last instrument
  /// of a family closes it, recording the label-summed rate of a
  /// labeled counter family.
  struct PlannedInstrument {
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    Series* value = nullptr;  ///< counter cumulative or gauge value
    Series* rate = nullptr;   ///< counter or histogram-count rate
    Series* p50 = nullptr;
    Series* p99 = nullptr;
    bool closes_family = false;
    Series* family_rate = nullptr;
    /// Histogram quantiles as of `quantile_count` samples; reused
    /// while count() has not moved.
    std::uint64_t quantile_count = 0;
    double p50_value = 0.0;
    double p99_value = 0.0;
  };

  /// Recompiles plan_ from a fresh families() copy.  Caller holds mu_.
  void rebuild_plan(std::uint64_t generation);
  Series* series_for(std::string name);
  /// The recorded series `name`, or nullptr.  Caller holds mu_.
  const Series* find_recorded(const std::string& name) const;
  void record_point(Series& series, double now, double value,
                    std::size_t* points);
  void record_rate(Series& series, double now, double raw,
                   std::size_t* points);
  void refresh_quantiles(PlannedInstrument& instrument);

  RecorderConfig config_;
  Registry& registry_;

  Counter& scrapes_total_;
  Counter& points_total_;
  Counter& skipped_total_;
  Counter& dropped_total_;
  Gauge& series_gauge_;
  Histogram& scrape_seconds_;

  mutable std::mutex mu_;
  /// Series records in creation order (a deque never moves them, so
  /// the plan points into it and a scrape walks them near-sequentially),
  /// indexed by name.
  std::deque<Series> series_store_;
  std::map<std::string, Series*, std::less<>> series_;
  std::size_t recorded_series_ = 0;
  /// The scrape plan, valid while the registry's generation equals
  /// plan_generation_.
  std::vector<PlannedInstrument> plan_;
  std::optional<std::uint64_t> plan_generation_;
  std::vector<Histogram::BucketCount> bucket_buffer_;
  double last_time_ = 0.0;
  bool scraped_once_ = false;
  std::uint64_t dropped_series_ = 0;
  /// Per-recorder tallies; the wadp_ts_* counters are shared across
  /// every recorder scraping the same registry.
  std::uint64_t local_scrapes_ = 0;
  std::uint64_t local_skipped_ = 0;

  std::thread wall_thread_;
  std::atomic<bool> wall_running_{false};
};

}  // namespace wadp::obs
