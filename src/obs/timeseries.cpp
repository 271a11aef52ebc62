#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace wadp::obs {
namespace {

constexpr const char* kRateSuffix = ":rate";
constexpr const char* kP50Suffix = ":p50";
constexpr const char* kP99Suffix = ":p99";

/// `name{k="v",k2="v2"}` — same key shape as the JSON exporter, so a
/// series name pasted from `wadp metrics --json` resolves here.
std::string series_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

MetricsRecorder::MetricsRecorder(RecorderConfig config)
    : config_(config),
      registry_(config.registry != nullptr ? *config.registry
                                           : Registry::global()),
      scrapes_total_(registry_.counter(
          "wadp_ts_scrapes_total", {},
          "Registry scrapes recorded into the time-series rings")),
      points_total_(registry_.counter(
          "wadp_ts_points_total", {},
          "Samples appended across all time-series rings")),
      skipped_total_(registry_.counter(
          "wadp_ts_scrapes_skipped_total", {},
          "Scrapes skipped because the clock had not advanced")),
      dropped_total_(registry_.counter(
          "wadp_ts_dropped_series_total", {},
          "Series discarded because the recorder hit max_series")),
      series_gauge_(registry_.gauge("wadp_ts_series", {},
                                    "Distinct series currently recorded")),
      scrape_seconds_(registry_.histogram(
          "wadp_ts_scrape_seconds", {},
          "Wall-clock cost of one registry scrape")) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  times_.resize(config_.ring_capacity);
}

MetricsRecorder::~MetricsRecorder() { stop_wall_clock(); }

MetricsRecorder::Series* MetricsRecorder::series_for(std::string name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::move(name), &series_store_.emplace_back())
             .first;
  }
  return it->second;
}

const MetricsRecorder::Series* MetricsRecorder::find_recorded(
    const std::string& name) const {
  auto it = series_.find(name);
  return it != series_.end() && it->second->recorded() ? it->second
                                                         : nullptr;
}

void MetricsRecorder::rebuild_plan(std::uint64_t generation) {
  // families() snapshots under the registry lock; instruments live as
  // long as the registry, so the plan keeps raw pointers to them.
  const std::vector<Registry::Family> families = registry_.families();
  plan_.clear();
  for (const auto& family : families) {
    bool labeled = false;
    for (const auto& instrument : family.instruments) {
      const std::string key = series_key(family.name, instrument.labels);
      labeled = labeled || !instrument.labels.empty();
      PlannedInstrument step;
      step.counter = instrument.counter;
      step.gauge = instrument.gauge;
      step.histogram = instrument.histogram;
      switch (family.kind) {
        case Registry::Kind::kCounter:
          step.value = series_for(key);
          step.rate = series_for(key + kRateSuffix);
          break;
        case Registry::Kind::kGauge:
          step.value = series_for(key);
          break;
        case Registry::Kind::kHistogram:
          step.rate = series_for(key + kRateSuffix);
          step.p50 = series_for(key + kP50Suffix);
          step.p99 = series_for(key + kP99Suffix);
          break;
      }
      plan_.push_back(step);
    }
    if (family.instruments.empty()) continue;
    plan_.back().closes_family = true;
    // Ratio rules (hit rate, shed ratio, join rate) want the family
    // total, not one label cell — derive the label-summed rate too.
    if (family.kind == Registry::Kind::kCounter && labeled) {
      plan_.back().family_rate = series_for(family.name + kRateSuffix);
    }
  }
  plan_generation_ = generation;
}

void MetricsRecorder::record_point(Series& series, double value,
                                   std::size_t* points) {
  const std::size_t rows = config_.ring_capacity;
  if (!series.recorded()) {
    if (recorded_series_ >= config_.max_series) {
      ++dropped_series_;
      dropped_total_.inc();
      return;
    }
    if (recorded_series_ == stride_) {
      const std::size_t stride = std::max<std::size_t>(16, 2 * stride_);
      std::vector<double> grown(rows * stride);
      for (std::size_t row = 0; row < rows && stride_ > 0; ++row) {
        std::copy_n(values_.begin() + row * stride_, stride_,
                    grown.begin() + row * stride);
      }
      values_ = std::move(grown);
      stride_ = stride;
    }
    series.column = recorded_series_++;
    series.first_row = local_scrapes_;
  }
  values_[(local_scrapes_ % rows) * stride_ + series.column] = value;
  ++*points;
}

std::size_t MetricsRecorder::sample_count(const Series& series) const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(local_scrapes_ - series.first_row,
                              config_.ring_capacity));
}

TsSample MetricsRecorder::sample_at(const Series& series,
                                    std::size_t i) const {
  const std::size_t row = static_cast<std::size_t>(
      (local_scrapes_ - sample_count(series) + i) % config_.ring_capacity);
  return {times_[row], values_[row * stride_ + series.column]};
}

void MetricsRecorder::record_rate(Series& series, double now, double raw,
                                  std::size_t* points) {
  // A counter first seen after scraping has begun implicitly sat at
  // zero until its first increment — synthesize that origin so the
  // series yields a rate on its FIRST scrape.  Without this, a metric
  // born mid-incident (retry exhaustion, torn frames) costs the SLO
  // monitor two extra intervals of detection latency.
  if (!series.prev_seen && scraped_once_) {
    series.prev_value = 0.0;
    series.prev_time = last_time_;
    series.prev_seen = true;
  }
  if (series.prev_seen) {
    const double dt = now - series.prev_time;
    // Counters are monotone; a negative delta means the instrument was
    // re-registered under us — record a zero rate rather than a spike.
    const double delta = std::max(0.0, raw - series.prev_value);
    if (dt > 0.0) {
      record_point(series, delta / dt, points);
    }
  }
  series.prev_value = raw;
  series.prev_time = now;
  series.prev_seen = true;
}

void MetricsRecorder::refresh_quantiles(PlannedInstrument& instrument) {
  // p50 and p99 interpolated in one pass over one bounded walk: an
  // idle histogram costs one count() load, a busy one the occupied
  // bucket range rather than all ~2k buckets.
  const std::uint64_t count = instrument.histogram->count();
  if (count == instrument.quantile_count) return;
  instrument.quantile_count = count;
  const std::uint64_t total =
      instrument.histogram->walk_buckets(bucket_buffer_);
  double p50 = 0.0;
  double p99 = 0.0;
  if (total > 0) {
    const double n = static_cast<double>(total);
    const double targets[2] = {0.5 * n, 0.99 * n};
    double* slots[2] = {&p50, &p99};
    std::size_t t = 0;
    const Histogram::BucketCount* prev = nullptr;
    double prev_cum = 0.0;
    std::uint64_t cumulative = 0;
    for (const Histogram::BucketCount& bucket : bucket_buffer_) {
      cumulative += bucket.count;
      const double cum = static_cast<double>(cumulative);
      if (t < 2 && cum >= targets[t]) {
        // Bounds only where a target lands, not per bucket walked.
        const double upper = Histogram::bucket_upper_bound(bucket.index);
        const double prev_upper =
            prev != nullptr ? Histogram::bucket_upper_bound(prev->index)
                            : 0.0;
        for (; t < 2 && cum >= targets[t]; ++t) {
          const double span = cum - prev_cum;
          const double frac =
              span > 0.0 ? (targets[t] - prev_cum) / span : 1.0;
          // The +inf overflow bound reads +inf: frac * inf is NaN at 0.
          *slots[t] = std::isinf(upper)
                          ? upper
                          : prev_upper + frac * (upper - prev_upper);
        }
        if (t == 2) break;
      }
      prev = &bucket;
      prev_cum = cum;
    }
    // Ranks past the last bucket (rounding) land on the max bound.
    for (; t < 2; ++t) {
      *slots[t] = Histogram::bucket_upper_bound(bucket_buffer_.back().index);
    }
  }
  instrument.p50_value = p50;
  instrument.p99_value = p99;
}

std::size_t MetricsRecorder::scrape(double now) {
  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t points = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (scraped_once_ && now <= last_time_) {
      ++local_skipped_;
      skipped_total_.inc();
      return 0;
    }
    // Read the generation BEFORE families(): a registration racing the
    // rebuild then leaves the plan one generation behind, so the next
    // scrape rebuilds again instead of missing the new instrument.
    const std::uint64_t generation = registry_.generation();
    if (plan_generation_ != generation) rebuild_plan(generation);
    times_[local_scrapes_ % config_.ring_capacity] = now;
    // Instrument reads are the same relaxed loads the exporters use —
    // writers never stall.
    double family_sum = 0.0;
    for (PlannedInstrument& step : plan_) {
      if (step.counter != nullptr) {
        const double raw = static_cast<double>(step.counter->value());
        family_sum += raw;
        record_point(*step.value, raw, &points);
        record_rate(*step.rate, now, raw, &points);
      } else if (step.gauge != nullptr) {
        record_point(*step.value, step.gauge->value(), &points);
      } else {
        refresh_quantiles(step);
        record_rate(*step.rate, now, static_cast<double>(step.quantile_count),
                    &points);
        record_point(*step.p50, step.p50_value, &points);
        record_point(*step.p99, step.p99_value, &points);
      }
      if (step.closes_family) {
        if (step.family_rate != nullptr) {
          record_rate(*step.family_rate, now, family_sum, &points);
        }
        family_sum = 0.0;
      }
    }
    last_time_ = now;
    scraped_once_ = true;
    ++local_scrapes_;
    series_gauge_.set(static_cast<double>(recorded_series_));
  }

  scrapes_total_.inc();
  points_total_.inc(points);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  scrape_seconds_.record(wall.count());
  return points;
}

void MetricsRecorder::start_wall_clock(double interval_seconds) {
  stop_wall_clock();
  if (interval_seconds <= 0.0) interval_seconds = 1.0;
  wall_running_.store(true, std::memory_order_release);
  wall_thread_ = std::thread([this, interval_seconds] {
    const auto start = std::chrono::steady_clock::now();
    auto next = start;
    while (wall_running_.load(std::memory_order_acquire)) {
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(interval_seconds));
      // Sleep in short slices so stop_wall_clock() returns promptly
      // even with multi-second intervals.
      while (wall_running_.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!wall_running_.load(std::memory_order_acquire)) break;
      const std::chrono::duration<double> since =
          std::chrono::steady_clock::now() - start;
      scrape(since.count());
    }
  });
}

void MetricsRecorder::stop_wall_clock() {
  wall_running_.store(false, std::memory_order_release);
  if (wall_thread_.joinable()) wall_thread_.join();
}

std::vector<std::string> MetricsRecorder::series_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(recorded_series_);
  for (const auto& [name, series] : series_) {
    if (series->recorded()) out.push_back(name);
  }
  return out;
}

std::vector<TsSample> MetricsRecorder::samples(
    const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* found = find_recorded(series);
  if (found == nullptr) return {};
  const std::size_t count = sample_count(*found);
  std::vector<TsSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(sample_at(*found, i));
  return out;
}

std::optional<TsSample> MetricsRecorder::latest(
    const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* found = find_recorded(series);
  if (found == nullptr) return std::nullopt;
  return sample_at(*found, sample_count(*found) - 1);
}

TsWindow MetricsRecorder::window(const std::string& series,
                                 double window_seconds, double now) const {
  TsWindow out;
  const double since = now - window_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  const Series* found = find_recorded(series);
  if (found == nullptr) return out;
  // Scrape times never decrease, so the samples in (since, now] are
  // one contiguous run: find it walking back from the newest, then
  // aggregate oldest to newest, the order the SLO thresholds see.
  std::size_t end = sample_count(*found);
  while (end > 0 && sample_at(*found, end - 1).time > now) --end;
  std::size_t begin = end;
  while (begin > 0 && !(sample_at(*found, begin - 1).time <= since)) --begin;
  for (std::size_t i = begin; i < end; ++i) {
    const double value = sample_at(*found, i).value;
    if (out.samples == 0) {
      out.min = out.max = value;
    } else {
      out.min = std::min(out.min, value);
      out.max = std::max(out.max, value);
    }
    out.mean += value;
    out.last = value;
    ++out.samples;
  }
  if (out.samples > 0) out.mean /= static_cast<double>(out.samples);
  return out;
}

std::vector<HotSeries> MetricsRecorder::hottest(std::size_t limit,
                                                double window_seconds,
                                                double now) const {
  std::vector<std::string> names = series_names();
  std::vector<HotSeries> out;
  for (const std::string& name : names) {
    // Rank rate aspects only: cumulative counters grow without bound
    // and would drown every gauge; rates are comparable across series.
    if (name.size() < 5 ||
        name.compare(name.size() - 5, 5, kRateSuffix) != 0) {
      continue;
    }
    const TsWindow w = window(name, window_seconds, now);
    if (w.empty()) continue;
    out.push_back({name, w.mean, w.last, w.samples});
  }
  std::sort(out.begin(), out.end(), [](const HotSeries& a, const HotSeries& b) {
    if (a.mean != b.mean) return a.mean > b.mean;
    return a.name < b.name;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

// Accessors report this recorder's own tallies, not the registry
// counters — those are shared when two recorders (e.g. `wadp serve`'s
// wall-clock and query-time instances) scrape the same registry.
std::uint64_t MetricsRecorder::scrapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_scrapes_;
}

std::uint64_t MetricsRecorder::skipped_scrapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_skipped_;
}

std::uint64_t MetricsRecorder::dropped_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_series_;
}

std::size_t MetricsRecorder::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_series_;
}

double MetricsRecorder::last_scrape_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_time_;
}

std::string MetricsRecorder::rate_series(const std::string& metric_key) {
  return metric_key + kRateSuffix;
}

std::string MetricsRecorder::p50_series(const std::string& metric_key) {
  return metric_key + kP50Suffix;
}

std::string MetricsRecorder::p99_series(const std::string& metric_key) {
  return metric_key + kP99Suffix;
}

}  // namespace wadp::obs
