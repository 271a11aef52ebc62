// Golden fingerprint of the MetricsRecorder's rings and windows.
//
// Every recorded point feeds SLO rules, flight bundles and `wadp top`,
// so the recorder's output is pinned bit for bit: a seeded workload
// over a private Registry is scraped, then every series' samples and a
// set of TsWindow aggregates are folded into one FNV-1a hash.  The
// expected hashes and tallies were captured from the map-per-scrape
// recorder; any change to ring contents, ring creation order, the
// synthetic zero origin of late counters, or drop counting at the
// max_series cap shows up here.
//
// The wall-clock `wadp_ts_scrape_seconds` series are excluded (their
// values are host timings), and no sample is +inf (its bucket moved
// from the underflow to the overflow slot on purpose).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace wadp::obs {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void text(std::string_view s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);
  }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void integer(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Deterministic LCG in [0, 1).
class Lcg {
 public:
  double next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(next() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
};

struct Golden {
  std::uint64_t hash = 0;
  std::size_t series = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t dropped = 0;
};

/// One busy-histogram sample drawn across the bucket layout: tiny,
/// ordinary and huge magnitudes, zero, negatives and NaN.  Never +inf.
double draw_sample(Lcg& rng) {
  switch (rng.below(10)) {
    case 0:
      return 0.0;
    case 1:
      return -rng.next() * 3.0;
    case 2:
      return 1e-25 * (1.0 + rng.next());  // below 2^-64: underflow slot
    case 3:
      return 1e22 * (1.0 + rng.next());  // past 2^64: overflow slot
    case 4:
      return rng.below(50) == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : 1.0;
    default:
      return std::exp(rng.next() * 20.0 - 10.0);
  }
}

Golden run_workload(std::size_t ring_capacity, std::size_t max_series) {
  Registry registry;
  RecorderConfig config;
  config.registry = &registry;
  config.ring_capacity = ring_capacity;
  config.max_series = max_series;
  MetricsRecorder recorder(config);

  Counter& plain = registry.counter("wadp_g_plain_total");
  Counter& read = registry.counter("wadp_g_ops_total", {{"op", "read"}});
  Counter& write = registry.counter("wadp_g_ops_total", {{"op", "write"}});
  Gauge& depth = registry.gauge("wadp_g_depth_ratio");
  Gauge& load = registry.gauge("wadp_g_load_ratio", {{"site", "anl"}});
  Histogram& busy = registry.histogram("wadp_g_busy_seconds");
  Histogram& labeled =
      registry.histogram("wadp_g_lat_seconds", {{"op", "get"}});
  registry.histogram("wadp_g_idle_seconds");  // never recorded into
  registry.counter("wadp_g_idle_total");      // never incremented

  Counter* late = nullptr;
  Counter* late_cell = nullptr;
  Histogram* late_hist = nullptr;
  Gauge* late_gauge = nullptr;

  Lcg rng;
  double now = 0.0;
  for (int step = 0; step < 240; ++step) {
    now += step % 7 == 3 ? 2.5 : 1.0;
    plain.inc(rng.below(5));
    read.inc(rng.below(40));
    if (step % 3 != 0) write.inc(rng.below(9));
    depth.set(rng.next() * 10.0 - 2.0);
    if (step % 5 == 0) load.set(static_cast<double>(step % 4));
    const std::uint64_t busy_n = rng.below(12);
    for (std::uint64_t i = 0; i < busy_n; ++i) busy.record(draw_sample(rng));
    if (step % 4 == 1) labeled.record(0.001 * (1.0 + rng.next()));

    // Instruments born after scraping began: a counter, a new cell of
    // an existing labeled family, a histogram and a gauge.
    if (step == 40) {
      late = &registry.counter("wadp_g_late_total");
      late_cell = &registry.counter("wadp_g_ops_total", {{"op", "delete"}});
    }
    if (step == 90) {
      late_hist = &registry.histogram("wadp_g_late_seconds");
      late_gauge = &registry.gauge("wadp_g_late_ratio", {{"site", "lbl"}});
    }
    if (late != nullptr && step % 2 == 0) late->inc(3);
    if (late_cell != nullptr) late_cell->inc(rng.below(4));
    if (late_hist != nullptr) late_hist->record(rng.next() * 100.0);
    if (late_gauge != nullptr) late_gauge->set(-rng.next());

    // Some ticks are not scraped at all; some are double-wired or go
    // backwards and must be skipped.
    if (step % 11 == 5) continue;
    recorder.scrape(now);
    if (step % 13 == 0) recorder.scrape(now);
    if (step % 17 == 0) recorder.scrape(now - 0.5);
  }

  Fnv1a hash;
  const double windows[][2] = {{2.0, now},      {10.0, now},
                               {25.0, now - 7}, {1e6, now},
                               {0.5, now},      {30.0, now - 200.0}};
  for (const std::string& name : recorder.series_names()) {
    if (name.rfind("wadp_ts_scrape_seconds", 0) == 0) continue;
    hash.text(name);
    for (const TsSample& s : recorder.samples(name)) {
      hash.real(s.time);
      hash.real(s.value);
    }
    for (const auto& [span, at] : windows) {
      const TsWindow w = recorder.window(name, span, at);
      hash.integer(w.samples);
      hash.real(w.mean);
      hash.real(w.min);
      hash.real(w.max);
      hash.real(w.last);
    }
  }
  return Golden{.hash = hash.value(),
                .series = recorder.series_count(),
                .scrapes = recorder.scrapes(),
                .skipped = recorder.skipped_scrapes(),
                .dropped = recorder.dropped_series()};
}

TEST(TimeseriesGoldenTest, RingsAndWindowsMatchGolden) {
  const Golden g = run_workload(/*ring_capacity=*/64, /*max_series=*/8192);
  EXPECT_EQ(g.hash, 0x82f460debf4ca072ULL) << std::hex << g.hash;
  EXPECT_EQ(g.series, 40u);
  EXPECT_EQ(g.scrapes, 218u);
  EXPECT_EQ(g.skipped, 32u);
  EXPECT_EQ(g.dropped, 0u);
}

TEST(TimeseriesGoldenTest, MaxSeriesCapMatchesGolden) {
  const Golden g = run_workload(/*ring_capacity=*/16, /*max_series=*/30);
  EXPECT_EQ(g.hash, 0x07a0aa3adbc07c9eULL) << std::hex << g.hash;
  EXPECT_EQ(g.series, 30u);
  EXPECT_EQ(g.scrapes, 218u);
  EXPECT_EQ(g.skipped, 32u);
  EXPECT_EQ(g.dropped, 1706u);
}

}  // namespace
}  // namespace wadp::obs
