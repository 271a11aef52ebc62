// Metrics registry: counters, gauges, and log-linear histograms.
//
// The paper's contribution is instrumentation of *transfers*; this
// module instruments the framework itself (ingest rates, prediction
// latency, fallback counts, MDS query volume) so scaling work has a
// measurement substrate.  Design:
//
//   * Instruments are registered once by (name, labels) and live for
//     the registry's lifetime, so call sites cache a reference and the
//     hot path is lock-free: Counter::inc is a single relaxed atomic
//     add (<50 ns, see bench_obs_overhead), Gauge::set a relaxed
//     store, Histogram::record a relaxed per-bucket add plus CAS
//     moment updates.  Only registration takes a lock.
//   * Histograms use log-linear buckets (HdrHistogram-style): one
//     power-of-two octave split into 16 linear sub-buckets, giving
//     quantile estimates with <= ~6% relative error over the full
//     double range, in constant memory, with no per-sample storage.
//
// Naming follows Prometheus conventions (docs/OBSERVABILITY.md):
// snake_case, unit suffix, `_total` for counters; label values are
// low-cardinality (site, op, engine — never file names or IPs).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace wadp::obs {

/// Label set for one instrument, e.g. {{"op", "read"}, {"site", "lbl"}}.
/// Canonicalized (sorted by key) at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count.  Lock-free; safe to increment from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.  Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear-bucket histogram with streaming moments.  record() is
/// lock-free: one relaxed fetch_add on the landing bucket plus CAS
/// loops for sum/min/max, so concurrent writers never serialize and
/// the path stays TSan-clean.  Readers (quantiles, exports, the
/// recorder) walk the occupied bucket range with relaxed loads; under
/// concurrent writes a walk is approximate by design — each sample is
/// eventually visible, and a quiesced histogram reads exactly.
class Histogram {
 public:
  /// 16 linear sub-buckets per power-of-two octave.
  static constexpr int kSubBuckets = 16;
  /// Octaves covered: 2^-64 .. 2^64 (values outside clamp to the ends).
  static constexpr int kMinExponent = -64;
  static constexpr int kMaxExponent = 64;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;

  Histogram();

  /// Records one sample.  Non-positive and NaN samples land in the
  /// underflow bucket (quantiles treat them as 0), +inf in the overflow
  /// bucket; all of them still feed min/max/mean.
  void record(double value);

  std::size_t count() const;
  double sum() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;

  /// Quantile estimate, q in [0,1]: walks the non-empty buckets and
  /// interpolates linearly inside the landing bucket.  0 when empty,
  /// +inf when the landing bucket holds +inf samples.
  double quantile(double q) const;

  /// Bucket index for `value` (exposed for the accuracy tests).
  static std::size_t bucket_index(double value);
  /// Inclusive upper bound of bucket `index`.
  static double bucket_upper_bound(std::size_t index);

  /// One non-empty bucket, as reported by walk_buckets().
  struct BucketCount {
    std::size_t index = 0;
    std::uint64_t count = 0;
  };

  /// Replaces the contents of `out` with every non-empty bucket in
  /// index order and returns their total.  Only the underflow slot and
  /// [bucket_index(min), bucket_index(max)] can hold samples, so only
  /// they are read; `out` keeps its capacity, so a reused buffer makes
  /// the walk allocation-free.  Relaxed loads: under concurrent writes
  /// the walk is approximate, a quiesced histogram reads exactly.
  std::uint64_t walk_buckets(std::vector<BucketCount>& out) const;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;  // +inf when empty
  std::atomic<double> max_;  // -inf when empty
};

/// Registry: owns instruments keyed by (name, labels).  Lookups lock;
/// returned references stay valid for the registry's lifetime, so call
/// sites resolve once and increment forever.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, Labels labels = {},
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, Labels labels = {},
               std::string_view help = "");
  Histogram& histogram(std::string_view name, Labels labels = {},
                       std::string_view help = "");

  enum class Kind { kCounter, kGauge, kHistogram };

  /// One registered instrument, for exporters.
  struct Instrument {
    Labels labels;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// One metric family: every instrument sharing a name (and kind).
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<Instrument> instruments;  // label-sorted
  };

  /// Name-sorted snapshot of every family (deterministic exports).
  std::vector<Family> families() const;

  /// Bumped each time a registration creates a new instrument (never
  /// on a lookup of an existing one), so a consumer that caches
  /// families() knows when its copy is stale.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Process-wide registry the wired-in call sites use.
  static Registry& global();

 private:
  struct Cell {
    Labels labels;
    std::string label_key;  // canonical serialized labels, for ordering
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct FamilyCell {
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<std::unique_ptr<Cell>> cells;
  };

  Cell& resolve(std::string_view name, Labels labels, std::string_view help,
                Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, FamilyCell, std::less<>> families_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace wadp::obs
