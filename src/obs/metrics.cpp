#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace wadp::obs {
namespace {

/// Canonical serialized form of a label set: sorted `k="v"` joined by
/// commas.  Used both as the per-family ordering key and by exporters.
std::string serialize_labels(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out += ",";
    out += key;
    out += "=\"";
    out += value;
    out += "\"";
  }
  return out;
}

}  // namespace

Histogram::Histogram()
    : buckets_(new std::atomic<std::uint64_t>[kBucketCount]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // non-positive and NaN: underflow slot
  if (std::isinf(value)) return kBucketCount - 1;  // +inf: overflow slot
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // in [0.5, 1)
  // Normalize to frac in [1, 2) over octave e = exponent - 1.
  const int octave = exponent - 1;
  if (octave < kMinExponent) return 0;
  if (octave >= kMaxExponent) return kBucketCount - 1;  // overflow slot
  const double frac = mantissa * 2.0;                   // [1, 2)
  auto sub = static_cast<std::size_t>((frac - 1.0) * kSubBuckets);
  sub = std::min<std::size_t>(sub, kSubBuckets - 1);
  return static_cast<std::size_t>(octave - kMinExponent) * kSubBuckets + sub +
         1;
}

double Histogram::bucket_upper_bound(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t linear = index - 1;
  const auto octave =
      static_cast<int>(linear / kSubBuckets) + kMinExponent;
  const auto sub = static_cast<double>(linear % kSubBuckets);
  return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, octave);
}

void Histogram::record(double value) {
  const std::size_t index = bucket_index(value);
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo && !min_.compare_exchange_weak(
                           lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi && !max_.compare_exchange_weak(
                           hi, value, std::memory_order_relaxed)) {
  }
}

std::size_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::min() const {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::mean() const {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  return n ? sum_.load(std::memory_order_relaxed) / static_cast<double>(n)
           : 0.0;
}

std::uint64_t Histogram::walk_buckets(std::vector<BucketCount>& out) const {
  out.clear();
  // bucket_index is monotone, so every positive sample lies between
  // the buckets of min and max; the rest (non-positive, NaN) sit in
  // the underflow slot, which min/max do not bound.  An empty
  // histogram (min +inf, max -inf) yields an empty range.
  const double lowest = min_.load(std::memory_order_relaxed);
  const double highest = max_.load(std::memory_order_relaxed);
  const std::size_t first = std::max<std::size_t>(1, bucket_index(lowest));
  const std::size_t last = bucket_index(highest);
  std::uint64_t total = 0;
  const auto visit = [&](std::size_t i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) return;
    out.push_back({i, n});
    total += n;
  };
  visit(0);
  for (std::size_t i = first; i <= last; ++i) visit(i);
  return total;
}

double Histogram::quantile(double q) const {
  WADP_CHECK(q >= 0.0 && q <= 1.0);
  // The rank comes from the walk's own total, so the interpolation is
  // self-consistent even if writers race the export.
  thread_local std::vector<BucketCount> buckets;
  const std::uint64_t n = walk_buckets(buckets);
  if (n == 0) return 0.0;
  const double observed_min = min_.load(std::memory_order_relaxed);
  const double observed_max = max_.load(std::memory_order_relaxed);
  // Rank of the target sample, 1-based, linear between extremes.
  const double rank = 1.0 + q * static_cast<double>(n - 1);
  std::uint64_t seen = 0;
  for (const BucketCount& bucket : buckets) {
    const auto below = static_cast<double>(seen);
    seen += bucket.count;
    if (static_cast<double>(seen) + 1e-12 < rank) continue;
    // Interpolate inside the landing bucket between its bounds,
    // clamped to the observed min/max so tails stay honest.
    const std::size_t i = bucket.index;
    const double lo = std::max(i == 0 ? 0.0 : bucket_upper_bound(i - 1),
                               observed_min);
    const double hi = std::min(bucket_upper_bound(i), observed_max);
    // An +inf upper end reads +inf outright: (hi - lo) * 0 is NaN.
    if (!(hi > lo) || std::isinf(hi)) return hi;
    const double within = (rank - below) / static_cast<double>(bucket.count);
    return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
  }
  return observed_max;
}

Registry::Cell& Registry::resolve(std::string_view name, Labels labels,
                                  std::string_view help, Kind kind) {
  std::sort(labels.begin(), labels.end());
  std::string label_key = serialize_labels(labels);
  const std::lock_guard<std::mutex> lock(mu_);
  auto family_it = families_.find(name);
  if (family_it == families_.end()) {
    family_it = families_.emplace(std::string(name), FamilyCell{}).first;
    family_it->second.kind = kind;
  }
  FamilyCell& family = family_it->second;
  WADP_CHECK_MSG(family.kind == kind,
                 "metric registered twice with different kinds");
  if (family.help.empty() && !help.empty()) family.help = help;
  for (const auto& cell : family.cells) {
    if (cell->label_key == label_key) return *cell;
  }
  auto cell = std::make_unique<Cell>();
  cell->labels = std::move(labels);
  cell->label_key = std::move(label_key);
  switch (kind) {
    case Kind::kCounter:
      cell->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      cell->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      cell->histogram = std::make_unique<Histogram>();
      break;
  }
  family.cells.push_back(std::move(cell));
  generation_.fetch_add(1, std::memory_order_release);
  return *family.cells.back();
}

Counter& Registry::counter(std::string_view name, Labels labels,
                           std::string_view help) {
  return *resolve(name, std::move(labels), help, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels,
                       std::string_view help) {
  return *resolve(name, std::move(labels), help, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, Labels labels,
                               std::string_view help) {
  return *resolve(name, std::move(labels), help, Kind::kHistogram).histogram;
}

std::vector<Registry::Family> Registry::families() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Family> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    Family exported;
    exported.name = name;
    exported.help = family.help;
    exported.kind = family.kind;
    std::vector<const Cell*> cells;
    cells.reserve(family.cells.size());
    for (const auto& cell : family.cells) cells.push_back(cell.get());
    std::sort(cells.begin(), cells.end(), [](const Cell* a, const Cell* b) {
      return a->label_key < b->label_key;
    });
    for (const Cell* cell : cells) {
      exported.instruments.push_back(Instrument{.labels = cell->labels,
                                                .counter = cell->counter.get(),
                                                .gauge = cell->gauge.get(),
                                                .histogram =
                                                    cell->histogram.get()});
    }
    out.push_back(std::move(exported));
  }
  return out;
}

// Build identity baked in by src/obs/CMakeLists.txt; the fallbacks keep
// non-CMake tooling (IDEs, single-file checks) compiling.
#ifndef WADP_VERSION
#define WADP_VERSION "unknown"
#endif
#ifndef WADP_GIT_SHA
#define WADP_GIT_SHA "unknown"
#endif
#ifndef WADP_BUILD_TYPE
#define WADP_BUILD_TYPE "unknown"
#endif

Registry& Registry::global() {
  static Registry registry;
  // Constant 1-valued gauge carrying build identity as labels — the
  // Prometheus "info metric" idiom — registered on first use so every
  // export format shows it without call-site wiring.
  static const bool build_info_registered = [] {
    registry
        .gauge("wadp_build_info",
               {{"version", WADP_VERSION},
                {"git_sha", WADP_GIT_SHA},
                {"build_type", WADP_BUILD_TYPE}},
               "Build identity (constant 1; labels carry the facts)")
        .set(1.0);
    return true;
  }();
  (void)build_info_registered;
  return registry;
}

}  // namespace wadp::obs
