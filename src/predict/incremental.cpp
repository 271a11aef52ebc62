#include "predict/incremental.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace wadp::predict {
namespace {

/// Neumaier-compensated add: keeps rolling temporal-window sums within
/// a few ulps of an exact re-sum between rebuilds.
void compensated_add(double& sum, double& comp, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    comp += (sum - t) + x;
  } else {
    comp += (x - t) + sum;
  }
  sum = t;
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamingMean

StreamingMean::StreamingMean(std::string name, WindowSpec window)
    : StreamingPredictor(std::move(name)), window_(window) {}

void StreamingMean::observe(const Observation& observation) {
  switch (window_.kind()) {
    case WindowSpec::Kind::kAll:
      // Same left-to-right accumulation order as util::mean over the
      // full history: bit-identical to the batch predictor.
      all_sum_ += observation.value;
      ++all_count_;
      break;
    case WindowSpec::Kind::kLastN:
      last_n_.push_back(observation.value);
      if (last_n_.size() > window_.n()) last_n_.pop_front();
      break;
    case WindowSpec::Kind::kLastDuration:
      timed_.push_back(observation);
      compensated_add(rolling_sum_, rolling_comp_, observation.value);
      ++ops_since_rebuild_;
      break;
  }
}

void StreamingMean::evict_before(SimTime cutoff) {
  if (cutoff <= evicted_through_) return;
  while (!timed_.empty() && timed_.front().time < cutoff) {
    compensated_add(rolling_sum_, rolling_comp_, -timed_.front().value);
    timed_.pop_front();
    ++ops_since_rebuild_;
  }
  evicted_through_ = cutoff;
}

void StreamingMean::rebuild_sum() {
  rolling_sum_ = 0.0;
  rolling_comp_ = 0.0;
  for (const auto& o : timed_) rolling_sum_ += o.value;
  ops_since_rebuild_ = 0;
}

std::optional<Bandwidth> StreamingMean::predict(const Query& query) {
  switch (window_.kind()) {
    case WindowSpec::Kind::kAll:
      if (all_count_ == 0) return std::nullopt;
      return all_sum_ / static_cast<double>(all_count_);
    case WindowSpec::Kind::kLastN: {
      if (last_n_.empty()) return std::nullopt;
      // Re-sum the (spec-constant-sized) window left to right: exactly
      // the batch computation, so the result is bit-identical.
      double sum = 0.0;
      for (double v : last_n_) sum += v;
      return sum / static_cast<double>(last_n_.size());
    }
    case WindowSpec::Kind::kLastDuration: {
      evict_before(query.time - window_.duration());
      if (timed_.empty()) return std::nullopt;
      // Amortized-O(1) exact rebuild caps rounding drift at O(|window|)
      // ulps regardless of how long the stream runs.
      if (ops_since_rebuild_ > timed_.size()) rebuild_sum();
      return (rolling_sum_ + rolling_comp_) /
             static_cast<double>(timed_.size());
    }
  }
  return std::nullopt;  // unreachable
}

SimTime StreamingMean::safe_query_time() const {
  if (window_.kind() != WindowSpec::Kind::kLastDuration) {
    return -std::numeric_limits<SimTime>::infinity();
  }
  return evicted_through_ + window_.duration();
}

// ---------------------------------------------------------------------------
// StreamingMedian

StreamingMedian::StreamingMedian(std::string name, WindowSpec window)
    : StreamingPredictor(std::move(name)), window_(window) {}

void StreamingMedian::insert_value(double value) {
  if (lo_.empty() || value <= *lo_.rbegin()) {
    lo_.insert(value);
  } else {
    hi_.insert(value);
  }
  rebalance();
}

void StreamingMedian::erase_value(double value) {
  // Invariant: max(lo) <= min(hi).  A value below max(lo) must live in
  // lo; a value equal to max(lo) has at least one copy there.
  if (!lo_.empty() && value <= *lo_.rbegin()) {
    lo_.erase(lo_.find(value));
  } else {
    hi_.erase(hi_.find(value));
  }
  rebalance();
}

void StreamingMedian::rebalance() {
  // Keep |lo| = |hi| or |lo| = |hi| + 1, so the batch order statistics
  // sorted[(t-1)/2] and sorted[t/2] are max(lo) / min(hi).
  while (lo_.size() > hi_.size() + 1) {
    const auto it = std::prev(lo_.end());
    hi_.insert(*it);
    lo_.erase(it);
  }
  while (hi_.size() > lo_.size()) {
    const auto it = hi_.begin();
    lo_.insert(*it);
    hi_.erase(it);
  }
}

void StreamingMedian::evict_before(SimTime cutoff) {
  if (cutoff <= evicted_through_) return;
  while (!order_.empty() && order_.front().time < cutoff) {
    erase_value(order_.front().value);
    order_.pop_front();
  }
  evicted_through_ = cutoff;
}

void StreamingMedian::observe(const Observation& observation) {
  if (window_.kind() == WindowSpec::Kind::kAll) {
    insert_value(observation.value);
    return;
  }
  order_.push_back(observation);
  insert_value(observation.value);
  if (window_.kind() == WindowSpec::Kind::kLastN &&
      order_.size() > window_.n()) {
    erase_value(order_.front().value);
    order_.pop_front();
  }
}

std::optional<Bandwidth> StreamingMedian::predict(const Query& query) {
  if (window_.kind() == WindowSpec::Kind::kLastDuration) {
    evict_before(query.time - window_.duration());
  }
  const std::size_t t = lo_.size() + hi_.size();
  if (t == 0) return std::nullopt;
  if (t % 2 == 1) return *lo_.rbegin();
  // Same expression order as util::median: 0.5 * (lower + upper).
  return 0.5 * (*lo_.rbegin() + *hi_.begin());
}

SimTime StreamingMedian::safe_query_time() const {
  if (window_.kind() != WindowSpec::Kind::kLastDuration) {
    return -std::numeric_limits<SimTime>::infinity();
  }
  return evicted_through_ + window_.duration();
}

// ---------------------------------------------------------------------------
// StreamingLastValue

StreamingLastValue::StreamingLastValue(std::string name)
    : StreamingPredictor(std::move(name)) {}

void StreamingLastValue::observe(const Observation& observation) {
  last_ = observation.value;
}

std::optional<Bandwidth> StreamingLastValue::predict(const Query& /*query*/) {
  return last_;
}

// ---------------------------------------------------------------------------
// StreamingAr

StreamingAr::StreamingAr(std::string name, WindowSpec window,
                         std::size_t min_samples)
    : StreamingPredictor(std::move(name)),
      window_(window),
      min_samples_(min_samples) {
  WADP_CHECK(min_samples_ >= 3);
}

void StreamingAr::add_pair(double prev, double value) {
  if (!shift_set_) {
    shift_ = prev;
    shift_set_ = true;
  }
  const double u = prev - shift_;
  const double w = value - shift_;
  su_ += u;
  sw_ += w;
  suu_ += u * u;
  suw_ += u * w;
  ++pairs_;
  const std::uint64_t seq = next_pair_seq_++;
  while (!min_deque_.empty() && min_deque_.back().value >= prev) {
    min_deque_.pop_back();
  }
  min_deque_.push_back({seq, prev});
  while (!max_deque_.empty() && max_deque_.back().value <= prev) {
    max_deque_.pop_back();
  }
  max_deque_.push_back({seq, prev});
}

void StreamingAr::remove_front_pair() {
  WADP_CHECK(pairs_ > 0 && obs_.size() >= 2);
  const double prev = obs_[0].value;
  const double value = obs_[1].value;
  const double u = prev - shift_;
  const double w = value - shift_;
  su_ -= u;
  sw_ -= w;
  suu_ -= u * u;
  suw_ -= u * w;
  --pairs_;
  const std::uint64_t seq = front_pair_seq_++;
  if (!min_deque_.empty() && min_deque_.front().seq == seq) {
    min_deque_.pop_front();
  }
  if (!max_deque_.empty() && max_deque_.front().seq == seq) {
    max_deque_.pop_front();
  }
  ++ops_since_rebuild_;
}

void StreamingAr::evict_front_observation() {
  if (obs_.size() >= 2) remove_front_pair();
  obs_.pop_front();
  --count_;
}

void StreamingAr::evict_before(SimTime cutoff) {
  if (cutoff <= evicted_through_) return;
  while (!obs_.empty() && obs_.front().time < cutoff) {
    evict_front_observation();
  }
  evicted_through_ = cutoff;
}

void StreamingAr::maybe_rebuild() {
  if (window_.kind() == WindowSpec::Kind::kAll) return;  // never evicts
  if (ops_since_rebuild_ > obs_.size()) rebuild_from_window();
}

void StreamingAr::rebuild_from_window() {
  su_ = sw_ = suu_ = suw_ = 0.0;
  pairs_ = 0;
  min_deque_.clear();
  max_deque_.clear();
  next_pair_seq_ = 0;
  front_pair_seq_ = 0;
  shift_set_ = false;
  for (std::size_t i = 1; i < obs_.size(); ++i) {
    add_pair(obs_[i - 1].value, obs_[i].value);
  }
  ops_since_rebuild_ = 0;
}

void StreamingAr::observe(const Observation& observation) {
  if (count_ > 0) add_pair(last_value_, observation.value);
  last_value_ = observation.value;
  ++count_;
  if (window_.kind() != WindowSpec::Kind::kAll) {
    obs_.push_back(observation);
    ++ops_since_rebuild_;
    if (window_.kind() == WindowSpec::Kind::kLastN &&
        obs_.size() > window_.n()) {
      evict_front_observation();
    }
  }
}

double StreamingAr::fit_and_predict() const {
  // Mirrors util::ar1_fit + ArPredictor::predict: OLS of Y_t on
  // Y_{t-1}, degenerate constant-lagged windows predict the last
  // value, and the extrapolation is clamped at zero.
  const double last =
      window_.kind() == WindowSpec::Kind::kAll ? last_value_
                                               : obs_.back().value;
  WADP_CHECK(pairs_ >= 2);
  const bool constant_lagged =
      min_deque_.front().value == max_deque_.front().value;
  if (!constant_lagged) {
    const double n = static_cast<double>(pairs_);
    const double sxx = suu_ - su_ * su_ / n;
    const double sxy = suw_ - su_ * sw_ / n;
    if (sxx > 0.0) {
      const double slope = sxy / sxx;
      const double mean_x = shift_ + su_ / n;
      const double mean_y = shift_ + sw_ / n;
      const double intercept = mean_y - slope * mean_x;
      return std::max(0.0, intercept + slope * last);
    }
  }
  return std::max(0.0, last);
}

std::optional<Bandwidth> StreamingAr::predict(const Query& query) {
  if (window_.kind() == WindowSpec::Kind::kLastDuration) {
    evict_before(query.time - window_.duration());
  }
  const std::size_t in_window =
      window_.kind() == WindowSpec::Kind::kAll ? count_ : obs_.size();
  if (in_window < min_samples_) return std::nullopt;
  maybe_rebuild();
  return fit_and_predict();
}

SimTime StreamingAr::safe_query_time() const {
  if (window_.kind() != WindowSpec::Kind::kLastDuration) {
    return -std::numeric_limits<SimTime>::infinity();
  }
  return evicted_through_ + window_.duration();
}

// ---------------------------------------------------------------------------
// StreamingClassified

StreamingClassified::StreamingClassified(
    std::string name, SizeClassifier classifier,
    const std::function<std::unique_ptr<StreamingPredictor>()>& make_base)
    : StreamingPredictor(std::move(name)), classifier_(std::move(classifier)) {
  per_class_.reserve(static_cast<std::size_t>(classifier_.num_classes()));
  for (int cls = 0; cls < classifier_.num_classes(); ++cls) {
    auto state = make_base();
    WADP_CHECK(state != nullptr);
    per_class_.push_back(std::move(state));
  }
}

void StreamingClassified::observe(const Observation& observation) {
  const auto cls =
      static_cast<std::size_t>(classifier_.classify(observation.file_size));
  per_class_[cls]->observe(observation);
}

std::optional<Bandwidth> StreamingClassified::predict(const Query& query) {
  const auto cls =
      static_cast<std::size_t>(classifier_.classify(query.file_size));
  return per_class_[cls]->predict(query);
}

SimTime StreamingClassified::safe_query_time() const {
  SimTime latest = -std::numeric_limits<SimTime>::infinity();
  for (const auto& state : per_class_) {
    latest = std::max(latest, state->safe_query_time());
  }
  return latest;
}

// ---------------------------------------------------------------------------
// DynamicSelector

DynamicSelector::DynamicSelector(
    std::string name,
    const std::vector<std::shared_ptr<const Predictor>>& candidates)
    : StreamingPredictor(std::move(name)) {
  WADP_CHECK_MSG(!candidates.empty(), "selector needs candidates");
  streams_.reserve(candidates.size());
  for (const auto& c : candidates) {
    WADP_CHECK(c != nullptr);
    streams_.push_back(c->stream());
  }
  error_sum_.assign(streams_.size(), 0.0);
  error_count_.assign(streams_.size(), 0);
}

void DynamicSelector::observe(const Observation& observation) {
  // Score every candidate on this measurement *before* absorbing it —
  // exactly the postmortem NWS runs on each new sensor reading.
  if (observation.value > 0.0) {
    const Query query{.time = observation.time,
                      .file_size = observation.file_size};
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (const auto p = streams_[i]->predict(query)) {
        error_sum_[i] += util::percent_error(observation.value, *p);
        ++error_count_[i];
      }
    }
  }
  for (const auto& stream : streams_) stream->observe(observation);
}

std::size_t DynamicSelector::best_index() const {
  std::size_t best = 0;
  double best_mean = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (error_count_[i] == 0) continue;
    const double mean = error_sum_[i] / static_cast<double>(error_count_[i]);
    if (mean < best_mean) {
      best_mean = mean;
      best = i;
    }
  }
  return best;  // index 0 until anyone has a track record
}

std::optional<Bandwidth> DynamicSelector::predict(const Query& query) {
  return streams_[best_index()]->predict(query);
}

SimTime DynamicSelector::safe_query_time() const {
  SimTime latest = -std::numeric_limits<SimTime>::infinity();
  for (const auto& stream : streams_) {
    latest = std::max(latest, stream->safe_query_time());
  }
  return latest;
}

const std::string& DynamicSelector::current_choice() const {
  return streams_[best_index()]->name();
}

std::vector<std::pair<std::string, double>> DynamicSelector::scores() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const double mean =
        error_count_[i] ? error_sum_[i] / static_cast<double>(error_count_[i])
                        : std::numeric_limits<double>::quiet_NaN();
    out.emplace_back(streams_[i]->name(), mean);
  }
  return out;
}

}  // namespace wadp::predict
