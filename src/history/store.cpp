#include "history/store.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "history/adapter.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace wadp::history {
namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const std::vector<predict::Observation>& empty_series() {
  static const std::vector<predict::Observation> kEmpty;
  return kEmpty;
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: full avalanche over both inputs' bits.
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::string SeriesKey::to_string() const {
  return host + "/" + remote_ip + "/" + gridftp::to_string(op);
}

std::size_t hash_of(const SeriesKey& key) {
  // FNV-1a over the fields with separators, so ("ab","c") != ("a","bc").
  std::size_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xffu;
    h *= 1099511628211ull;
  };
  mix(key.host);
  mix(key.remote_ip);
  h ^= static_cast<std::size_t>(key.op);
  h *= 1099511628211ull;
  return h;
}

const std::vector<predict::Observation>& SeriesSnapshot::observations() const {
  return data_ ? *data_ : empty_series();
}

void SeriesSnapshot::drop_lease() {
  if (lease_) {
    // Release: orders every read this snapshot made before the store's
    // acquire load that may observe the count reaching zero.
    lease_->fetch_sub(1, std::memory_order_release);
    lease_.reset();
  }
}

SeriesSnapshot::~SeriesSnapshot() { drop_lease(); }

SeriesSnapshot::SeriesSnapshot(const SeriesSnapshot& other)
    : data_(other.data_),
      lease_(other.lease_),
      epoch_(other.epoch_),
      generation_(other.generation_),
      evicted_(other.evicted_) {
  // Relaxed is enough: `other` provably holds a lease, so the count is
  // non-zero throughout and a writer can never observe zero here.
  if (lease_) lease_->fetch_add(1, std::memory_order_relaxed);
}

SeriesSnapshot& SeriesSnapshot::operator=(const SeriesSnapshot& other) {
  if (this != &other) {
    drop_lease();
    data_ = other.data_;
    lease_ = other.lease_;
    epoch_ = other.epoch_;
    generation_ = other.generation_;
    evicted_ = other.evicted_;
    if (lease_) lease_->fetch_add(1, std::memory_order_relaxed);
  }
  return *this;
}

SeriesSnapshot& SeriesSnapshot::operator=(SeriesSnapshot&& other) noexcept {
  if (this != &other) {
    drop_lease();
    data_ = std::move(other.data_);
    lease_ = std::move(other.lease_);  // lease transfers, count unchanged
    epoch_ = other.epoch_;
    generation_ = other.generation_;
    evicted_ = other.evicted_;
  }
  return *this;
}

HistoryStore::HistoryStore(StoreConfig config) : config_(config) {
  const std::size_t shards =
      std::min<std::size_t>(64, round_up_pow2(std::max<std::size_t>(
                                    1, config_.shard_count)));
  config_.shard_count = shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!config_.instrumented) return;
  auto& registry = obs::Registry::global();
  metrics_.shard_appends.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    metrics_.shard_appends.push_back(&registry.counter(
        "wadp_history_appends_total", {{"shard", std::to_string(i)}},
        "Observations appended to the history store, per shard"));
  }
  metrics_.out_of_order = &registry.counter(
      "wadp_history_out_of_order_total", {},
      "Appends that arrived out of time order (generation bumps)");
  metrics_.dedup_skipped = &registry.counter(
      "wadp_history_dedup_skipped_total", {},
      "Record appends skipped by the (timestamp, trace_id) dedupe index");
  metrics_.evicted = &registry.counter(
      "wadp_history_evicted_total", {},
      "Observations evicted by the per-series retention cap");
  metrics_.snapshots = &registry.counter(
      "wadp_history_snapshots_total", {}, "Series snapshots handed out");
  metrics_.cow_copies = &registry.counter(
      "wadp_history_cow_copies_total", {},
      "Appends that copied a series because a snapshot was outstanding");
  metrics_.lock_contended = &registry.counter(
      "wadp_history_lock_contended_total", {},
      "Shard-lock acquisitions that found the lock busy");
  metrics_.snapshot_age = &registry.gauge(
      "wadp_history_snapshot_age_seconds", {},
      "Wall-clock staleness of the most recently taken snapshot "
      "(seconds since its series last mutated)");
  metrics_.lock_wait = &registry.histogram(
      "wadp_history_lock_wait_seconds", {},
      "Wall-clock wait for a contended shard lock");
}

HistoryStore::Shard& HistoryStore::shard_for(const SeriesKey& key) const {
  return *shards_[hash_of(key) & (shards_.size() - 1)];
}

std::unique_lock<std::mutex> HistoryStore::lock_shard(
    const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  // Contended path only: measure the wait.  The fast path stays a bare
  // try_lock so the contention instrument never serializes the shards.
  const double started = wall_seconds();
  lock.lock();
  if (metrics_.lock_contended != nullptr) {
    metrics_.lock_contended->inc();
    metrics_.lock_wait->record(wall_seconds() - started);
  }
  return lock;
}

std::uint64_t HistoryStore::record_hash(const gridftp::TransferRecord& record) {
  std::uint64_t time_bits = 0;
  static_assert(sizeof(time_bits) == sizeof(record.end_time));
  std::memcpy(&time_bits, &record.end_time, sizeof(time_bits));
  return mix64(time_bits * 0x9e3779b97f4a7c15ull ^
               mix64(record.trace_id + 0x632be59bd9b4e019ull));
}

std::uint64_t HistoryStore::append(const SeriesKey& key,
                                   const predict::Observation& obs) {
  bool applied = true;
  return append_obs(key, obs, nullptr, &applied);
}

std::uint64_t HistoryStore::append_obs(const SeriesKey& key,
                                       const predict::Observation& obs,
                                       const std::uint64_t* dedupe_hash,
                                       bool* applied) {
  const std::size_t shard_index = hash_of(key) & (shards_.size() - 1);
  Shard& shard = *shards_[shard_index];
  bool out_of_order = false;
  bool copied = false;
  std::uint64_t evictions = 0;
  std::uint64_t epoch = 0;
  // Copy-on-write staging area, filled OUTSIDE the shard lock so a
  // reader never queues behind an O(n) clone of a large series.
  std::shared_ptr<std::vector<predict::Observation>> staged;
  std::uint64_t staged_epoch = 0;
  {
    auto lock = lock_shard(shard);
    Series& series = shard.series[key];
    if (dedupe_hash != nullptr && !series.seen.insert(*dedupe_hash).second) {
      // Already ingested (WAL replay over a snapshot, or a log
      // backfill after recovery): leave the series untouched.
      *applied = false;
      dedup_skipped_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t current = series.epoch;
      lock.unlock();
      if (metrics_.dedup_skipped != nullptr) metrics_.dedup_skipped->inc();
      return current;
    }
    if (!series.data) {
      series.data = std::make_shared<std::vector<predict::Observation>>();
    }
    // A non-zero lease count means a snapshot of this epoch may still
    // be reading, so the vector must be left frozen (the acquire load
    // pairs with the departing snapshots' release decrements).  Clone
    // it with the lock dropped, then install the clone only if no
    // other writer advanced the series in the meantime (each retry
    // implies another writer made progress, so the loop terminates).
    while (series.readers->load(std::memory_order_acquire) > 0) {
      if (staged && staged_epoch == series.epoch) {
        series.data = std::move(staged);
        // Fresh epoch, fresh lease count: outstanding snapshots keep
        // decrementing their own (old) counter.
        series.readers = std::make_shared<std::atomic<std::int64_t>>(0);
        copied = true;
        break;
      }
      const auto frozen = series.data;
      // The clone reads the frozen vector with the lock dropped, so it
      // leases the epoch like any snapshot: a second writer arriving
      // after the last snapshot left still sees a reader and clones
      // too, instead of appending in place under this copy.
      const auto lease = series.readers;
      lease->fetch_add(1, std::memory_order_relaxed);
      staged_epoch = series.epoch;
      lock.unlock();
      staged = std::make_shared<std::vector<predict::Observation>>();
      staged->reserve(std::max(frozen->capacity(), frozen->size() + 1));
      staged->assign(frozen->begin(), frozen->end());
      lock.lock();
      lease->fetch_sub(1, std::memory_order_release);
    }
    auto& data = *series.data;
    if (data.empty() || data.back().time <= obs.time) {
      data.push_back(obs);
    } else {
      const auto pos = std::upper_bound(
          data.begin(), data.end(), obs,
          [](const predict::Observation& a, const predict::Observation& b) {
            return a.time < b.time;
          });
      data.insert(pos, obs);
      ++series.generation;
      out_of_order = true;
    }
    const std::size_t cap = config_.max_observations_per_series;
    if (cap > 0 && data.size() > cap) {
      // Evict in batches of cap/4 so the front-erase memmove amortizes
      // to O(1) per append instead of O(cap) once a series sits at cap.
      const std::size_t drop =
          std::max<std::size_t>(data.size() - cap, cap / 4);
      data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(drop));
      series.evicted += drop;
      ++series.generation;
      evictions = drop;
    }
    epoch = ++series.epoch;
    // Release pairs with the serving cache's acquire validation load:
    // a reader that observes the new watermark also observes the data
    // mutation that produced it.
    series.watermark->store(epoch, std::memory_order_release);
    series.last_append_wall = wall_seconds();
    ++shard.appends;
  }
  if (!metrics_.shard_appends.empty()) {
    metrics_.shard_appends[shard_index]->inc();
    if (out_of_order) metrics_.out_of_order->inc();
    if (evictions > 0) metrics_.evicted->inc(evictions);
    if (copied) metrics_.cow_copies->inc();
  }
  return epoch;
}

std::uint64_t HistoryStore::append(const gridftp::TransferRecord& record) {
  std::uint64_t hash = 0;
  const std::uint64_t* dedupe_hash = nullptr;
  if (config_.dedupe_records) {
    hash = record_hash(record);
    dedupe_hash = &hash;
  }
  bool applied = true;
  const std::uint64_t epoch = append_obs(
      series_key_for(record), to_observation(record), dedupe_hash, &applied);
  // A deduplicated record changed nothing: no observer (the quality
  // tracker must not re-join it) and no ingest span.
  if (!applied) return epoch;
  std::shared_ptr<const std::vector<RecordObserver>> observers;
  {
    const std::lock_guard<std::mutex> lock(observers_mu_);
    observers = observers_;
  }
  if (observers) {
    for (const RecordObserver& observer : *observers) observer(record);
  }
  if (config_.instrumented && obs::TraceContext::current().active()) {
    // Zero-width instant on the simulated timeline: ingest is the
    // terminal hop of the request's causal chain (parent and trace id
    // come from the ambient context).
    obs::Tracer::global().record(
        "history.ingest", 0, obs::sim_ns(record.end_time),
        obs::sim_ns(record.end_time),
        {{"SERIES", series_key_for(record).to_string()},
         {"RESULT", record.ok ? "ok" : "fail"}});
  }
  return epoch;
}

void HistoryStore::add_record_observer(RecordObserver observer) {
  const std::lock_guard<std::mutex> lock(observers_mu_);
  auto next = observers_ ? std::make_shared<std::vector<RecordObserver>>(
                               *observers_)
                         : std::make_shared<std::vector<RecordObserver>>();
  next->push_back(std::move(observer));
  observers_ = std::move(next);
}

std::size_t HistoryStore::ingest_log(const gridftp::TransferLog& log) {
  for (const auto& record : log.records()) append(record);
  return log.records().size();
}

std::size_t HistoryStore::attach(gridftp::TransferLog& log) {
  const std::size_t backfilled = ingest_log(log);
  log.set_record_sink(
      [this](const gridftp::TransferRecord& record) { append(record); });
  return backfilled;
}

SeriesSnapshot HistoryStore::snapshot(const SeriesKey& key) const {
  SeriesSnapshot snap;
  double age = 0.0;
  {
    const Shard& shard = shard_for(key);
    auto lock = lock_shard(shard);
    const auto it = shard.series.find(key);
    if (it == shard.series.end()) return snap;
    snap.data_ = it->second.data;
    // Take one lease on this epoch; relaxed is enough under the shard
    // lock (writers also check the count under it).
    it->second.readers->fetch_add(1, std::memory_order_relaxed);
    snap.lease_ = it->second.readers;
    snap.epoch_ = it->second.epoch;
    snap.generation_ = it->second.generation;
    snap.evicted_ = it->second.evicted;
    age = wall_seconds() - it->second.last_append_wall;
  }
  if (metrics_.snapshots != nullptr) {
    metrics_.snapshots->inc();
    metrics_.snapshot_age->set(age);
  }
  return snap;
}

std::vector<SeriesExport> HistoryStore::export_shard(
    std::size_t shard_index) const {
  WADP_CHECK_MSG(shard_index < shards_.size(), "export: no such shard");
  std::vector<SeriesExport> out;
  const Shard& shard = *shards_[shard_index];
  auto lock = lock_shard(shard);
  out.reserve(shard.series.size());
  for (const auto& [key, series] : shard.series) {
    if (!series.data) continue;  // watermark-only subscription, nothing to save
    SeriesExport exported;
    exported.key = key;
    exported.snapshot.data_ = series.data;
    series.readers->fetch_add(1, std::memory_order_relaxed);
    exported.snapshot.lease_ = series.readers;
    exported.snapshot.epoch_ = series.epoch;
    exported.snapshot.generation_ = series.generation;
    exported.snapshot.evicted_ = series.evicted;
    exported.hashes.assign(series.seen.begin(), series.seen.end());
    std::sort(exported.hashes.begin(), exported.hashes.end());
    out.push_back(std::move(exported));
  }
  return out;
}

void HistoryStore::restore_series(const SeriesKey& key,
                                  std::vector<predict::Observation> observations,
                                  std::uint64_t epoch,
                                  std::uint64_t generation,
                                  std::uint64_t evicted,
                                  std::vector<std::uint64_t> hashes) {
  const std::size_t shard_index = hash_of(key) & (shards_.size() - 1);
  Shard& shard = *shards_[shard_index];
  auto lock = lock_shard(shard);
  Series& series = shard.series[key];
  WADP_CHECK_MSG(!series.data || series.data->empty(),
                 "restore_series over a series that already holds data");
  const std::size_t count = observations.size();
  series.data = std::make_shared<std::vector<predict::Observation>>(
      std::move(observations));
  // Fresh lease counter: any snapshot taken of the (empty) pre-restore
  // epoch keeps decrementing its own.
  series.readers = std::make_shared<std::atomic<std::int64_t>>(0);
  series.epoch = epoch;
  series.generation = generation;
  series.evicted = evicted;
  if (config_.dedupe_records) {
    series.seen.insert(hashes.begin(), hashes.end());
  }
  // Release pairs with serving-cache validation loads: a cache entry
  // stamped with a pre-crash epoch revalidates against the restored
  // watermark exactly as it did against the live one.
  series.watermark->store(epoch, std::memory_order_release);
  series.last_append_wall = wall_seconds();
  shard.appends += count;
}

std::shared_ptr<const std::atomic<std::uint64_t>> HistoryStore::watermark(
    const SeriesKey& key) {
  Shard& shard = shard_for(key);
  auto lock = lock_shard(shard);
  // operator[] so a subscription taken before the first observation
  // binds to the same cell every later append will publish through.
  return shard.series[key].watermark;
}

std::uint64_t HistoryStore::epoch(const SeriesKey& key) const {
  const Shard& shard = shard_for(key);
  auto lock = lock_shard(shard);
  const auto it = shard.series.find(key);
  return it == shard.series.end() ? 0 : it->second.epoch;
}

std::vector<SeriesKey> HistoryStore::keys() const {
  std::vector<SeriesKey> out;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [key, series] : shard->series) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SeriesKey> HistoryStore::keys_for_host(
    const std::string& host) const {
  std::vector<SeriesKey> out;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [key, series] : shard->series) {
      if (key.host == host) out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t HistoryStore::series_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    total += shard->series.size();
  }
  return total;
}

std::size_t HistoryStore::total_observations() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    for (const auto& [key, series] : shard->series) {
      if (series.data) total += series.data->size();
    }
  }
  return total;
}

std::vector<ShardStats> HistoryStore::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardStats stats;
    stats.index = i;
    auto lock = lock_shard(*shards_[i]);
    stats.series_count = shards_[i]->series.size();
    for (const auto& [key, series] : shards_[i]->series) {
      if (series.data) stats.observation_count += series.data->size();
    }
    stats.appends = shards_[i]->appends;
    out.push_back(stats);
  }
  return out;
}

std::vector<SeriesInfo> HistoryStore::series_info() const {
  std::vector<SeriesInfo> out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto lock = lock_shard(*shards_[i]);
    for (const auto& [key, series] : shards_[i]->series) {
      SeriesInfo info;
      info.key = key;
      info.shard = i;
      info.observations = series.data ? series.data->size() : 0;
      info.epoch = series.epoch;
      info.generation = series.generation;
      info.evicted = series.evicted;
      out.push_back(std::move(info));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SeriesInfo& a, const SeriesInfo& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace wadp::history
