// Multi-threaded ingest-while-query stress for the history plane.
// These tests are in the TSan CI job's filter (names contain "Thread"):
// the assertions here are secondary to the data-race coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/prediction_service.hpp"
#include "history/store.hpp"

namespace wadp::history {
namespace {

using predict::Observation;

SeriesKey key_for(int i) {
  return {.host = "host" + std::to_string(i), .remote_ip = "10.0.0.1",
          .op = gridftp::Operation::kRead};
}

bool time_sorted(const std::vector<Observation>& series) {
  return std::is_sorted(
      series.begin(), series.end(),
      [](const Observation& a, const Observation& b) { return a.time < b.time; });
}

TEST(HistoryStoreThreadStressTest, ConcurrentIngestAndSnapshotQueries) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kSharedKeys = 4;
  constexpr int kAppendsPerWriter = 3000;

  HistoryStore store(StoreConfig{.shard_count = 8, .instrumented = false});
  std::atomic<bool> done{false};
  std::atomic<std::size_t> snapshots_checked{0};

  // Writers interleave on a small shared key set with per-writer time
  // bases, so out-of-order inserts (and, with snapshots outstanding,
  // copy-on-write) happen constantly.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        const Observation obs{.time = 1000.0 + i * 10.0 + w,
                              .value = 1e6 * (1 + w),
                              .file_size = 10 * kMB};
        store.append(key_for((w + i) % kSharedKeys), obs);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &snapshots_checked, r] {
      std::size_t checked = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = store.snapshot(key_for(r % kSharedKeys));
        if (snap) {
          // A snapshot must be internally consistent no matter what the
          // writers are doing: time-ordered, stable size, readable end
          // to end.
          ASSERT_TRUE(time_sorted(snap.observations()));
          ASSERT_EQ(snap.size(), snap.observations().size());
          ++checked;
        }
        // Cross-shard reads race the appends too.
        const auto keys = store.keys();
        ASSERT_LE(keys.size(), static_cast<std::size_t>(kSharedKeys));
        store.total_observations();
        store.shard_stats();
      }
      snapshots_checked.fetch_add(checked, std::memory_order_relaxed);
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(store.total_observations(),
            static_cast<std::size_t>(kWriters) * kAppendsPerWriter);
  EXPECT_EQ(store.series_count(), static_cast<std::size_t>(kSharedKeys));
  for (int k = 0; k < kSharedKeys; ++k) {
    EXPECT_TRUE(time_sorted(store.snapshot(key_for(k)).observations()));
  }
  EXPECT_GT(snapshots_checked.load(), 0u);
}

TEST(HistoryStoreThreadStressTest, RetentionUnderConcurrentIngest) {
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 2000;
  static constexpr std::size_t kCap = 128;

  HistoryStore store(StoreConfig{.shard_count = 4,
                                 .max_observations_per_series = kCap,
                                 .instrumented = false});
  const SeriesKey key = key_for(0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &key, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        store.append(key, Observation{.time = i * 5.0 + w, .value = 1e6,
                                      .file_size = kMB});
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&store, &key, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = store.snapshot(key);
      if (snap) {
        ASSERT_LE(snap.size(), kCap);
        ASSERT_TRUE(time_sorted(snap.observations()));
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Batch eviction trims below the cap, never above it; every append
  // is either retained or accounted for in the evicted counter.
  const auto snap = store.snapshot(key);
  EXPECT_LE(snap.size(), kCap);
  EXPECT_GT(snap.size(), kCap - kCap / 4);
  EXPECT_EQ(snap.size() + snap.evicted(),
            static_cast<std::uint64_t>(kWriters) * kAppendsPerWriter);
}

TEST(HistoryStoreThreadStressTest, LastSnapshotLeavingMidCloneKeepsItFrozen) {
  // A snapshot pins the series, so both writers' first appends clone it
  // with the shard lock dropped; the snapshot then leaves while a clone
  // is still reading.  Neither writer may now append in place to the
  // vector the other is copying (TSan reports it as a race).  A large
  // series keeps each clone in flight for milliseconds, and each round
  // drops the snapshot after a different delay to land inside one.
  constexpr int kPrefill = 200'000;
  constexpr int kAppendsPerWriter = 50;
  const int delays_us[] = {0, 100, 300, 1000, 3000};

  HistoryStore store(StoreConfig{.shard_count = 1, .instrumented = false});
  const SeriesKey key = key_for(0);
  std::atomic<int> next_time{0};
  const auto append_next = [&store, &key, &next_time] {
    const int t = next_time.fetch_add(1, std::memory_order_relaxed);
    store.append(key, Observation{.time = static_cast<double>(t),
                                  .value = 1e6 + t,
                                  .file_size = kMB});
  };
  for (int i = 0; i < kPrefill; ++i) append_next();

  for (const int delay_us : delays_us) {
    auto snap = store.snapshot(key);
    ASSERT_TRUE(snap);
    std::atomic<int> started{0};
    const auto writer = [&append_next, &started] {
      started.fetch_add(1, std::memory_order_release);
      for (int i = 0; i < kAppendsPerWriter; ++i) append_next();
    };
    std::thread a(writer);
    std::thread b(writer);
    while (started.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    const std::size_t frozen_size = snap.size();
    EXPECT_TRUE(time_sorted(snap.observations()));
    snap = SeriesSnapshot{};  // the last reader leaves
    a.join();
    b.join();
    EXPECT_GE(store.snapshot(key).size(), frozen_size);
  }

  // Every append landed exactly once, at its own time and value.
  const auto final_snap = store.snapshot(key);
  const auto& series = final_snap.observations();
  ASSERT_EQ(series.size(), static_cast<std::size_t>(next_time.load()));
  for (std::size_t i = 0; i < series.size(); ++i) {
    ASSERT_EQ(series[i].time, static_cast<double>(i));
    ASSERT_EQ(series[i].value, 1e6 + static_cast<double>(i));
  }
}

TEST(ServiceThreadStressTest, PredictWhileIngesting) {
  constexpr int kIngestThreads = 4;
  constexpr int kQueryThreads = 4;
  constexpr int kRecordsPerThread = 400;

  auto store = std::make_shared<HistoryStore>(
      StoreConfig{.shard_count = 8, .instrumented = false});
  core::PredictionService service(store);
  const core::SeriesKey key{.host = "h", .remote_ip = "r",
                            .op = gridftp::Operation::kRead};

  std::vector<std::thread> producers;
  for (int t = 0; t < kIngestThreads; ++t) {
    producers.emplace_back([&service, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        gridftp::TransferRecord r;
        r.host = "h";
        r.source_ip = "r";
        r.file_name = "/v/f";
        r.file_size = 100 * kMB;
        r.volume = "/v";
        r.end_time = 1000.0 + i * 20.0 + t;
        r.start_time = r.end_time - 10.0;
        r.op = gridftp::Operation::kRead;
        r.streams = 8;
        r.tcp_buffer = 1'000'000;
        service.ingest(r);
      }
    });
  }

  std::atomic<bool> done{false};
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < kQueryThreads; ++t) {
    consumers.emplace_back([&service, &key, &done, &answered] {
      while (!done.load(std::memory_order_acquire)) {
        const auto snapshot = service.series(key);
        const SimTime now = snapshot ? snapshot.back().time + 1.0 : 1.0;
        if (service.predict(key, 100 * kMB, now)) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        service.series_keys();
      }
    });
  }

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();

  EXPECT_EQ(service.total_observations(),
            static_cast<std::size_t>(kIngestThreads) * kRecordsPerThread);
  const auto snapshot = service.series(key);
  ASSERT_TRUE(snapshot.valid());
  EXPECT_TRUE(time_sorted(snapshot.observations()));
  // The final, quiescent query must answer.
  EXPECT_TRUE(
      service.predict(key, 100 * kMB, snapshot.back().time + 1.0).has_value());
}

}  // namespace
}  // namespace wadp::history
