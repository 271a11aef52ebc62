// Retry/backoff, per-attempt timeout, fault realization, and the
// failure-path audit: every failed attempt bumps exactly one outcome
// counter, closes its data channel, and produces one outcome-tagged
// record for the history plane.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "gridftp/client.hpp"
#include "gridftp/server.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "sim/simulator.hpp"
#include "storage/storage.hpp"

namespace wadp::gridftp {
namespace {

std::uint64_t outcome_count(const char* result) {
  return obs::Registry::global()
      .counter("wadp_client_transfers_total", {{"result", result}},
               "Client-driven transfer operations by outcome")
      .value();
}

/// Two-site world with quiet, deterministic paths (the
/// client_server_test fixture, plus resilience hooks).
struct World {
  sim::Simulator sim{0.0};
  net::FluidEngine engine{sim};
  net::Topology topology;
  storage::StorageSystem src_storage{"src", dedicated(), 1, 0.0};
  storage::StorageSystem dst_storage{"dst", dedicated(), 2, 0.0};
  GridFtpServer server;
  GridFtpClient client;
  std::vector<TransferRecord> failures;  // what the sink received

  static storage::StorageParams dedicated() {
    storage::StorageParams p;
    p.local_load.reset();
    return p;
  }

  static net::PathParams quiet() {
    net::PathParams p;
    p.bottleneck = 10'000'000.0;
    p.rtt = 0.05;
    p.load.base = 0.0;
    p.load.diurnal_amplitude = 0.0;
    p.load.ar_sigma = 0.0;
    p.load.episode_rate_per_hour = 0.0;
    return p;
  }

  World()
      : server({.site = "src", .host = "ftp.src.org", .ip = "10.0.0.1"},
               src_storage),
        client(sim, engine, topology, "dst", "10.0.0.2", &dst_storage) {
    topology.add_path("src", "dst", quiet(), 1, sim.now());
    topology.add_path("dst", "src", quiet(), 2, sim.now());
    server.fs().add_volume("/home/ftp");
    server.fs().add_file("/home/ftp/data/10 MB", 10'000'000);
    client.set_failure_sink(
        [this](const TransferRecord& r) { failures.push_back(r); });
  }

  std::optional<TransferOutcome> get() {
    std::optional<TransferOutcome> outcome;
    client.get(server, "/home/ftp/data/10 MB", {},
               [&](const TransferOutcome& o) { outcome = o; });
    sim.run();
    return outcome;
  }
};

resilience::RetryPolicy quick_retries(int attempts) {
  resilience::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_backoff = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 60.0;
  policy.jitter = 0.0;
  return policy;
}

TEST(ClientRetryTest, SuccessIsOneAttempt) {
  World w;
  w.client.set_retry_policy(quick_retries(4));
  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_TRUE(w.failures.empty());
}

TEST(ClientRetryTest, RetriesRideOutAServerOutage) {
  World w;
  w.client.set_retry_policy(quick_retries(4));
  w.server.set_accepting(false);
  w.sim.schedule_at(4.0, [&] { w.server.set_accepting(true); });

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  // Attempt 1 hits the 421 at control setup (~0.55 s); the 5 s backoff
  // lands attempt 2 after the outage ends at t=4.
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(w.server.log().size(), 1u);  // only the success is logged
  // The failed attempt reached the sink, outcome-tagged.
  ASSERT_EQ(w.failures.size(), 1u);
  EXPECT_FALSE(w.failures[0].ok);
  EXPECT_EQ(w.failures[0].host, "ftp.src.org");
  EXPECT_EQ(w.failures[0].source_ip, "10.0.0.2");
  EXPECT_EQ(w.failures[0].file_size, 0u);
  EXPECT_GT(w.failures[0].total_time(), 0.0);
}

TEST(ClientRetryTest, SingleShotKeepsPreResilienceBehaviour) {
  World w;  // default policy: max_attempts = 1
  w.server.set_accepting(false);
  const std::uint64_t fails_before = outcome_count("fail");
  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_EQ(outcome_count("fail"), fails_before + 1);
}

TEST(ClientRetryTest, ExhaustionReportsEveryAttempt) {
  World w;
  w.client.set_retry_policy(quick_retries(3));
  w.server.set_accepting(false);  // permanently down
  const std::uint64_t fails_before = outcome_count("fail");

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->attempts, 3);
  // Exactly one fail counter bump and one sink record per attempt.
  EXPECT_EQ(outcome_count("fail"), fails_before + 3);
  EXPECT_EQ(w.failures.size(), 3u);
  for (const auto& record : w.failures) {
    EXPECT_FALSE(record.ok);
    EXPECT_GT(record.total_time(), 0.0);  // bandwidth() stays callable
  }
}

TEST(ClientRetryTest, PermanentRefusalIsNotRetried) {
  // A missing file draws "550 no such file" on every attempt: retrying
  // only burns the budget and pushes duplicate failure records.
  World w;
  w.client.set_retry_policy(resilience::default_wan_policy());
  std::optional<TransferOutcome> outcome;
  w.client.get(w.server, "/home/ftp/data/missing", {},
               [&](const TransferOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error.substr(0, 3), "550");
  EXPECT_EQ(outcome->failure, FailureClass::kPermanent);
  EXPECT_EQ(outcome->attempts, 1);
  EXPECT_EQ(w.failures.size(), 1u);
  EXPECT_LT(w.sim.now(), 1.0);  // control setup only, no backoff
}

TEST(ClientRetryTest, FailureClassFollowsTheReplyCode) {
  EXPECT_EQ(classify_failure("550 no such file: /x"),
            FailureClass::kPermanent);
  EXPECT_EQ(classify_failure("551 stripe size mismatch"),
            FailureClass::kPermanent);
  EXPECT_EQ(classify_failure("501 stripes span sites"),
            FailureClass::kPermanent);
  EXPECT_EQ(classify_failure("421 connection refused (injected fault)"),
            FailureClass::kTransient);
  EXPECT_EQ(classify_failure("426 attempt timed out after 60 s"),
            FailureClass::kTransient);
  EXPECT_EQ(classify_failure("no path a -> b in topology"),
            FailureClass::kTransient);

  World w;  // a transient outage outcome carries its class too
  w.server.set_accepting(false);
  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->failure, FailureClass::kTransient);
}

TEST(ClientRetryTest, RetryBudgetStopsEarly) {
  World w;
  auto policy = quick_retries(10);  // backoffs 5, 10, 20, 40...
  policy.retry_budget = 12.0;       // allows 5 + 10? no: 5, then 10 > 7 left
  w.client.set_retry_policy(policy);
  w.server.set_accepting(false);

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  // Attempt 1 fails, 5 s backoff (budget 5/12), attempt 2 fails, next
  // backoff 10 s would take the total to 15 > 12: stop at 2 attempts.
  EXPECT_EQ(outcome->attempts, 2);
}

TEST(ClientRetryTest, BackoffSpacingFollowsThePolicy) {
  World w;
  w.client.set_retry_policy(quick_retries(3));
  w.server.set_accepting(false);
  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(w.failures.size(), 3u);
  // Jitter is 0: each retry starts exactly one backoff (5 s then 10 s)
  // after the previous attempt resolved.
  EXPECT_NEAR(w.failures[1].start_time, w.failures[0].end_time + 5.0, 1e-6);
  EXPECT_NEAR(w.failures[2].start_time, w.failures[1].end_time + 10.0, 1e-6);
}

TEST(ClientRetryTest, InjectedConnectFaultsAreRetried) {
  World w;
  resilience::FaultSpec spec;
  spec.connect_failure_rate = 1.0;  // every attempt refused
  resilience::FaultInjector injector(w.sim, spec, 5);
  w.client.set_fault_injector(&injector);
  w.client.set_retry_policy(quick_retries(2));

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_NE(outcome->error.find("injected"), std::string::npos);
  EXPECT_EQ(injector.faults_injected(), 2u);
}

TEST(ClientRetryTest, TruncationKeepsPartialBytesInTheFailureRecord) {
  World w;
  resilience::FaultSpec spec;
  spec.truncation_rate = 1.0;
  spec.mean_fault_delay = 2.0;  // a couple of seconds into the data phase
  resilience::FaultInjector injector(w.sim, spec, 9);
  w.client.set_fault_injector(&injector);

  const std::uint64_t fails_before = outcome_count("fail");
  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("truncated"), std::string::npos);
  EXPECT_EQ(outcome_count("fail"), fails_before + 1);
  ASSERT_EQ(w.failures.size(), 1u);
  const auto& record = w.failures[0];
  EXPECT_FALSE(record.ok);
  // The channel was up for part of the transfer: some bytes moved, but
  // not all 10 MB.
  EXPECT_GT(record.file_size, 0u);
  EXPECT_LT(record.file_size, 10'000'000u);
  // Partial records stay serializable and re-parseable (times round to
  // the log's millisecond precision).
  const auto round_trip = TransferRecord::from_ulm(record.to_ulm());
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_FALSE(round_trip->ok);
  EXPECT_EQ(round_trip->host, record.host);
  EXPECT_EQ(round_trip->file_size, record.file_size);
  EXPECT_EQ(round_trip->op, record.op);
  EXPECT_NEAR(round_trip->start_time, record.start_time, 1e-3);
  EXPECT_NEAR(round_trip->end_time, record.end_time, 1e-3);
  EXPECT_EQ(w.server.log().size(), 0u);  // the server never logged it
}

TEST(ClientRetryTest, StallIsOnlyResolvedByTheAttemptTimeout) {
  World w;
  resilience::FaultSpec spec;
  spec.stall_rate = 1.0;
  spec.mean_fault_delay = 0.3;
  resilience::FaultInjector injector(w.sim, spec, 13);
  w.client.set_fault_injector(&injector);
  auto policy = quick_retries(1);  // single attempt, but with a timeout
  policy.max_attempts = 1;
  policy.attempt_timeout = 30.0;
  w.client.set_retry_policy(policy);

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("timed out"), std::string::npos);
  // Resolved at exactly the timeout, not at natural completion.
  EXPECT_NEAR(w.sim.now(), 30.0, 1e-6);
  ASSERT_EQ(w.failures.size(), 1u);
  EXPECT_LT(w.failures[0].file_size, 10'000'000u);
}

TEST(ClientRetryTest, RepeatedStallsTimeOutEveryAttempt) {
  World w;
  // Rate 1 with 2 attempts and a timeout: both attempts stall, proving
  // the per-attempt timeout re-arms across retries.
  resilience::FaultSpec always;
  always.stall_rate = 1.0;
  always.mean_fault_delay = 0.3;
  resilience::FaultInjector stall_injector(w.sim, always, 21);
  w.client.set_fault_injector(&stall_injector);
  auto policy = quick_retries(2);
  policy.attempt_timeout = 20.0;
  w.client.set_retry_policy(policy);

  const auto outcome = w.get();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(w.failures.size(), 2u);
  // Two timeouts plus one backoff: 20 + 5 + 20.
  EXPECT_NEAR(w.sim.now(), 45.0, 1e-6);
}

TEST(ClientRetryTest, TopologyMissIsACountedFailure) {
  // A missing path used to bypass the outcome counter entirely.
  sim::Simulator sim{0.0};
  net::FluidEngine engine{sim};
  net::Topology empty;
  storage::StorageSystem store{"src", World::dedicated(), 1, 0.0};
  GridFtpServer server({.site = "src", .host = "ftp.src.org",
                        .ip = "10.0.0.1"},
                       store);
  server.fs().add_volume("/home/ftp");
  server.fs().add_file("/home/ftp/x", 1'000'000);
  GridFtpClient client(sim, engine, empty, "dst", "10.0.0.2");

  const std::uint64_t fails_before = outcome_count("fail");
  std::optional<TransferOutcome> outcome;
  client.get(server, "/home/ftp/x", {},
             [&](const TransferOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("no path"), std::string::npos);
  EXPECT_EQ(outcome_count("fail"), fails_before + 1);
}

TEST(ClientRetryTest, PutFailuresAreTaggedAsWrites) {
  World w;
  w.client.set_retry_policy(quick_retries(2));
  w.server.set_accepting(false);
  std::optional<TransferOutcome> outcome;
  w.client.put(w.server, "/home/ftp/out.dat", 5'000'000, {},
               [&](const TransferOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->attempts, 2);
  ASSERT_EQ(w.failures.size(), 2u);
  EXPECT_EQ(w.failures[0].op, Operation::kWrite);
  EXPECT_EQ(w.failures[0].file_name, "/home/ftp/out.dat");
}

}  // namespace
}  // namespace wadp::gridftp
