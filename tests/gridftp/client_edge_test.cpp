// Client edge cases: missing topology entries, control-RTT fallback,
// option plumbing through the protocol layer, and zero-byte transfers.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "gridftp/client.hpp"
#include "gridftp/server.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "storage/storage.hpp"

namespace wadp::gridftp {
namespace {

storage::StorageParams dedicated() {
  storage::StorageParams p;
  p.local_load.reset();
  return p;
}

net::PathParams quiet() {
  net::PathParams p;
  p.bottleneck = 10e6;
  p.rtt = 0.05;
  p.load.base = 0.0;
  p.load.diurnal_amplitude = 0.0;
  p.load.ar_sigma = 0.0;
  p.load.episode_rate_per_hour = 0.0;
  return p;
}

TEST(ClientEdgeTest, MissingDataPathReportsTopologyError) {
  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  // Only the control direction exists; data (src->dst) is missing.
  topology.add_path("dst", "src", quiet(), 1, 0.0);
  storage::StorageSystem store("src", dedicated(), 1, 0.0);
  GridFtpServer server({.site = "src", .host = "h", .ip = "1.1.1.1"}, store);
  server.fs().add_volume("/v");
  server.fs().add_file("/v/f", kMB);
  GridFtpClient client(sim, engine, topology, "dst", "2.2.2.2");

  std::optional<TransferOutcome> outcome;
  client.get(server, "/v/f", {}, [&](const TransferOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("no path"), std::string::npos);
}

TEST(ClientEdgeTest, ControlRttFallsBackToReverseDirection) {
  // Only src->dst exists: the client's control channel (dst->src)
  // borrows the reverse path's RTT; the transfer still completes.
  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  topology.add_path("src", "dst", quiet(), 1, 0.0);
  storage::StorageSystem store("src", dedicated(), 1, 0.0);
  GridFtpServer server({.site = "src", .host = "h", .ip = "1.1.1.1"}, store);
  server.fs().add_volume("/v");
  server.fs().add_file("/v/f", 5 * kMB);
  GridFtpClient client(sim, engine, topology, "dst", "2.2.2.2");

  std::optional<TransferOutcome> outcome;
  client.get(server, "/v/f", {}, [&](const TransferOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
}

TEST(ClientEdgeTest, NoPathsAtAllStillGetsDefaultControlRtt) {
  // Neither direction registered: control overhead uses the 50 ms
  // default; the data phase then fails with the topology error.
  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  storage::StorageSystem store("src", dedicated(), 1, 0.0);
  GridFtpServer server({.site = "src", .host = "h", .ip = "1.1.1.1"}, store);
  server.fs().add_volume("/v");
  server.fs().add_file("/v/f", kMB);
  GridFtpClient client(sim, engine, topology, "dst", "2.2.2.2");

  std::optional<TransferOutcome> outcome;
  client.get(server, "/v/f", {}, [&](const TransferOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_GT(outcome->control_overhead, 0.0);
}

TEST(ClientEdgeTest, ClientWithoutLocalStorageStillTransfers) {
  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  topology.add_path("src", "dst", quiet(), 1, 0.0);
  topology.add_path("dst", "src", quiet(), 2, 0.0);
  storage::StorageSystem store("src", dedicated(), 1, 0.0);
  GridFtpServer server({.site = "src", .host = "h", .ip = "1.1.1.1"}, store);
  server.fs().add_volume("/v");
  server.fs().add_file("/v/f", 10 * kMB);
  GridFtpClient client(sim, engine, topology, "dst", "2.2.2.2",
                       /*local_storage=*/nullptr);
  std::optional<TransferOutcome> outcome;
  client.get(server, "/v/f", {}, [&](const TransferOutcome& o) { outcome = o; });
  sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
}

/// Two servers at "src" (the second on its own disk) and a client at
/// "dst", with every failed attempt's record captured from the sink.
struct ZeroByteWorld {
  sim::Simulator sim{0.0};
  net::FluidEngine engine{sim};
  net::Topology topology;
  storage::StorageSystem store_a{"src", dedicated(), 1, 0.0};
  storage::StorageSystem store_b{"src", dedicated(), 2, 0.0};
  GridFtpServer a{{.site = "src", .host = "a", .ip = "1.1.1.1"}, store_a};
  GridFtpServer b{{.site = "src", .host = "b", .ip = "1.1.1.2"}, store_b};
  GridFtpClient client{sim, engine, topology, "dst", "2.2.2.2"};
  std::vector<TransferRecord> failures;
  std::optional<TransferOutcome> outcome;

  ZeroByteWorld() {
    topology.add_path("src", "dst", quiet(), 1, 0.0);
    topology.add_path("dst", "src", quiet(), 2, 0.0);
    topology.add_path("src", "src", quiet(), 3, 0.0);
    for (GridFtpServer* server : {&a, &b}) {
      server->fs().add_volume("/v");
      server->fs().add_file("/v/empty", 0);
      server->fs().add_file("/v/one", 1);
    }
    client.set_failure_sink(
        [this](const TransferRecord& r) { failures.push_back(r); });
  }

  TransferCallback capture() {
    return [this](const TransferOutcome& o) { outcome = o; };
  }

  /// The outcome is a 5xx failure that left no flow behind and pushed
  /// exactly one outcome-tagged record.
  void expect_refused() {
    sim.run();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->ok);
    ASSERT_FALSE(outcome->error.empty());
    EXPECT_EQ(outcome->error.front(), '5') << outcome->error;
    EXPECT_EQ(engine.active_flows(), 0u);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_FALSE(failures.front().ok);
    EXPECT_EQ(failures.front().host, "a");
  }
};

TEST(ClientEdgeTest, GetOfEmptyFileFailsWithoutStartingAFlow) {
  ZeroByteWorld w;
  w.client.get(w.a, "/v/empty", {}, w.capture());
  w.expect_refused();
  EXPECT_EQ(w.a.log().size(), 0u);
}

TEST(ClientEdgeTest, ThirdPartyFromEmptyFileFailsWithoutStartingAFlow) {
  ZeroByteWorld w;
  w.client.third_party(w.a, w.b, "/v/empty", "/v/copy", {}, w.capture());
  w.expect_refused();
  EXPECT_FALSE(w.b.fs().exists("/v/copy"));
}

TEST(ClientEdgeTest, StripedOneByteOverTwoStripesFails) {
  ZeroByteWorld w;
  w.client.striped_get({&w.a, &w.b}, "/v/one", {}, w.capture());
  w.expect_refused();
  EXPECT_EQ(w.a.log().size() + w.b.log().size(), 0u);
}

}  // namespace
}  // namespace wadp::gridftp
