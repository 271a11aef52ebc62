// Striped transfers: multiple data movers at one site serving slices of
// one file (the GridFTP striping extension of the paper's ref [2]).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "gridftp/client.hpp"
#include "gridftp/server.hpp"
#include "net/fabric.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "sim/simulator.hpp"
#include "storage/storage.hpp"

namespace wadp::gridftp {
namespace {

storage::StorageParams slow_disk(Bandwidth read_rate) {
  storage::StorageParams p;
  p.read_rate = read_rate;
  p.write_rate = read_rate;
  p.local_load.reset();
  return p;
}

net::PathParams fat_quiet_path() {
  net::PathParams p;
  p.bottleneck = 80'000'000.0;  // OC-12-class: storage becomes the binder
  p.rtt = 0.05;
  p.load.base = 0.0;
  p.load.diurnal_amplitude = 0.0;
  p.load.ar_sigma = 0.0;
  p.load.episode_rate_per_hour = 0.0;
  return p;
}

/// A striped site: N movers, each with a slow disk, plus a client site.
struct StripedWorld {
  sim::Simulator sim{998'000'000.0};
  net::FluidEngine engine{sim};
  net::Topology topology;
  storage::StorageSystem client_store{"dst", slow_disk(200e6), 99,
                                      998'000'000.0};
  std::vector<std::unique_ptr<storage::StorageSystem>> stores;
  std::vector<std::unique_ptr<GridFtpServer>> movers;
  GridFtpClient client{sim, engine, topology, "dst", "10.0.0.9",
                       &client_store};

  explicit StripedWorld(int stripe_count, Bandwidth disk_rate = 10e6) {
    topology.add_path("src", "dst", fat_quiet_path(), 1, sim.now());
    topology.add_path("dst", "src", fat_quiet_path(), 2, sim.now());
    for (int i = 0; i < stripe_count; ++i) {
      stores.push_back(std::make_unique<storage::StorageSystem>(
          "src", slow_disk(disk_rate), static_cast<std::uint64_t>(i) + 1,
          sim.now()));
      ServerConfig config;
      config.site = "src";
      config.host = "mover" + std::to_string(i) + ".src.org";
      config.ip = "10.0.0." + std::to_string(i + 1);
      movers.push_back(
          std::make_unique<GridFtpServer>(config, *stores.back()));
      movers.back()->fs().add_volume("/data");
      movers.back()->fs().add_file("/data/big", 200'000'000);
    }
  }

  std::vector<GridFtpServer*> stripes() {
    std::vector<GridFtpServer*> out;
    for (auto& mover : movers) out.push_back(mover.get());
    return out;
  }
};

TEST(StripedGetTest, DeliversWholeFileAndLogsSlices) {
  StripedWorld world(4);
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->record.file_size, 200'000'000u);
  // Each mover logged exactly its slice.
  Bytes logged = 0;
  for (const auto* mover : world.stripes()) {
    ASSERT_EQ(mover->log().size(), 1u);
    logged += mover->log().records().front().file_size;
  }
  EXPECT_EQ(logged, 200'000'000u);
}

TEST(StripedGetTest, StripingAggregatesStorageBandwidth) {
  // Disks cap at 10 MB/s each on an 80 MB/s path: one mover ~10 MB/s,
  // four movers ~40 MB/s.
  StripedWorld one(1);
  StripedWorld four(4);
  std::optional<TransferOutcome> single, striped;
  one.client.striped_get(one.stripes(), "/data/big", {},
                         [&](const TransferOutcome& o) { single = o; });
  four.client.striped_get(four.stripes(), "/data/big", {},
                          [&](const TransferOutcome& o) { striped = o; });
  one.sim.run();
  four.sim.run();
  ASSERT_TRUE(single && single->ok);
  ASSERT_TRUE(striped && striped->ok);
  EXPECT_NEAR(single->record.bandwidth(), 10e6, 1.5e6);
  EXPECT_GT(striped->record.bandwidth(), 3.0 * single->record.bandwidth());
}

TEST(StripedGetTest, UnevenSizeDistributesRemainder) {
  StripedWorld world(3);
  for (auto* mover : world.stripes()) {
    mover->fs().add_file("/data/odd", 100'000'001);  // not divisible by 3
  }
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/odd", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  Bytes logged = 0;
  for (const auto* mover : world.stripes()) {
    for (const auto& r : mover->log().records()) {
      if (r.file_name == "/data/odd") logged += r.file_size;
    }
  }
  EXPECT_EQ(logged, 100'000'001u);
}

TEST(StripedGetTest, SingleStripeDegeneratesToPlainGet) {
  StripedWorld world(1);
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_EQ(outcome->record.file_size, 200'000'000u);
}

TEST(StripedGetTest, MissingFileOnAnyStripeFails) {
  StripedWorld world(3);
  world.movers[1]->fs().remove_file("/data/big");
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("550"), std::string::npos);
}

TEST(StripedGetTest, SizeMismatchAcrossStripesFails) {
  StripedWorld world(2);
  world.movers[1]->fs().add_file("/data/big", 100);  // inconsistent replica
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("551"), std::string::npos);
}

TEST(StripedGetTest, EmptyStripeListFails) {
  StripedWorld world(1);
  std::optional<TransferOutcome> outcome;
  world.client.striped_get({}, "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
}

TEST(StripedGetTest, DrainedMoverFailsWith421) {
  StripedWorld world(3);
  world.movers[2]->set_accepting(false);
  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("421"), std::string::npos);
}

TEST(StripedGetTest, RetryRidesOutAnInjectedConnectFault) {
  StripedWorld world(3);
  resilience::FaultSpec spec;
  spec.connect_failure_rate = 1.0;
  resilience::FaultInjector injector(world.sim, spec, 5);
  world.client.set_fault_injector(&injector);
  resilience::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = 5.0;
  policy.jitter = 0.0;
  world.client.set_retry_policy(policy);
  // Only the first attempt (launched at t=0, refused at ~0.55 s) draws
  // a fault; the retry after the 5 s backoff runs clean.
  world.sim.schedule_at(world.sim.now() + 1.0,
                        [&] { world.client.set_fault_injector(nullptr); });

  std::optional<TransferOutcome> outcome;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) { outcome = o; });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(outcome->record.file_size, 200'000'000u);
  for (const auto* mover : world.stripes()) EXPECT_EQ(mover->log().size(), 1u);
}

TEST(StripedGetTest, TruncationInterruptsEveryStripe) {
  StripedWorld world(4);
  resilience::FaultSpec spec;
  spec.truncation_rate = 1.0;
  spec.mean_fault_delay = 1.0;  // well inside the ~5 s data phase
  resilience::FaultInjector injector(world.sim, spec, 9);
  world.client.set_fault_injector(&injector);
  std::vector<TransferRecord> failures;
  world.client.set_failure_sink(
      [&](const TransferRecord& r) { failures.push_back(r); });

  std::optional<TransferOutcome> outcome;
  std::size_t flows_at_outcome = 99;
  world.client.striped_get(world.stripes(), "/data/big", {},
                           [&](const TransferOutcome& o) {
                             outcome = o;
                             flows_at_outcome = world.engine.active_flows();
                           });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_NE(outcome->error.find("truncated"), std::string::npos);
  // Every stripe's flow was torn down by the time the outcome arrived,
  // and no mover logged a slice.
  EXPECT_EQ(flows_at_outcome, 0u);
  for (const auto* mover : world.stripes()) EXPECT_EQ(mover->log().size(), 0u);
  // One failure record, charged to stripe 0, with the partial bytes of
  // all stripes together.
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].host, "mover0.src.org");
  EXPECT_GT(failures[0].file_size, 0u);
  EXPECT_LT(failures[0].file_size, 200'000'000u);
}

TEST(StripedGetTest, TraceHasOneStreamSpanPerStripe) {
  StripedWorld world(3);
  for (auto* mover : world.stripes()) {
    mover->fs().add_file("/data/odd", 100'000'001);
  }
  const std::uint64_t trace = obs::TraceContext::mint();
  std::optional<TransferOutcome> outcome;
  {
    const obs::ScopedTraceContext scope(trace, 0);
    world.client.striped_get(world.stripes(), "/data/odd", {},
                             [&](const TransferOutcome& o) { outcome = o; });
  }
  world.sim.run();
  ASSERT_TRUE(outcome && outcome->ok) << (outcome ? outcome->error : "");
  EXPECT_EQ(outcome->record.host, "mover0.src.org");

  std::vector<std::string> stripes;
  Bytes bytes = 0;
  for (const auto& span : obs::Tracer::global().finished()) {
    if (span.trace_id != trace || span.name != "stream") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "STRIPE") stripes.push_back(value);
      if (key == "BYTES") bytes += std::stoull(value);
    }
  }
  EXPECT_EQ(stripes, (std::vector<std::string>{"0", "1", "2"}));
  EXPECT_EQ(bytes, 100'000'001u);
}

}  // namespace
}  // namespace wadp::gridftp
