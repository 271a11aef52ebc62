// End-to-end failover: broker ranking -> client transfer -> fall
// through to the next-best replica, with cooldown feedback in between.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "mds/gridftp_provider.hpp"
#include "net/fabric.hpp"
#include "replica/fetcher.hpp"

namespace wadp::replica {
namespace {

using gridftp::GridFtpServer;
using gridftp::Operation;

storage::StorageParams dedicated() {
  storage::StorageParams p;
  p.local_load.reset();
  return p;
}

net::PathParams quiet(Bandwidth bottleneck) {
  net::PathParams p;
  p.bottleneck = bottleneck;
  p.rtt = 0.05;
  p.load.base = 0.0;
  p.load.diurnal_amplitude = 0.0;
  p.load.ar_sigma = 0.0;
  p.load.episode_rate_per_hour = 0.0;
  return p;
}

/// Client at ANL choosing between an LBL replica (fast: 8 MB/s
/// published, 10 MB/s path) and an ISI one (slow: 2 MB/s published,
/// 5 MB/s path).
struct FetcherFixture : ::testing::Test {
  const std::string client_ip = "140.221.65.69";
  const Bytes file_size = 10 * kMB;
  sim::Simulator sim{0.0};
  net::FluidEngine engine{sim};
  net::Topology topology;
  storage::StorageSystem anl_store{"anl", dedicated(), 1, 0.0};
  storage::StorageSystem lbl_store{"lbl", dedicated(), 2, 0.0};
  storage::StorageSystem isi_store{"isi", dedicated(), 3, 0.0};
  GridFtpServer lbl{{.site = "lbl", .host = "dpsslx04.lbl.gov",
                     .ip = "131.243.2.91"},
                    lbl_store};
  GridFtpServer isi{{.site = "isi", .host = "jet.isi.edu",
                     .ip = "128.9.160.100"},
                    isi_store};
  mds::GridFtpInfoProvider lbl_provider{
      lbl,
      {.base = *mds::Dn::parse("hostname=dpsslx04.lbl.gov, dc=lbl, o=grid")}};
  mds::GridFtpInfoProvider isi_provider{
      isi, {.base = *mds::Dn::parse("hostname=jet.isi.edu, dc=isi, o=grid")}};
  mds::Gris lbl_gris{"lbl-gris", *mds::Dn::parse("dc=lbl, o=grid")};
  mds::Gris isi_gris{"isi-gris", *mds::Dn::parse("dc=isi, o=grid")};
  mds::Giis giis{"top"};
  ReplicaCatalog catalog;
  gridftp::GridFtpClient client{sim,   engine,    topology,
                                "anl", client_ip, &anl_store};
  ReplicaBroker broker{catalog, giis, SelectionPolicy::kPredictedBest};
  bool lbl_resolvable = true;
  FailoverFetcher fetcher{sim, broker, client,
                          [this](const PhysicalReplica& replica) {
                            return resolve(replica);
                          }};

  GridFtpServer* resolve(const PhysicalReplica& replica) {
    if (replica.site == "lbl") return lbl_resolvable ? &lbl : nullptr;
    if (replica.site == "isi") return &isi;
    return nullptr;
  }

  void SetUp() override {
    topology.add_path("lbl", "anl", quiet(10'000'000.0), 1, 0.0);
    topology.add_path("anl", "lbl", quiet(10'000'000.0), 2, 0.0);
    topology.add_path("isi", "anl", quiet(5'000'000.0), 3, 0.0);
    topology.add_path("anl", "isi", quiet(5'000'000.0), 4, 0.0);
    for (GridFtpServer* s : {&lbl, &isi}) {
      s->fs().add_volume("/data");
      s->fs().add_file("/data/run42", file_size);
    }
    // Published history: LBL 8 MB/s to the client, ISI 2 MB/s.
    for (int i = 0; i < 5; ++i) {
      const double t = 100.0 * i;
      lbl.record_transfer(client_ip, "/data/run42", file_size, t, t + 1.25,
                          Operation::kRead, 8, 1'000'000);
      isi.record_transfer(client_ip, "/data/run42", file_size, t, t + 5.0,
                          Operation::kRead, 8, 1'000'000);
    }
    lbl_gris.register_provider(&lbl_provider, 300.0);
    isi_gris.register_provider(&isi_provider, 300.0);
    giis.register_gris(lbl_gris, 0.0, 1e6);
    giis.register_gris(isi_gris, 0.0, 1e6);
    catalog.add_replica("lfn://run42",
                        {.site = "lbl", .server_host = "dpsslx04.lbl.gov",
                         .path = "/data/run42"});
    catalog.add_replica("lfn://run42",
                        {.site = "isi", .server_host = "jet.isi.edu",
                         .path = "/data/run42"});
  }

  std::optional<FetchOutcome> fetch_at(SimTime when, FetchOptions options = {}) {
    std::optional<FetchOutcome> outcome;
    sim.schedule_at(when, [this, options, &outcome] {
      fetcher.fetch("lfn://run42", file_size, options,
                    [&outcome](const FetchOutcome& o) { outcome = o; });
    });
    sim.run();
    return outcome;
  }
};

TEST_F(FetcherFixture, FetchesFromThePredictedBestReplica) {
  const auto outcome = fetch_at(0.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->failovers, 0);
  ASSERT_TRUE(outcome->selection.has_value());
  EXPECT_EQ(outcome->selection->replica.site, "lbl");
  EXPECT_TRUE(outcome->selection->informed);
}

TEST_F(FetcherFixture, FailsOverToTheNextBestReplica) {
  lbl.set_accepting(false);
  const auto outcome = fetch_at(0.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->failovers, 1);
  ASSERT_EQ(outcome->failed.size(), 1u);
  EXPECT_EQ(outcome->failed[0].site, "lbl");
  ASSERT_TRUE(outcome->selection.has_value());
  EXPECT_EQ(outcome->selection->replica.site, "isi");
  EXPECT_TRUE(outcome->transfer.ok);
  // The failure opened a cooldown window for the dead server.
  EXPECT_EQ(broker.cooldowns().consecutive_failures("dpsslx04.lbl.gov"), 1);
}

TEST_F(FetcherFixture, MissingFileFailsOverWithoutCoolingTheHost) {
  ASSERT_TRUE(lbl.fs().remove_file("/data/run42"));
  const auto outcome = fetch_at(0.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->failovers, 1);
  ASSERT_EQ(outcome->failed.size(), 1u);
  EXPECT_EQ(outcome->failed[0].site, "lbl");
  EXPECT_EQ(outcome->selection->replica.site, "isi");
  // The host answered; only this replica lacks the file.
  EXPECT_EQ(broker.cooldowns().consecutive_failures("dpsslx04.lbl.gov"), 0);
}

TEST_F(FetcherFixture, CooldownShieldsARecoveredServerUntilExpiry) {
  lbl.set_accepting(false);
  ASSERT_TRUE(fetch_at(0.0)->ok);  // failover; LBL enters cooldown
  lbl.set_accepting(true);

  // LBL is back but still cooling: the broker routes around it without
  // spending a failover.
  const auto during = fetch_at(10.0);
  ASSERT_TRUE(during.has_value());
  EXPECT_TRUE(during->ok) << during->error;
  EXPECT_EQ(during->failovers, 0);
  EXPECT_EQ(during->selection->replica.site, "isi");

  const SimTime expiry = broker.cooldowns().available_at("dpsslx04.lbl.gov");
  const auto after = fetch_at(std::max(expiry, sim.now()) + 1.0);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(after->ok) << after->error;
  EXPECT_EQ(after->selection->replica.site, "lbl");
}

TEST_F(FetcherFixture, ExhaustionReportsEveryFailedReplica) {
  lbl.set_accepting(false);
  isi.set_accepting(false);
  const auto outcome = fetch_at(0.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->failovers, 2);
  ASSERT_EQ(outcome->failed.size(), 2u);
  EXPECT_EQ(outcome->failed[0].site, "lbl");
  EXPECT_EQ(outcome->failed[1].site, "isi");
  EXPECT_FALSE(outcome->error.empty());
}

TEST_F(FetcherFixture, ReplicaBudgetCapsTheLoop) {
  lbl.set_accepting(false);
  isi.set_accepting(false);
  FetchOptions options;
  options.max_replicas = 1;
  const auto outcome = fetch_at(0.0, options);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->failovers, 1);
  ASSERT_EQ(outcome->failed.size(), 1u);
  EXPECT_EQ(outcome->failed[0].site, "lbl");
}

TEST_F(FetcherFixture, UnresolvableReplicaCountsAsAFailover) {
  // Catalog/deployment mismatch: the replica exists on paper only.
  lbl_resolvable = false;
  const auto outcome = fetch_at(0.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok) << outcome->error;
  EXPECT_EQ(outcome->failovers, 1);
  ASSERT_EQ(outcome->failed.size(), 1u);
  EXPECT_EQ(outcome->failed[0].site, "lbl");
  EXPECT_EQ(outcome->selection->replica.site, "isi");
}

}  // namespace
}  // namespace wadp::replica
