#include "replica/broker.hpp"

#include <gtest/gtest.h>

#include <set>

#include "mds/gridftp_provider.hpp"

namespace wadp::replica {
namespace {

using gridftp::GridFtpServer;
using gridftp::Operation;

storage::StorageParams dedicated() {
  storage::StorageParams p;
  p.local_load.reset();
  return p;
}

/// Two replica sites publishing real log-derived performance into a
/// GIIS: LBL is consistently fast to the client, ISI slow.
struct BrokerFixture : ::testing::Test {
  const std::string client_ip = "140.221.65.69";
  storage::StorageSystem lbl_store{"lbl", dedicated(), 1, 0.0};
  storage::StorageSystem isi_store{"isi", dedicated(), 2, 0.0};
  GridFtpServer lbl{{.site = "lbl", .host = "dpsslx04.lbl.gov",
                     .ip = "131.243.2.91"},
                    lbl_store};
  GridFtpServer isi{{.site = "isi", .host = "jet.isi.edu",
                     .ip = "128.9.160.100"},
                    isi_store};
  mds::GridFtpInfoProvider lbl_provider{
      lbl, {.base = *mds::Dn::parse("hostname=dpsslx04.lbl.gov, dc=lbl, o=grid")}};
  mds::GridFtpInfoProvider isi_provider{
      isi, {.base = *mds::Dn::parse("hostname=jet.isi.edu, dc=isi, o=grid")}};
  mds::Gris lbl_gris{"lbl-gris", *mds::Dn::parse("dc=lbl, o=grid")};
  mds::Gris isi_gris{"isi-gris", *mds::Dn::parse("dc=isi, o=grid")};
  mds::Giis giis{"top"};
  ReplicaCatalog catalog;

  void SetUp() override {
    for (GridFtpServer* s : {&lbl, &isi}) {
      s->fs().add_volume("/data");
      s->fs().add_file("/data/run42", 500 * kMB);
    }
    // LBL history: 8 MB/s reads of a 500 MB-class file to the client.
    double t = 1000.0;
    for (int i = 0; i < 5; ++i) {
      lbl.record_transfer(client_ip, "/data/run42", 500 * kMB, t, t + 62.5,
                          Operation::kRead, 8, 1'000'000);
      t += 500.0;
    }
    // ISI history: 2 MB/s.
    t = 1200.0;
    for (int i = 0; i < 5; ++i) {
      isi.record_transfer(client_ip, "/data/run42", 500 * kMB, t, t + 250.0,
                          Operation::kRead, 8, 1'000'000);
      t += 500.0;
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
};

TEST_F(BrokerFixture, PredictedBestPicksFasterSite) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kPredictedBest);
  const auto selection =
      broker.select("lfn://run42", client_ip, 500 * kMB, 5000.0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_TRUE(selection->informed);
  EXPECT_EQ(selection->replica.site, "lbl");
  ASSERT_TRUE(selection->predicted_bandwidth.has_value());
  EXPECT_NEAR(*selection->predicted_bandwidth, 8'000'000.0, 100'000.0);
}

TEST_F(BrokerFixture, UnknownLogicalNameIsNullopt) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kPredictedBest);
  EXPECT_FALSE(broker.select("lfn://nope", client_ip, kMB, 0.0).has_value());
}

TEST_F(BrokerFixture, UnknownClientFallsBackUninformed) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kPredictedBest);
  const auto selection =
      broker.select("lfn://run42", "9.9.9.9", 500 * kMB, 5000.0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_FALSE(selection->informed);
  EXPECT_EQ(selection->replica.site, "lbl");  // first registered
}

TEST_F(BrokerFixture, ClassFallsBackToOverallAverage) {
  // No 10MB-class history exists; prediction falls back to the overall
  // read average, which still favours LBL.
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kPredictedBest);
  const auto selection =
      broker.select("lfn://run42", client_ip, 10 * kMB, 5000.0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_TRUE(selection->informed);
  EXPECT_EQ(selection->replica.site, "lbl");
}

TEST_F(BrokerFixture, HistoryFallbackAnswersWhenGiisIsEmpty) {
  // Provider never refreshed / registration lapsed: an empty GIIS has
  // nothing published.  With the history plane bound, the broker reads
  // store snapshots directly and still makes an informed choice.
  mds::Giis empty_giis{"empty"};
  history::HistoryStore store(
      history::StoreConfig{.instrumented = false});
  store.ingest_log(lbl.log());
  store.ingest_log(isi.log());

  ReplicaBroker blind(catalog, empty_giis, SelectionPolicy::kPredictedBest);
  const auto uninformed =
      blind.select("lfn://run42", client_ip, 500 * kMB, 5000.0);
  ASSERT_TRUE(uninformed.has_value());
  EXPECT_FALSE(uninformed->informed);

  ReplicaBroker broker(catalog, empty_giis, SelectionPolicy::kPredictedBest);
  broker.bind_history(&store);
  const auto selection =
      broker.select("lfn://run42", client_ip, 500 * kMB, 5000.0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_TRUE(selection->informed);
  EXPECT_EQ(selection->replica.site, "lbl");
  ASSERT_TRUE(selection->predicted_bandwidth.has_value());
  EXPECT_NEAR(*selection->predicted_bandwidth, 8'000'000.0, 100'000.0);
}

TEST_F(BrokerFixture, HistoryFallbackIgnoresTheFuture) {
  // Replayed logs can hold transfers timestamped after `now`; only the
  // past may inform the choice, so at t=0 nothing has happened yet.
  mds::Giis empty_giis{"empty"};
  history::HistoryStore store(
      history::StoreConfig{.instrumented = false});
  store.ingest_log(lbl.log());
  ReplicaBroker broker(catalog, empty_giis, SelectionPolicy::kPredictedBest);
  broker.bind_history(&store);
  const auto selection = broker.select("lfn://run42", client_ip, 500 * kMB,
                                       /*now=*/0.0);
  ASSERT_TRUE(selection.has_value());
  EXPECT_FALSE(selection->informed);
}

TEST_F(BrokerFixture, HistoryFallbackSkipsFailedAttemptsLikeTheProvider) {
  // 15 completed 8 MB/s reads interleaved with same-class failed
  // attempts (1 MB/s partial rates).  The provider's classified last-15
  // mean skips the failures; the broker's history fallback must give
  // the same answer as the GIIS-published predictedrdbandwidth.
  history::HistoryStore store(history::StoreConfig{.instrumented = false});
  double t = 1000.0;
  for (int i = 0; i < 15; ++i) {
    store.append(lbl.record_transfer(client_ip, "/data/run42", 500 * kMB, t,
                                     t + 62.5, Operation::kRead, 8,
                                     1'000'000));
    t += 500.0;
    if (i % 3 == 0) {
      gridftp::TransferRecord failed;
      failed.host = "dpsslx04.lbl.gov";
      failed.source_ip = client_ip;
      failed.file_name = "/data/run42";
      failed.file_size = 300 * kMB;
      failed.volume = "-";
      failed.start_time = t;
      failed.end_time = t + 300.0;
      failed.op = Operation::kRead;
      failed.streams = 8;
      failed.tcp_buffer = 1'000'000;
      failed.ok = false;
      store.append(failed);
      t += 500.0;
    }
  }
  const SimTime now = t + 1000.0;

  mds::GridFtpInfoProvider provider{
      lbl, {.base = *mds::Dn::parse("hostname=dpsslx04.lbl.gov, dc=lbl, o=grid"),
            .history = &store}};
  mds::Gris gris{"lbl-gris", *mds::Dn::parse("dc=lbl, o=grid")};
  gris.register_provider(&provider, 300.0);
  mds::Giis published_giis{"published"};
  published_giis.register_gris(gris, 0.0, 1e6);
  ReplicaCatalog lbl_only;
  lbl_only.add_replica("lfn://run42",
                       {.site = "lbl", .server_host = "dpsslx04.lbl.gov",
                        .path = "/data/run42"});

  ReplicaBroker from_giis(lbl_only, published_giis,
                          SelectionPolicy::kPredictedBest);
  const auto published = from_giis.select("lfn://run42", client_ip,
                                          500 * kMB, now);
  mds::Giis empty_giis{"empty"};
  ReplicaBroker from_history(lbl_only, empty_giis,
                             SelectionPolicy::kPredictedBest);
  from_history.bind_history(&store);
  const auto fallback = from_history.select("lfn://run42", client_ip,
                                            500 * kMB, now);
  ASSERT_TRUE(published && published->predicted_bandwidth);
  ASSERT_TRUE(fallback && fallback->predicted_bandwidth);
  EXPECT_EQ(*published->predicted_bandwidth, 8'000'000.0);
  EXPECT_EQ(*fallback->predicted_bandwidth, *published->predicted_bandwidth);
}

TEST_F(BrokerFixture, RoundRobinRotates) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kRoundRobin);
  const auto first = broker.select("lfn://run42", client_ip, kMB, 0.0);
  const auto second = broker.select("lfn://run42", client_ip, kMB, 0.0);
  const auto third = broker.select("lfn://run42", client_ip, kMB, 0.0);
  ASSERT_TRUE(first && second && third);
  EXPECT_EQ(first->replica.site, "lbl");
  EXPECT_EQ(second->replica.site, "isi");
  EXPECT_EQ(third->replica.site, "lbl");
}

TEST_F(BrokerFixture, RandomEventuallyPicksBoth) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kRandom, /*seed=*/7);
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) {
    seen.insert(broker.select("lfn://run42", client_ip, kMB, 0.0)->replica.site);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST_F(BrokerFixture, FirstPolicyIsDeterministic) {
  ReplicaBroker broker(catalog, giis, SelectionPolicy::kFirst);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(broker.select("lfn://run42", client_ip, kMB, 0.0)->replica.site,
              "lbl");
  }
}

TEST(SelectionPolicyTest, Names) {
  EXPECT_STREQ(to_string(SelectionPolicy::kPredictedBest), "predicted-best");
  EXPECT_STREQ(to_string(SelectionPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(SelectionPolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(SelectionPolicy::kFirst), "first");
}

}  // namespace
}  // namespace wadp::replica
