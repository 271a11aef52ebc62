#include "core/quality_demo.hpp"

#include <string>

#include "core/prediction_service.hpp"
#include "gridftp/client.hpp"
#include "gridftp/server.hpp"
#include "mds/giis.hpp"
#include "mds/gridftp_provider.hpp"
#include "mds/gris.hpp"
#include "net/fabric.hpp"
#include "net/path.hpp"
#include "obs/context.hpp"
#include "replica/broker.hpp"
#include "replica/catalog.hpp"
#include "replica/fetcher.hpp"
#include "sim/simulator.hpp"
#include "storage/storage.hpp"

namespace wadp::core {

QualityDemoResult run_quality_demo(const QualityDemoConfig& config) {
  QualityDemoResult result;

  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  net::PathParams fast, slow;
  fast.bottleneck = 10'000'000.0;
  slow.bottleneck = 5'000'000.0;
  for (net::PathParams* p : {&fast, &slow}) {
    p->rtt = 0.05;
    p->load.base = 0.0;
    p->load.diurnal_amplitude = 0.0;
    p->load.ar_sigma = 0.0;
    p->load.episode_rate_per_hour = 0.0;
  }
  topology.add_path("lbl", "anl", fast, 1, 0.0);
  topology.add_path("anl", "lbl", fast, 2, 0.0);
  topology.add_path("isi", "anl", slow, 3, 0.0);
  topology.add_path("anl", "isi", slow, 4, 0.0);

  storage::StorageParams quiet_storage;
  quiet_storage.local_load.reset();
  storage::StorageSystem anl_store("anl", quiet_storage, 1, 0.0);
  storage::StorageSystem lbl_store("lbl", quiet_storage, 2, 0.0);
  storage::StorageSystem isi_store("isi", quiet_storage, 3, 0.0);
  gridftp::GridFtpServer lbl({.site = "lbl",
                              .host = "dpsslx04.lbl.gov",
                              .ip = "131.243.2.91",
                              .sample_disk = true},
                             lbl_store);
  gridftp::GridFtpServer isi({.site = "isi",
                              .host = "jet.isi.edu",
                              .ip = "128.9.160.100",
                              .sample_disk = true},
                             isi_store);
  const std::string client_ip = "140.221.65.69";
  constexpr Bytes kFileSize = 10 * kMB;
  for (gridftp::GridFtpServer* s : {&lbl, &isi}) {
    s->fs().add_volume("/data");
    s->fs().add_file("/data/demo", kFileSize);
  }
  // Warmup history so the providers (and the battery) can answer from
  // the first fetch: LBL looks 4x faster, so predicted-best goes there.
  for (int i = 0; i < 5; ++i) {
    const double t = 100.0 * i;
    lbl.record_transfer(client_ip, "/data/demo", kFileSize, t, t + 1.25,
                        gridftp::Operation::kRead, 8, 1'000'000);
    isi.record_transfer(client_ip, "/data/demo", kFileSize, t, t + 5.0,
                        gridftp::Operation::kRead, 8, 1'000'000);
  }

  // History plane: backfill the warmup, then mirror every future server
  // append.  The tracker attaches *after* the backfill, so only traced,
  // in-run transfers reach the quality join (warmup would count as
  // misses — it predates any served prediction).
  result.store = std::make_shared<history::HistoryStore>();
  result.store->attach(lbl.log());
  result.store->attach(isi.log());
  result.tracker = std::make_shared<obs::QualityTracker>();
  result.store->add_record_observer(
      [tracker = result.tracker](const gridftp::TransferRecord& record) {
        tracker->observe_transfer(record);
      });

  // Full battery answers per fetch, filed under the fetch's trace so
  // every predictor — the paper's 30, the extended variants, and the
  // disk/probe regression battery — is scored against the transfer
  // that follows.  Short training prefix: the warmup is only 5 deep.
  ServiceConfig service_config;
  service_config.training_count = 5;
  service_config.battery = ServiceConfig::Battery::kRegression;
  PredictionService service(result.store, service_config);
  service.bind_quality(result.tracker.get());

  mds::GridFtpInfoProvider lbl_provider(
      lbl,
      {.base = *mds::Dn::parse("hostname=dpsslx04.lbl.gov, dc=lbl, o=grid")});
  mds::GridFtpInfoProvider isi_provider(
      isi, {.base = *mds::Dn::parse("hostname=jet.isi.edu, dc=isi, o=grid")});
  mds::Gris lbl_gris("lbl-gris", *mds::Dn::parse("dc=lbl, o=grid"));
  mds::Gris isi_gris("isi-gris", *mds::Dn::parse("dc=isi, o=grid"));
  lbl_gris.register_provider(&lbl_provider, 300.0);
  isi_gris.register_provider(&isi_provider, 300.0);
  mds::Giis giis("top");
  giis.register_gris(lbl_gris, 0.0, 1e9);
  giis.register_gris(isi_gris, 0.0, 1e9);
  replica::ReplicaCatalog catalog;
  catalog.add_replica("lfn://demo", {.site = "lbl",
                                     .server_host = "dpsslx04.lbl.gov",
                                     .path = "/data/demo"});
  catalog.add_replica("lfn://demo", {.site = "isi",
                                     .server_host = "jet.isi.edu",
                                     .path = "/data/demo"});

  gridftp::GridFtpClient client(sim, engine, topology, "anl", client_ip,
                                &anl_store);
  replica::ReplicaBroker broker(catalog, giis,
                                replica::SelectionPolicy::kPredictedBest,
                                config.seed);
  broker.bind_quality(result.tracker.get());
  replica::FailoverFetcher fetcher(
      sim, broker, client, [&](const replica::PhysicalReplica& replica) {
        return replica.site == "lbl" ? &lbl : &isi;
      });

  // The mid-run event: the fast link collapses between two fetches.
  net::PathModel* fast_path = topology.find("lbl", "anl");
  result.shift_time = 600.0 + config.shift_after * 400.0 - 200.0;
  sim.schedule_at(result.shift_time, [&, fast_path] {
    fast_path->set_bottleneck(config.degraded_bottleneck);
  });

  int completed_after_shift = 0;
  for (int i = 0; i < config.transfers; ++i) {
    const SimTime issue = 600.0 + i * 400.0;
    sim.schedule_at(issue, [&, issue] {
      const std::uint64_t trace = obs::TraceContext::mint();
      result.trace_ids.push_back(trace);
      const obs::ScopedTraceContext scope(trace, 0);
      // Battery answers first (the broker's own AVG15/fs rides along
      // inside select()); all land in the tracker under this trace.
      for (const auto& key : service.series_keys()) {
        service.predict_all(key, kFileSize, issue);
      }
      fetcher.fetch("lfn://demo", kFileSize, {},
                    [&, issue](const replica::FetchOutcome& outcome) {
                      if (outcome.ok) {
                        ++result.ok;
                      } else {
                        ++result.failed;
                      }
                      if (outcome.selection &&
                          outcome.selection->drift_demoted) {
                        ++result.drift_demotions;
                      }
                      if (issue >= result.shift_time) {
                        ++completed_after_shift;
                        if (result.completions_to_drift < 0 &&
                            result.tracker->report().drift_events > 0) {
                          result.completions_to_drift = completed_after_shift;
                        }
                      }
                    });
    });
  }
  sim.run();
  return result;
}

}  // namespace wadp::core
