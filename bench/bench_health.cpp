// Health-plane budgets: scrape overhead and alert latency.
//
// Three kinds of panel back the observability plane's claims:
//
//  * SCRAPE OVERHEAD — the `wadp serve` fleet (admission disabled, the
//    cached read path) runs paced batches while a MetricsRecorder
//    scrapes the global registry at a 10 Hz wall cadence — ten times
//    the default one-second cadence, so the gate holds margin.  The
//    enforced bound: total time inside scrape+evaluate <= 1% of the
//    loop's wall time.  A scrape that locked writers or walked
//    histogram buckets per-quantile would blow this immediately.
//
//  * SIMULATION OVERHEAD — the health tick priced on the two
//    simulation verbs it is wired into, at their own cadences: the
//    paper's 120-day August campaign with the hourly scrape (`wadp campaign`)
//    and the default 24-site `wadp simgrid` grid with a 1 s scrape.
//    Enforced, on the median of three runs each: scrape+evaluate
//    <= 10% of campaign wall time and <= 1% of simgrid wall time.
//    The ROADMAP's 5% campaign target is printed alongside but is
//    informational: a campaign hour is cheap to simulate, so between
//    ticks the simulator evicts the recorder's ~180 rings from cache
//    and every scrape pays about one cache miss per series on its ring
//    slot.  On a 4-vCPU x86 VM one scrape of that registry costs ~4 us
//    with a warm cache and ~18 us after an 8 MB sweep; a plan cannot
//    remove that floor, only a time-major ring layout could.
//
//  * ALERT LATENCY — a staged incident on the two-replica delivery
//    stack: transfers flow cleanly until the fault injector (every
//    attempt refused) is attached mid-run, retry exhaustion starts
//    climbing, and the resilience.retry_exhaustion burn-rate rule must
//    fire within two scrape intervals of the fault.  Virtual time, so
//    the measured lag is exact and enforced.
//
// The alert also triggers a flight-recorder capture; the bundle's ULM
// twin must round-trip through util::parse_ulm_log with zero skipped
// lines (CI additionally parses the JSON twin with Python).  Emits
// BENCH_health.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "history/store.hpp"
#include "mds/giis.hpp"
#include "mds/gridftp_provider.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "replica/broker.hpp"
#include "replica/catalog.hpp"
#include "replica/fetcher.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "serving/frontend.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/ulm.hpp"
#include "workload/campaign.hpp"
#include "workload/gridworld.hpp"

namespace wadp::bench {
namespace {

// --- Panel 1: scrape overhead over the paced serving loop. ---

constexpr std::size_t kBatch = 256;
constexpr double kServeSeconds = 1.0;     ///< minimum timed loop span
constexpr double kScrapeCadence = 0.1;    ///< 10 Hz wall-clock scrapes
constexpr double kOverheadGate = 0.01;    ///< scrape share of wall time

const std::vector<std::string> kSites = {"lbl", "isi", "anl"};
const std::vector<std::string> kHosts = {"dpsslx04.lbl.gov", "jet.isi.edu",
                                         "pitcairn.mcs.anl.gov"};
const std::string kClient = "140.221.65.69";
const std::vector<Bytes> kSizeMix = {1 * kMB, 10 * kMB, 100 * kMB, 1000 * kMB};

struct OverheadResult {
  std::size_t queries = 0;
  double serve_wall = 0.0;   ///< whole loop, scrapes included
  double scrape_wall = 0.0;  ///< time inside scrape+evaluate
  std::uint64_t scrapes = 0;
  std::size_t series = 0;
  double ratio() const {
    return serve_wall > 0.0 ? scrape_wall / serve_wall : 0.0;
  }
};

OverheadResult run_overhead_panel() {
  // The `wadp serve` fleet: three paper hosts, 64 files on rotating
  // pairs, empty GIIS so fills flow through the history fallback.
  auto store = std::make_shared<history::HistoryStore>();
  util::Rng rng(kSeed);
  for (std::size_t h = 0; h < kHosts.size(); ++h) {
    const history::SeriesKey key{.host = kHosts[h], .remote_ip = kClient,
                                 .op = gridftp::Operation::kRead};
    const double base = 2e6 * static_cast<double>(h + 1);
    for (int i = 0; i < 40; ++i) {
      store->append(key, predict::Observation{
                             .time = 60.0 * i,
                             .value = base * rng.uniform(0.5, 1.5),
                             .file_size = kSizeMix[static_cast<std::size_t>(
                                 rng.uniform_int(0, 3))],
                             .ok = true});
    }
  }
  replica::ReplicaCatalog catalog;
  std::vector<std::string> lfns;
  for (int f = 0; f < 64; ++f) {
    std::string lfn = "lfn://data/" + std::to_string(f);
    for (int r = 0; r < 2; ++r) {
      const std::size_t h = static_cast<std::size_t>(f + r) % kHosts.size();
      catalog.add_replica(lfn, {.site = kSites[h],
                                .server_host = kHosts[h],
                                .path = "/data/" + std::to_string(f)});
    }
    lfns.push_back(std::move(lfn));
  }
  mds::Giis giis("top");
  replica::ReplicaBroker broker(catalog, giis,
                                replica::SelectionPolicy::kPredictedBest,
                                kSeed);
  broker.bind_history(store.get());
  serving::ServingConfig config;
  config.admission.admit_rate = 0.0;  // disabled: pure cached read path
  serving::ServingFrontend frontend(broker, catalog, store, config);

  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  monitor.add_rules(obs::HealthMonitor::builtin_rules(kScrapeCadence));

  using clock = std::chrono::steady_clock;
  std::vector<serving::Query> queries(kBatch);
  OverheadResult result;
  double now = 3600.0;
  const auto start = clock::now();
  auto next_scrape = start + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double>(kScrapeCadence));
  const auto deadline = start + std::chrono::duration_cast<clock::duration>(
                                    std::chrono::duration<double>(kServeSeconds));
  while (clock::now() < deadline) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      queries[i] = serving::Query{
          .logical_name = lfns[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(lfns.size()) - 1))],
          .client_ip = kClient,
          .size = kSizeMix[static_cast<std::size_t>(rng.uniform_int(0, 3))]};
    }
    frontend.select_many(std::span(queries.data(), kBatch), now);
    result.queries += kBatch;
    now += static_cast<double>(kBatch) / 200'000.0;
    if (clock::now() >= next_scrape) {
      const auto scrape_start = clock::now();
      recorder.scrape(now);
      monitor.evaluate(now);
      result.scrape_wall +=
          std::chrono::duration<double>(clock::now() - scrape_start).count();
      ++result.scrapes;
      next_scrape += std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(kScrapeCadence));
    }
  }
  result.serve_wall = std::chrono::duration<double>(clock::now() - start).count();
  result.series = recorder.series_count();
  return result;
}

// --- Panel 2: the health tick on the simulation verbs. ---

constexpr int kCampaignDays = 120;           ///< the August campaign
constexpr double kCampaignCadence = 3600.0;  ///< `wadp campaign` tick
constexpr double kCampaignGate = 0.10;
constexpr double kCampaignTarget = 0.05;     ///< ROADMAP, informational
constexpr double kGridSimSeconds = 20.0;
constexpr double kGridCadence = 1.0;         ///< 1 sim-s scrapes
constexpr double kGridGate = 0.01;
/// Each simulation panel runs this many times and reports its median
/// ratio, so one run disturbed by a noisy neighbour cannot decide it.
constexpr int kSimulationRuns = 3;

struct TickShare {
  double run_wall = 0.0;   ///< whole simulation run, ticks included
  double tick_wall = 0.0;  ///< time inside scrape+evaluate
  std::uint64_t scrapes = 0;
  std::size_t series = 0;
  double ratio() const {
    return run_wall > 0.0 ? tick_wall / run_wall : 0.0;
  }
  std::string describe() const {
    return std::to_string(scrapes) + " x " +
           fmt(scrapes > 0 ? 1e6 * tick_wall / static_cast<double>(scrapes)
                           : 0.0,
               1) +
           " us over " + std::to_string(series) + " series";
  }
};

/// The health tick exactly as the CLI wires it, timed.
class TimedTick {
 public:
  explicit TimedTick(double cadence) {
    monitor_.add_rules(obs::HealthMonitor::builtin_rules(cadence));
  }
  void operator()(SimTime now) {
    const auto start = std::chrono::steady_clock::now();
    recorder_.scrape(now);
    monitor_.evaluate(now);
    wall_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  }
  TickShare result(double run_wall) const {
    return {.run_wall = run_wall,
            .tick_wall = wall_,
            .scrapes = recorder_.scrapes(),
            .series = recorder_.series_count()};
  }

 private:
  obs::MetricsRecorder recorder_;
  obs::HealthMonitor monitor_{recorder_};
  double wall_ = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TickShare run_campaign_panel() {
  TimedTick tick(kCampaignCadence);
  workload::CampaignConfig config;
  config.days = kCampaignDays;
  config.health_interval = kCampaignCadence;
  config.health_tick = [&tick](SimTime now) { tick(now); };
  const auto start = std::chrono::steady_clock::now();
  const auto run = workload::run_paper_campaign(
      workload::Campaign::kAugust2001, kSeed, config);
  const double wall = seconds_since(start);  // before the testbed's teardown
  (void)run;
  return tick.result(wall);
}

TickShare run_simgrid_panel() {
  TimedTick tick(kGridCadence);
  workload::GridSpec spec;  // the `wadp simgrid` default grid
  workload::ScenarioConfig scenario;
  scenario.duration = kGridSimSeconds;
  scenario.health_interval = kGridCadence;
  scenario.health_tick = [&tick](SimTime now) { tick(now); };
  const auto start = std::chrono::steady_clock::now();
  workload::GridWorld world(spec, kSeed);
  world.run(scenario, kSeed ^ 0x5ce0ULL);
  return tick.result(seconds_since(start));
}

template <typename Panel>
TickShare median_run(Panel panel) {
  std::vector<TickShare> runs;
  for (int i = 0; i < kSimulationRuns; ++i) runs.push_back(panel());
  std::sort(runs.begin(), runs.end(),
            [](const TickShare& a, const TickShare& b) {
              return a.ratio() < b.ratio();
            });
  return runs[runs.size() / 2];
}

// --- Panel 3: staged incident, alert latency, flight capture. ---

constexpr double kInterval = 60.0;       ///< scrape interval, sim seconds
constexpr SimTime kFaultTime = 1205.0;   ///< injector attached here
constexpr SimTime kIncidentEnd = 1800.0;
constexpr Duration kIssueSpacing = 2.0;  ///< one fetch every two seconds
constexpr Bytes kFileSize = 10 * kMB;

net::PathParams quiet_path(Bandwidth bottleneck) {
  net::PathParams p;
  p.bottleneck = bottleneck;
  p.rtt = 0.05;
  p.load.base = 0.0;
  p.load.diurnal_amplitude = 0.0;
  p.load.ar_sigma = 0.0;
  p.load.episode_rate_per_hour = 0.0;
  return p;
}

struct IncidentResult {
  double alert_time = -1.0;   ///< first retry-exhaustion fire, sim time
  std::uint64_t scrapes = 0;
  int ok = 0;
  std::optional<obs::BundleInfo> bundle;
  double lag() const { return alert_time < 0.0 ? -1.0 : alert_time - kFaultTime; }
};

IncidentResult run_incident_panel() {
  sim::Simulator sim(0.0);
  net::FluidEngine engine(sim);
  net::Topology topology;
  topology.add_path("lbl", "anl", quiet_path(10'000'000.0), 1, 0.0);
  topology.add_path("anl", "lbl", quiet_path(10'000'000.0), 2, 0.0);
  topology.add_path("isi", "anl", quiet_path(5'000'000.0), 3, 0.0);
  topology.add_path("anl", "isi", quiet_path(5'000'000.0), 4, 0.0);

  storage::StorageParams quiet_storage;
  quiet_storage.local_load.reset();
  storage::StorageSystem anl_store("anl", quiet_storage, 1, 0.0);
  storage::StorageSystem lbl_store("lbl", quiet_storage, 2, 0.0);
  storage::StorageSystem isi_store("isi", quiet_storage, 3, 0.0);
  gridftp::GridFtpServer lbl(
      {.site = "lbl", .host = "dpsslx04.lbl.gov", .ip = "131.243.2.91"},
      lbl_store);
  gridftp::GridFtpServer isi(
      {.site = "isi", .host = "jet.isi.edu", .ip = "128.9.160.100"},
      isi_store);
  for (gridftp::GridFtpServer* s : {&lbl, &isi}) {
    s->fs().add_volume("/data");
    s->fs().add_file("/data/demo", kFileSize);
  }
  for (int i = 0; i < 5; ++i) {
    const double t = 100.0 * i;
    lbl.record_transfer(kClient, "/data/demo", kFileSize, t, t + 1.25,
                        gridftp::Operation::kRead, 8, 1'000'000);
    isi.record_transfer(kClient, "/data/demo", kFileSize, t, t + 5.0,
                        gridftp::Operation::kRead, 8, 1'000'000);
  }
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

  gridftp::GridFtpClient client(sim, engine, topology, "anl", kClient,
                                &anl_store);
  replica::ReplicaBroker broker(catalog, giis,
                                replica::SelectionPolicy::kPredictedBest,
                                kSeed);
  replica::FailoverFetcher fetcher(
      sim, broker, client, [&](const replica::PhysicalReplica& replica) {
        return replica.site == "lbl" ? &lbl : &isi;
      });

  // Every attempt refused once the injector is attached; no outage
  // process (the fault edge must be the attach instant, nothing else).
  resilience::FaultSpec spec;
  spec.connect_failure_rate = 1.0;
  spec.mean_fault_delay = 0.1;
  spec.mean_outage = 0.0;
  resilience::FaultInjector injector(sim, spec, kSeed ^ 0x4e5);
  sim.schedule_at(kFaultTime, [&] { client.set_fault_injector(&injector); });

  // Two quick attempts, then exhaustion — keeps the signal's onset
  // within seconds of the fault so the measured lag is the monitor's.
  resilience::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = 1.0;
  policy.jitter = 0.0;
  client.set_retry_policy(policy, kSeed);

  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  monitor.add_rules(obs::HealthMonitor::builtin_rules(kInterval));

  obs::FlightConfig flight_config;
  flight_config.dir = "bench_flight";
  obs::FlightRecorder flight(&recorder, &obs::Tracer::global(),
                             &obs::EventSink::global(), flight_config);

  IncidentResult result;
  monitor.set_on_alert([&](const obs::SloStatus& status, double now) {
    if (status.rule.name == "resilience.retry_exhaustion" &&
        result.alert_time < 0.0) {
      result.alert_time = now;
      auto bundle = flight.capture(status.rule.name, now);
      if (bundle.ok()) result.bundle = std::move(bundle.value());
    }
  });

  for (SimTime t = kInterval; t <= kIncidentEnd; t += kInterval) {
    sim.schedule_at(t, [&, t] {
      recorder.scrape(t);
      monitor.evaluate(t);
    });
  }
  for (SimTime issue = 100.0; issue < kIncidentEnd; issue += kIssueSpacing) {
    sim.schedule_at(issue, [&] {
      fetcher.fetch("lfn://demo", kFileSize, {},
                    [&](const replica::FetchOutcome& outcome) {
                      if (outcome.ok) ++result.ok;
                    });
    });
  }
  sim.run();
  result.scrapes = recorder.scrapes();
  return result;
}

/// Round-trips the bundle's ULM twin; returns parsed records, or -1 on
/// any skipped line / read failure.
long ulm_round_trip(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return -1;
  std::ostringstream body;
  body << in.rdbuf();
  const util::UlmParseResult parsed = util::parse_ulm_log(body.str());
  if (parsed.skipped_lines != 0) return -1;
  return static_cast<long>(parsed.records.size());
}

int run() {
  banner("Health plane: scrape overhead and alert latency",
         "a 10 Hz registry scrape must cost <= 1% of serving wall time; "
         "the hourly campaign tick <= 10% and the 1 s simgrid tick <= 1% "
         "of the run's wall time; a staged fault must alert within two "
         "scrape intervals and leave a parseable flight bundle");

  // The simulation panels run first, so each scrapes a registry holding
  // what its CLI verb registers rather than every earlier panel's
  // metrics too (the campaign's ~180 series, not ~250).
  const TickShare campaign = median_run(run_campaign_panel);
  const TickShare simgrid = median_run(run_simgrid_panel);
  const OverheadResult overhead = run_overhead_panel();
  const IncidentResult incident = run_incident_panel();
  const long ulm_records =
      incident.bundle ? ulm_round_trip(incident.bundle->ulm_path) : -1;

  util::TextTable table({"measurement", "value", "target"});
  table.set_align(0, util::TextTable::Align::Left);
  table.add_row({"serving throughput",
                 fmt(overhead.queries / overhead.serve_wall / 1e6, 2) +
                     " Mq/s",
                 "-"});
  table.add_row({"scrapes taken", std::to_string(overhead.scrapes),
                 fmt(kServeSeconds / kScrapeCadence, 0)});
  table.add_row({"series recorded", std::to_string(overhead.series), "-"});
  table.add_row({"scrape overhead",
                 fmt(100.0 * overhead.ratio(), 3) + " %", "<= 1 %"});
  table.add_row({"campaign ticks (hourly)", campaign.describe(), "-"});
  table.add_row({"campaign scrape overhead",
                 fmt(100.0 * campaign.ratio(), 2) + " %",
                 "<= " + fmt(100.0 * kCampaignGate, 0) + " % (roadmap <= " +
                     fmt(100.0 * kCampaignTarget, 0) + " %, informational)"});
  table.add_row({"simgrid ticks (1 s)", simgrid.describe(), "-"});
  table.add_row({"simgrid scrape overhead",
                 fmt(100.0 * simgrid.ratio(), 3) + " %",
                 "<= " + fmt(100.0 * kGridGate, 0) + " %"});
  table.add_row({"incident transfers ok", std::to_string(incident.ok), "-"});
  table.add_row({"alert lag",
                 incident.alert_time < 0.0 ? std::string("NO ALERT")
                                           : fmt(incident.lag(), 0) + " s",
                 "<= " + fmt(2.0 * kInterval, 0) + " s"});
  table.add_row({"flight bundle",
                 incident.bundle ? incident.bundle->json_path : "MISSING",
                 "written"});
  table.add_row({"bundle ULM records",
                 ulm_records < 0 ? std::string("PARSE FAIL")
                                 : std::to_string(ulm_records),
                 "> 0, 0 skipped"});
  std::printf("%s\n", table.render().c_str());

  auto& registry = obs::Registry::global();
  registry.gauge("wadp_bench_health_scrape_overhead_ratio", {},
                 "Scrape+evaluate wall time / serving loop wall time at 10 Hz")
      .set(overhead.ratio());
  registry.gauge("wadp_bench_health_scrape_mean_seconds", {},
                 "Mean wall time of one scrape+evaluate round")
      .set(overhead.scrapes > 0
               ? overhead.scrape_wall / static_cast<double>(overhead.scrapes)
               : 0.0);
  registry.gauge("wadp_bench_health_serving_qps", {},
                 "Serving throughput with the 10 Hz scrape cadence attached")
      .set(overhead.queries / overhead.serve_wall);
  registry.gauge("wadp_bench_health_campaign_overhead_ratio", {},
                 "Hourly scrape+evaluate wall time / wadp campaign wall time")
      .set(campaign.ratio());
  registry.gauge("wadp_bench_health_simgrid_overhead_ratio", {},
                 "1 s scrape+evaluate wall time / wadp simgrid wall time")
      .set(simgrid.ratio());
  registry.gauge("wadp_bench_health_alert_lag_seconds", {},
                 "Sim seconds from fault injection to the burn-rate alert")
      .set(incident.lag());
  registry.gauge("wadp_bench_health_alert_lag_intervals", {},
                 "Alert lag in scrape intervals")
      .set(incident.lag() / kInterval);
  registry.gauge("wadp_bench_health_bundle_ulm_records", {},
                 "Records round-tripped from the flight bundle's ULM twin")
      .set(static_cast<double>(ulm_records));
  const auto written =
      obs::write_bench_json("BENCH_health.json", "health", registry);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.error().c_str());
    return 1;
  }
  std::printf("wrote BENCH_health.json\n");

  bool ok = true;
  if (overhead.ratio() > kOverheadGate) {
    std::fprintf(stderr, "FAIL: scrape overhead %.4f > %.2f\n",
                 overhead.ratio(), kOverheadGate);
    ok = false;
  }
  if (campaign.ratio() > kCampaignGate) {
    std::fprintf(stderr, "FAIL: campaign scrape overhead %.4f > %.2f\n",
                 campaign.ratio(), kCampaignGate);
    ok = false;
  }
  if (simgrid.ratio() > kGridGate) {
    std::fprintf(stderr, "FAIL: simgrid scrape overhead %.4f > %.2f\n",
                 simgrid.ratio(), kGridGate);
    ok = false;
  }
  if (incident.alert_time < 0.0 || incident.lag() > 2.0 * kInterval) {
    std::fprintf(stderr, "FAIL: alert lag %.1f s (limit %.1f s)\n",
                 incident.lag(), 2.0 * kInterval);
    ok = false;
  }
  if (!incident.bundle.has_value() || ulm_records <= 0) {
    std::fprintf(stderr, "FAIL: flight bundle missing or ULM did not "
                         "round-trip cleanly\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace wadp::bench

int main() { return wadp::bench::run(); }
