// wadp_perfbench: runs one benchmark workload through the libraries'
// public API and prints one JSON report line.
//
//   wadp_perfbench --workload campaign|simgrid|serve|ingest --seed N
//                  --seconds S --trace 0|1 --workdir DIR [--spans FILE]
//
// A run is a warm-up round followed by measured rounds until S seconds
// have passed.  Every round rebuilds its world from the seed, so every
// round must produce identical outputs and identical per-layer counts;
// any difference fails the run.  With --trace 1, measured rounds
// alternate between untraced and traced; traced rounds record a span
// around each call the benchmark makes into a layer, and their self
// times give the per-layer seconds.  The last traced round's spans are
// written to --spans when the run ends.
//
// The report line carries the end-to-end metrics (from untraced
// rounds), the per-layer metrics, the output checks, and the
// attempted / failed tallies.  perfbench/run.py builds this program,
// runs it, and turns the report into the benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/prediction_service.hpp"
#include "durability/manager.hpp"
#include "gridftp/log.hpp"
#include "history/store.hpp"
#include "mds/giis.hpp"
#include "obs/context.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/timeseries.hpp"
#include "replica/broker.hpp"
#include "replica/catalog.hpp"
#include "serving/frontend.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/campaign.hpp"
#include "workload/gridworld.hpp"
#include "workload/testbed.hpp"

namespace perfbench {
namespace {

using namespace wadp;

// ---------------------------------------------------------------------
// Workload sizes.  On a 4-vCPU x86 box with a Release build a round
// takes about 0.5 s (campaign, serve), 1.5 s (ingest, with its set-up
// and recovery) or 6 s (simgrid).

constexpr int kCampaignDays = 120;           // August campaign horizon
constexpr Duration kCampaignTick = 3600.0;   // `wadp campaign` cadence

constexpr std::size_t kGridSites = 24;       // `wadp simgrid` defaults
constexpr std::size_t kGridLinks = 60;
constexpr std::uint64_t kGridTopologySeed = 42;
constexpr Duration kGridSimSeconds = 20.0;
constexpr std::size_t kGridDraws = 10;       // traffic draws per round

constexpr std::size_t kServeHosts = 200;
constexpr std::size_t kServeClients = 16;
constexpr std::size_t kServeFiles = 20'000;
constexpr std::size_t kServeQueries = 400'000;
constexpr std::size_t kServeBatch = 256;
constexpr int kServeHistory = 40;            // seeded observations/series
constexpr double kServeZipf = 0.9;           // file popularity skew
constexpr double kServeAdmitRate = 100'000.0;
constexpr int kServeScrapes = 40;            // virtual-time health ticks

constexpr std::size_t kIngestHosts = 48;
constexpr std::size_t kIngestClients = 4;
constexpr std::size_t kIngestRecords = 32'768;

const std::vector<Bytes> kSizeMix = {1 * kMB, 10 * kMB, 100 * kMB,
                                     1000 * kMB};

// ---------------------------------------------------------------------
// Round bookkeeping.

/// What one round produced.  `counts` holds every deterministic
/// per-layer count (they must repeat exactly); `seconds` holds the
/// per-layer wall times of a traced round.
struct Round {
  double setup_s = 0.0;
  double timed_s = 0.0;
  double work = 0.0;  ///< items done in the timed phase
  double recover_s = 0.0;
  std::vector<double> op_us;
  std::map<std::string, double> counts;
  std::map<std::string, double> seconds;
  std::map<std::string, std::string> check;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Sum of every instrument of each registry family: counter values and
/// histogram sample counts.  Gauges are levels, not work, and are left
/// out.
std::map<std::string, double> read_registry() {
  std::map<std::string, double> out;
  for (const auto& family : obs::Registry::global().families()) {
    double total = 0.0;
    for (const auto& instrument : family.instruments) {
      if (instrument.counter != nullptr) {
        total += static_cast<double>(instrument.counter->value());
      } else if (instrument.histogram != nullptr) {
        total += static_cast<double>(instrument.histogram->count());
      }
    }
    out[family.name] = total;
  }
  return out;
}

/// Registry deltas over one phase.
class RegistryDelta {
 public:
  RegistryDelta() : before_(read_registry()) {}
  void finish() { after_ = read_registry(); }
  double operator()(const std::string& family) const {
    const auto a = after_.find(family);
    if (a == after_.end()) return 0.0;
    const auto b = before_.find(family);
    return a->second - (b == before_.end() ? 0.0 : b->second);
  }

 private:
  std::map<std::string, double> before_;
  std::map<std::string, double> after_;
};

/// FNV-1a-64, continued across calls.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The health tick both simulation workloads hand to the simulation,
/// exactly as `wadp campaign` / `wadp simgrid` wire it.  Each tick also
/// closes one "op": the host time since the previous tick.
class HealthTick {
 public:
  HealthTick(SpanLog& spans, Duration interval) : spans_(spans) {
    monitor_.add_rules(obs::HealthMonitor::builtin_rules(interval));
  }

  void start_clock() { last_ns_ = now_ns(); }

  void operator()(SimTime now) {
    const std::int64_t t = now_ns();
    op_us_.push_back(static_cast<double>(t - last_ns_) * 1e-3);
    last_ns_ = t;
    SpanLog::Scope tick(spans_, "health_tick");
    {
      SpanLog::Scope scrape(spans_, "obs.scrape");
      points_ += recorder_.scrape(now);
      ++scrapes_;
    }
    SpanLog::Scope evaluate(spans_, "obs.evaluate");
    monitor_.evaluate(now);
  }

  /// Adds this tick's scrapes and ops to the round.
  void report(Round& round) const {
    round.counts["obs.scrapes"] += static_cast<double>(scrapes_);
    round.counts["obs.scrape_points"] += static_cast<double>(points_);
    round.op_us.insert(round.op_us.end(), op_us_.begin(), op_us_.end());
  }

 private:
  SpanLog& spans_;
  obs::MetricsRecorder recorder_;
  obs::HealthMonitor monitor_{recorder_};
  std::int64_t last_ns_ = 0;
  std::vector<double> op_us_;
  std::uint64_t scrapes_ = 0;
  std::uint64_t points_ = 0;
};

void report_alloc(Round& round, const net::FluidEngine::AllocStats& before,
                  const net::FluidEngine::AllocStats& after) {
  const double reallocs = static_cast<double>(after.reallocs - before.reallocs);
  const double entries =
      static_cast<double>(after.flows_touched - before.flows_touched);
  round.counts["net.reallocs"] = reallocs;
  round.counts["net.flow_entries"] = entries;
  round.counts["net.components"] =
      static_cast<double>(after.components - before.components);
  round.counts["net.mean_component"] = reallocs > 0 ? entries / reallocs : 0.0;
  round.counts["net.sweeps"] = static_cast<double>(after.sweeps - before.sweeps);
  round.seconds["net.alloc_s"] =
      static_cast<double>(after.alloc_ns - before.alloc_ns) * 1e-9;
}

/// Counts every workload reports from the registry, so a layer a
/// workload should leave idle shows that it did.
void report_registry(Round& round, const RegistryDelta& delta) {
  round.counts["sim.events"] = delta("wadp_sim_events_executed_total");
  round.counts["gridftp.transfers"] = delta("wadp_transfers_logged_total");
  round.counts["predict.queries"] = delta("wadp_predict_queries_total");
  round.counts["predict.battery_replays"] = delta("wadp_battery_replays_total");
  round.counts["predict.fallbacks"] = delta("wadp_predict_fallback_total");
  round.counts["history.appends"] = delta("wadp_history_appends_total");
  round.counts["history.cow_copies"] = delta("wadp_history_cow_copies_total");
  round.counts["durability.wal_bytes"] = delta("wadp_wal_written_bytes_total");
  round.counts["durability.wal_batches"] =
      delta("wadp_wal_commit_batches_total");
  const double hits = delta("wadp_serving_cache_hits_total");
  const double misses = delta("wadp_serving_cache_misses_total");
  round.counts["serving.hits"] = hits;
  round.counts["serving.misses"] = misses;
  round.counts["serving.fills"] = delta("wadp_serving_fills_total");
  round.counts["serving.coalesced"] = delta("wadp_serving_coalesced_total");
  round.counts["serving.shed"] = delta("wadp_serving_shed_total");
  round.counts["serving.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------
// campaign: the paper's August campaign with the hourly health tick,
// ending with both server logs encoded as ULM text.

Round campaign_round(std::uint64_t seed, SpanLog& spans, bool first,
                     bool setup_only) {
  Round round;
  const std::int64_t setup_start = now_ns();
  // Mirrors workload::run_paper_campaign (same seeding and scheduling
  // order), split so that set-up and the run are timed apart.
  workload::Testbed testbed(workload::Campaign::kAugust2001, seed);
  workload::CampaignConfig config;
  config.days = kCampaignDays;
  util::Rng seeder(seed ^ 0xc0ffee ^ 0xa00u);
  workload::CampaignDriver lbl(testbed, "anl", "lbl", config,
                               seeder.next_u64());
  workload::CampaignDriver isi(testbed, "anl", "isi", config,
                               seeder.next_u64());
  lbl.start();
  isi.start();
  const SimTime end = lbl.end_time() + util::kSecondsPerDay;
  auto& sim = testbed.sim();
  HealthTick health(spans, kCampaignTick);
  sim::PeriodicTask tick(
      sim, kCampaignTick, [&sim, &health] { health(sim.now()); },
      /*immediate=*/false, /*until=*/end);
  round.setup_s = seconds_since(setup_start);
  if (setup_only) return round;

  RegistryDelta delta;
  const auto alloc_before = testbed.engine().alloc_stats();
  const std::int64_t timed_start = now_ns();
  health.start_clock();
  {
    SpanLog::Scope run(spans, "sim.run");
    sim.run_until(end);
  }
  std::string lbl_text;
  std::string isi_text;
  {
    SpanLog::Scope encode(spans, "gridftp.encode");
    lbl_text = testbed.server("lbl").log().to_ulm_text();
    isi_text = testbed.server("isi").log().to_ulm_text();
  }
  round.timed_s = seconds_since(timed_start);
  delta.finish();

  const std::size_t lbl_count = testbed.server("lbl").log().size();
  const std::size_t isi_count = testbed.server("isi").log().size();
  const std::size_t failed = lbl.failed() + isi.failed();
  round.work = static_cast<double>(lbl_count + isi_count);
  round.attempted = lbl_count + isi_count + failed;
  round.failed = failed;
  round.check["ulm_fnv1a64"] = hex64(fnv1a(isi_text, fnv1a(lbl_text)));
  round.check["lbl_transfers"] = std::to_string(lbl_count);
  round.check["isi_transfers"] = std::to_string(isi_count);
  round.check["failed_transfers"] = std::to_string(failed);
  round.counts["gridftp.log_bytes"] =
      static_cast<double>(lbl_text.size() + isi_text.size());
  health.report(round);
  report_alloc(round, alloc_before, testbed.engine().alloc_stats());
  report_registry(round, delta);

  if (lbl_count == 0 || isi_count == 0) {
    round.errors.push_back("campaign produced an empty server log");
  }
  // Round trip once per run, outside the timed phase: the encoded text
  // must parse back to the logged records (times to the encoded
  // millisecond).
  if (first) {
    for (const auto& [site, text] :
         {std::pair{"lbl", &lbl_text}, std::pair{"isi", &isi_text}}) {
      const auto parsed = gridftp::TransferLog::parse_ulm_text(*text);
      const auto live = testbed.server(site).log().records();
      const bool same = std::equal(
          parsed.records.begin(), parsed.records.end(), live.begin(),
          live.end(), [](const auto& a, const auto& b) {
            return a.host == b.host && a.source_ip == b.source_ip &&
                   a.file_name == b.file_name && a.file_size == b.file_size &&
                   a.volume == b.volume && a.op == b.op &&
                   a.streams == b.streams && a.tcp_buffer == b.tcp_buffer &&
                   a.ok == b.ok && a.trace_id == b.trace_id &&
                   std::abs(a.start_time - b.start_time) <= 5e-4 &&
                   std::abs(a.end_time - b.end_time) <= 5e-4;
          });
      if (parsed.skipped != 0 || !same) {
        round.errors.push_back(std::string("ULM round trip differs for ") +
                               site);
      }
    }
  }
  return round;
}

// ---------------------------------------------------------------------
// simgrid: the `wadp simgrid` default grid, uniform non-local traffic.
// The grid is the one `wadp simgrid` builds by default (seed 42); the
// run's seed draws the traffic.  A round runs several independent
// traffic draws on fresh copies of the grid, so the cost of one round
// depends less on how heavy a single draw happens to be: one draw's
// flow-entries vary by about 10% from seed to seed, ten draws' by 4%.

Round simgrid_round(std::uint64_t seed, SpanLog& spans, bool setup_only) {
  Round round;
  const std::int64_t setup_start = now_ns();
  workload::GridSpec spec;
  spec.sites = kGridSites;
  spec.links = kGridLinks;
  workload::ScenarioConfig scenario;
  scenario.scenario = workload::Scenario::kUniform;
  scenario.duration = kGridSimSeconds;
  scenario.health_interval = std::max(1.0, scenario.duration / 60.0);
  std::vector<std::unique_ptr<workload::GridWorld>> worlds;
  std::vector<std::unique_ptr<HealthTick>> ticks;
  for (std::size_t d = 0; d < kGridDraws; ++d) {
    worlds.push_back(
        std::make_unique<workload::GridWorld>(spec, kGridTopologySeed));
    ticks.push_back(
        std::make_unique<HealthTick>(spans, scenario.health_interval));
  }
  round.setup_s = seconds_since(setup_start);
  if (setup_only) return round;

  RegistryDelta delta;
  std::vector<workload::GridWorld::Summary> summaries;
  const std::int64_t timed_start = now_ns();
  for (std::size_t d = 0; d < kGridDraws; ++d) {
    HealthTick& health = *ticks[d];
    scenario.health_tick = [&health](SimTime now) { health(now); };
    health.start_clock();
    SpanLog::Scope run(spans, "sim.run");
    // Draw 0 is the traffic `wadp simgrid --seed N` runs.
    summaries.push_back(worlds[d]->run(
        scenario, (seed ^ 0x5ce0ULL) + d * 0x9e3779b97f4a7c15ULL));
  }
  round.timed_s = seconds_since(timed_start);
  delta.finish();

  net::FluidEngine::AllocStats alloc;
  std::map<std::string, std::string> check;
  for (std::size_t d = 0; d < kGridDraws; ++d) {
    const auto& summary = summaries[d];
    round.work += summary.sim_elapsed;
    round.attempted += summary.flows_started + summary.flows_shed;
    round.failed += summary.flows_shed;
    const std::string sep = d == 0 ? "" : ",";
    check["flows_started"] += sep + std::to_string(summary.flows_started);
    check["flows_completed"] += sep + std::to_string(summary.flows_completed);
    check["flows_shed"] += sep + std::to_string(summary.flows_shed);
    check["reallocs"] += sep + std::to_string(summary.alloc.reallocs);
    check["flow_entries"] += sep + std::to_string(summary.alloc.flows_touched);
    check["bytes_moved_bits"] +=
        sep + hex64(std::bit_cast<std::uint64_t>(summary.bytes_moved));
    // Engines are fresh, so their totals are this round's work.
    alloc.reallocs += summary.alloc.reallocs;
    alloc.components += summary.alloc.components;
    alloc.flows_touched += summary.alloc.flows_touched;
    alloc.sweeps += summary.alloc.sweeps;
    alloc.alloc_ns += summary.alloc.alloc_ns;
    ticks[d]->report(round);

    if (summary.flows_completed == 0 || !(summary.bytes_moved > 0.0)) {
      round.errors.push_back("simgrid completed no flows");
    }
    if (summary.flows_started !=
        summary.flows_completed + summary.active_at_end) {
      round.errors.push_back("simgrid flows started != completed + active");
    }
    if (std::abs(summary.sim_elapsed - kGridSimSeconds) > 1e-6) {
      round.errors.push_back("simgrid did not run its full duration");
    }
  }
  round.check = std::move(check);
  report_alloc(round, {}, alloc);
  report_registry(round, delta);
  return round;
}

// ---------------------------------------------------------------------
// serve: closed-loop select_many batches over a large fleet, one
// history append per batch.

/// Inverse-CDF sampler of a Zipf(s) rank over n items.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

Round serve_round(std::uint64_t seed, SpanLog& spans, bool setup_only) {
  Round round;
  const std::int64_t setup_start = now_ns();
  util::Rng rng(seed);
  std::vector<std::string> sites;
  std::vector<std::string> hosts;
  for (std::size_t h = 0; h < kServeHosts; ++h) {
    sites.push_back("site" + std::to_string(h));
    hosts.push_back("gridftp" + std::to_string(h) + ".site" +
                    std::to_string(h) + ".org");
  }
  std::vector<std::string> clients;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    clients.push_back("10.1." + std::to_string(c) + ".7");
  }
  auto series_key = [&](std::size_t h, std::size_t c) {
    return history::SeriesKey{.host = hosts[h],
                              .remote_ip = clients[c],
                              .op = gridftp::Operation::kRead};
  };

  auto store = std::make_shared<history::HistoryStore>();
  std::vector<double> base(kServeHosts * kServeClients);
  for (std::size_t h = 0; h < kServeHosts; ++h) {
    for (std::size_t c = 0; c < kServeClients; ++c) {
      base[h * kServeClients + c] = rng.log_uniform(1e6, 50e6);
      const auto key = series_key(h, c);
      for (int i = 0; i < kServeHistory; ++i) {
        store->append(key, predict::Observation{
                               .time = 60.0 * i,
                               .value = base[h * kServeClients + c] *
                                        rng.uniform(0.5, 1.5),
                               .file_size = kSizeMix[static_cast<std::size_t>(
                                   rng.uniform_int(0, 3))],
                               .ok = true});
      }
    }
  }

  replica::ReplicaCatalog catalog;
  std::vector<std::string> lfns;
  lfns.reserve(kServeFiles);
  const auto host_count = static_cast<std::int64_t>(kServeHosts);
  for (std::size_t f = 0; f < kServeFiles; ++f) {
    std::string lfn = "lfn://data/" + std::to_string(f);
    const auto h1 = static_cast<std::size_t>(rng.uniform_int(0, host_count - 1));
    const auto h2 = (h1 + 1 +
                     static_cast<std::size_t>(rng.uniform_int(0, host_count - 2))) %
                    kServeHosts;
    for (const std::size_t h : {h1, h2}) {
      catalog.add_replica(lfn, {.site = sites[h],
                                .server_host = hosts[h],
                                .path = "/data/" + std::to_string(f)});
    }
    lfns.push_back(std::move(lfn));
  }

  // The whole query stream and the per-batch appends are drawn here,
  // so the timed loop only replays them.
  struct Pick {
    std::uint32_t file;
    std::uint16_t client;
    std::uint16_t size;
  };
  const Zipf popularity(kServeFiles, kServeZipf);
  std::vector<Pick> picks(kServeQueries);
  for (Pick& pick : picks) {
    pick.file = static_cast<std::uint32_t>(popularity(rng));
    pick.client = static_cast<std::uint16_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kServeClients) - 1));
    pick.size = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
  }
  const std::size_t batches = (kServeQueries + kServeBatch - 1) / kServeBatch;
  struct Append {
    std::size_t host;
    std::size_t client;
    double factor;
    std::size_t size;
  };
  std::vector<Append> appends(batches);
  for (Append& append : appends) {
    append.host = static_cast<std::size_t>(rng.uniform_int(0, host_count - 1));
    append.client = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kServeClients) - 1));
    append.factor = rng.uniform(0.5, 1.5);
    append.size = static_cast<std::size_t>(rng.uniform_int(0, 3));
  }

  mds::Giis giis("top");
  replica::ReplicaBroker broker(catalog, giis,
                                replica::SelectionPolicy::kPredictedBest, seed);
  broker.bind_history(store.get());
  serving::ServingConfig config;
  config.admission.admit_rate = kServeAdmitRate;
  config.admission.admit_burst = static_cast<double>(kServeBatch);
  serving::ServingFrontend frontend(broker, catalog, store, config);

  // Offered load is half the admit capacity on virtual time: nothing
  // sheds.
  const double offered_rate = 0.5 * kServeAdmitRate;
  const double scrape_interval =
      static_cast<double>(kServeQueries) / offered_rate / kServeScrapes;
  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  monitor.add_rules(obs::HealthMonitor::builtin_rules(scrape_interval));
  std::vector<serving::Query> queries(kServeBatch);
  round.op_us.reserve(batches);
  round.setup_s = seconds_since(setup_start);
  if (setup_only) return round;

  RegistryDelta delta;
  std::uint64_t tallies[4] = {0, 0, 0, 0};  // cached/filled/shed/rejected
  std::uint64_t informed = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t points = 0;
  double now = 3600.0;  // after the seeded history
  double next_scrape = now + scrape_interval;
  const std::int64_t timed_start = now_ns();
  for (std::size_t b = 0; b < batches; ++b) {
    SpanLog::Scope batch(spans, "serve.batch", b + 1);
    const std::size_t offset = b * kServeBatch;
    const std::size_t n = std::min(kServeBatch, kServeQueries - offset);
    for (std::size_t i = 0; i < n; ++i) {
      const Pick& pick = picks[offset + i];
      queries[i] = serving::Query{.logical_name = lfns[pick.file],
                                  .client_ip = clients[pick.client],
                                  .size = kSizeMix[pick.size]};
    }
    std::vector<serving::Answer> answers;
    const std::int64_t op_start = now_ns();
    {
      SpanLog::Scope select(spans, "serving.select");
      answers = frontend.select_many(std::span(queries.data(), n), now);
    }
    round.op_us.push_back(static_cast<double>(now_ns() - op_start) * 1e-3);
    for (const auto& answer : answers) {
      ++tallies[static_cast<std::size_t>(answer.path)];
      if (answer.informed) ++informed;
      if (answer.replica == nullptr) ++unanswered;
    }
    now += static_cast<double>(n) / offered_rate;
    while (now >= next_scrape) {
      SpanLog::Scope tick(spans, "health_tick");
      {
        SpanLog::Scope scrape(spans, "obs.scrape");
        points += recorder.scrape(next_scrape);
        ++scrapes;
      }
      {
        SpanLog::Scope evaluate(spans, "obs.evaluate");
        monitor.evaluate(next_scrape);
      }
      next_scrape += scrape_interval;
    }
    const Append& append = appends[b];
    SpanLog::Scope span(spans, "history.append");
    store->append(
        series_key(append.host, append.client),
        predict::Observation{
            .time = now,
            .value = base[append.host * kServeClients + append.client] *
                     append.factor,
            .file_size = kSizeMix[append.size],
            .ok = true});
  }
  round.timed_s = seconds_since(timed_start);
  delta.finish();

  round.work = static_cast<double>(kServeQueries);
  round.attempted = kServeQueries;
  round.failed = tallies[2] + tallies[3];
  round.check["cached"] = std::to_string(tallies[0]);
  round.check["filled"] = std::to_string(tallies[1]);
  round.check["shed"] = std::to_string(tallies[2]);
  round.check["rejected"] = std::to_string(tallies[3]);
  round.check["informed"] = std::to_string(informed);
  round.counts["obs.scrapes"] = static_cast<double>(scrapes);
  round.counts["obs.scrape_points"] = static_cast<double>(points);
  report_registry(round, delta);

  if (tallies[0] + tallies[1] + tallies[2] + tallies[3] != kServeQueries) {
    round.errors.push_back("serve answers do not cover every query");
  }
  if (unanswered != 0) {
    round.errors.push_back("serve returned answers without a replica");
  }
  return round;
}

// ---------------------------------------------------------------------
// ingest: parse a ULM log, append every record to a WAL-backed store,
// join it against the prediction served for it, and predict the next
// transfer of its series; then recover the store from the WAL.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact comparison of two stores' series, epochs and generations.
bool stores_equal(const history::HistoryStore& a,
                  const history::HistoryStore& b) {
  const auto keys = a.keys();
  if (keys != b.keys()) return false;
  for (const auto& key : keys) {
    const auto sa = a.snapshot(key);
    const auto sb = b.snapshot(key);
    if (sa.size() != sb.size() || sa.epoch() != sb.epoch() ||
        sa.generation() != sb.generation() || sa.evicted() != sb.evicted()) {
      return false;
    }
    for (std::size_t i = 0; i < sa.size(); ++i) {
      const auto& x = sa.observations()[i];
      const auto& y = sb.observations()[i];
      if (!same_bits(x.time, y.time) || !same_bits(x.value, y.value) ||
          x.file_size != y.file_size || x.ok != y.ok ||
          !same_bits(x.disk, y.disk) || !same_bits(x.probe, y.probe)) {
        return false;
      }
    }
  }
  return true;
}

Round ingest_round(std::uint64_t seed, SpanLog& spans, bool setup_only,
                   const std::string& workdir) {
  Round round;
  const std::int64_t setup_start = now_ns();
  util::Rng rng(seed);
  const std::size_t series_count = kIngestHosts * kIngestClients;
  std::vector<history::SeriesKey> keys;
  std::vector<double> base;
  for (std::size_t h = 0; h < kIngestHosts; ++h) {
    for (std::size_t c = 0; c < kIngestClients; ++c) {
      keys.push_back(history::SeriesKey{
          .host = "gridftp" + std::to_string(h) + ".example.org",
          .remote_ip = "10.2." + std::to_string(c) + ".9",
          .op = gridftp::Operation::kRead});
      base.push_back(rng.log_uniform(0.5e6, 50e6));
    }
  }
  // Seeded log: records interleaved across series in start-time order.
  std::vector<std::size_t> series_of(kIngestRecords);
  std::vector<std::size_t> next_of(kIngestRecords, kIngestRecords);
  std::vector<std::size_t> last(series_count, kIngestRecords);
  gridftp::TransferLog generated;
  double t = 1.0e9;
  for (std::size_t i = 0; i < kIngestRecords; ++i) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(series_count) - 1));
    series_of[i] = s;
    if (last[s] != kIngestRecords) next_of[last[s]] = i;
    last[s] = i;
    gridftp::TransferRecord record;
    record.host = keys[s].host;
    record.source_ip = keys[s].remote_ip;
    record.file_size =
        kSizeMix[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    record.file_name = "/data/file" + std::to_string(record.file_size / kMB);
    record.volume = "/data";
    record.start_time = t;
    record.end_time =
        t + static_cast<double>(record.file_size) /
                (base[s] * rng.uniform(0.6, 1.4));
    record.streams = 8;
    record.tcp_buffer = 1'000'000;
    record.trace_id = i + 1;
    generated.append(std::move(record));
    t += rng.exponential(30.0);
  }
  const std::string text = generated.to_ulm_text();

  const std::string wal_root =
      workdir + "/ingest-wal-" + std::to_string(::getpid());
  std::filesystem::remove_all(wal_root);
  auto store = std::make_shared<history::HistoryStore>(
      history::StoreConfig{.dedupe_records = true});
  auto manager = std::make_unique<durability::DurabilityManager>(
      store, durability::DurabilityConfig{
                 .dir = wal_root, .fsync = durability::FsyncPolicy::kNone});
  manager->attach();
  core::PredictionService service(store);
  obs::QualityTracker quality;
  service.bind_quality(&quality);
  round.op_us.reserve(kIngestRecords);
  round.setup_s = seconds_since(setup_start);
  if (setup_only) {
    manager.reset();
    std::filesystem::remove_all(wal_root);
    return round;
  }

  RegistryDelta delta;
  std::uint64_t predictions = 0;
  std::uint64_t answered = 0;
  const std::int64_t timed_start = now_ns();
  gridftp::TransferLog::ParsedLog parsed;
  {
    SpanLog::Scope parse(spans, "gridftp.parse");
    parsed = gridftp::TransferLog::parse_ulm_text(text);
  }
  const bool complete = parsed.records.size() == kIngestRecords;
  if (!complete) {
    round.errors.push_back("ULM parse lost records");
  }
  for (std::size_t i = 0; complete && i < kIngestRecords; ++i) {
    const gridftp::TransferRecord& record = parsed.records[i];
    SpanLog::Scope root(spans, "ingest.record", i + 1);
    const std::int64_t op_start = now_ns();
    {
      SpanLog::Scope append(spans, "history.append");
      store->append(record);
    }
    {
      SpanLog::Scope join(spans, "obs.quality");
      quality.observe_transfer(record);
    }
    if (const std::size_t next = next_of[i]; next != kIngestRecords) {
      const gridftp::TransferRecord& upcoming = parsed.records[next];
      const obs::ScopedTraceContext context(upcoming.trace_id, 0);
      SpanLog::Scope predict(spans, "predict.query");
      ++predictions;
      if (service.predict(keys[series_of[next]], upcoming.file_size,
                          upcoming.start_time)) {
        ++answered;
      }
    }
    round.op_us.push_back(static_cast<double>(now_ns() - op_start) * 1e-3);
  }
  {
    SpanLog::Scope flush(spans, "durability.flush");
    manager->flush();
  }
  round.timed_s = seconds_since(timed_start);
  // Registry counts cover the timed phase; recovery reports its own.
  delta.finish();
  manager.reset();

  // Recovery: replay the WAL into a fresh store and warm its batteries.
  const std::int64_t recover_start = now_ns();
  auto recovered = std::make_shared<history::HistoryStore>(
      history::StoreConfig{.dedupe_records = true});
  std::optional<durability::RecoveryStats> stats;
  {
    SpanLog::Scope replay(spans, "durability.replay");
    auto result = durability::DurabilityManager::recover(wal_root, *recovered);
    if (result.ok()) stats = result.value();
  }
  {
    core::PredictionService warmed(recovered);
    SpanLog::Scope warm(spans, "predict.warm");
    warmed.warm_up();
  }
  round.recover_s = seconds_since(recover_start);

  const bool equal = stats.has_value() && stores_equal(*store, *recovered);
  std::filesystem::remove_all(wal_root);

  // Digest of the AVG15/fs mean error bit patterns, site by site.
  std::uint64_t error_digest = fnv1a("");
  for (std::size_t h = 0; h < kIngestHosts; ++h) {
    const auto error =
        quality.mean_error(keys[h * kIngestClients].host, "AVG15/fs");
    const std::uint64_t bits =
        error ? std::bit_cast<std::uint64_t>(*error) : 0ULL;
    error_digest = fnv1a(
        std::string_view(reinterpret_cast<const char*>(&bits), sizeof bits),
        error_digest);
  }

  round.work = static_cast<double>(parsed.records.size());
  round.attempted = parsed.records.size() + parsed.skipped;
  round.failed = parsed.skipped;
  // The tracker's own report reads process-wide counters, so joins are
  // taken as registry deltas over this round.
  const double joins = delta("wadp_quality_joins_total");
  const double misses = delta("wadp_quality_join_misses_total");
  round.check["joins"] = std::to_string(static_cast<std::uint64_t>(joins));
  round.check["avg15_error_fnv1a64"] = hex64(error_digest);
  round.check["recovered_equals_live"] = equal ? "true" : "false";
  round.counts["gridftp.lines"] =
      static_cast<double>(parsed.records.size() + parsed.skipped);
  round.counts["gridftp.skipped_lines"] = static_cast<double>(parsed.skipped);
  round.counts["predict.answered_frac"] =
      predictions > 0 ? static_cast<double>(answered) /
                            static_cast<double>(predictions)
                      : 0.0;
  round.counts["obs.quality_joins"] = joins;
  round.counts["obs.join_ratio"] = joins + misses > 0 ? joins / (joins + misses) : 0.0;
  round.counts["durability.replayed"] =
      stats ? static_cast<double>(stats->records_applied) : 0.0;
  report_registry(round, delta);

  if (!stats) round.errors.push_back("WAL recovery failed");
  if (!equal) round.errors.push_back("recovered store differs from live store");
  if (stats && stats->records_applied != kIngestRecords) {
    round.errors.push_back("WAL replay applied a different record count");
  }
  if (joins == 0 || answered == 0) {
    round.errors.push_back("ingest joined no predictions");
  }
  return round;
}

// ---------------------------------------------------------------------
// Run loop and report.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string spans_path;
};

/// Per-layer seconds: metric name -> span whose self time it is.
const std::vector<std::pair<std::string, std::string>> kLayerSpans = {
    {"obs.scrape_s", "obs.scrape"},
    {"obs.evaluate_s", "obs.evaluate"},
    {"gridftp.encode_s", "gridftp.encode"},
    {"gridftp.parse_s", "gridftp.parse"},
    {"predict.query_s", "predict.query"},
    {"history.append_s", "history.append"},
    {"durability.flush_s", "durability.flush"},
    {"durability.replay_s", "durability.replay"},
    {"predict.warm_s", "predict.warm"},
    {"obs.quality_s", "obs.quality"},
    {"serving.select_s", "serving.select"},
};

constexpr std::size_t kSetupSamples = 31;
constexpr double kSetupExtraSeconds = 2.0;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void append_number(std::string& out, const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += json_string(key) + ": " + (std::isfinite(value) ? buf : "null");
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    append_number(out, key, value);
  }
  return out + "}";
}

enum class Phase { kWarmUp, kMeasured, kSetupOnly };

Round run_round(const Options& options, SpanLog& spans, Phase phase) {
  const std::uint64_t seed = options.seed;
  const bool setup_only = phase == Phase::kSetupOnly;
  if (options.workload == "campaign") {
    return campaign_round(seed, spans, phase == Phase::kWarmUp, setup_only);
  }
  if (options.workload == "simgrid") {
    return simgrid_round(seed, spans, setup_only);
  }
  if (options.workload == "serve") return serve_round(seed, spans, setup_only);
  return ingest_round(seed, spans, setup_only, options.workdir);
}

int run(const Options& options) {
  SpanLog spans;
  std::vector<std::string> errors;
  auto absorb = [&errors](const Round& round, const char* label) {
    for (const auto& error : round.errors) {
      errors.push_back(std::string(label) + ": " + error);
    }
  };

  // Warm-up round: lazy registrations and allocator pools settle; its
  // outputs are the reference every measured round repeats.
  spans.reset(false);
  const Round reference = run_round(options, spans, Phase::kWarmUp);
  absorb(reference, "warm-up");

  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::map<std::string, double> counts;
  const std::int64_t started = now_ns();
  const std::size_t min_each = options.trace ? 2 : 3;
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    auto& bucket = trace_this ? traced : untraced;
    if (seconds_since(started) >= options.seconds &&
        untraced.size() >= min_each &&
        (!options.trace || traced.size() >= min_each)) {
      break;
    }
    spans.reset(trace_this);
    Round round = run_round(options, spans, Phase::kMeasured);
    if (trace_this) {
      const auto self = spans.self_seconds();
      for (const auto& [metric, span] : kLayerSpans) {
        const auto it = self.find(span);
        round.seconds[metric] = it == self.end() ? 0.0 : it->second;
      }
      const auto run_it = self.find("sim.run");
      const double run_self = run_it == self.end() ? 0.0 : run_it->second;
      round.seconds["sim.residual_s"] =
          run_self > 0.0 ? run_self - round.seconds["net.alloc_s"] : 0.0;
    }
    const char* kind = trace_this ? "traced round" : "round";
    absorb(round, kind);
    for (const auto& [key, value] : reference.check) {
      if (round.check[key] != value) {
        errors.push_back(std::string("output ") + key + " differs in a " +
                         kind + ": " + round.check[key] + " vs " + value);
      }
    }
    // Counts are compared among measured rounds: the warm-up round
    // also pays for lazy registrations that later scrapes then cover.
    if (untraced.empty() && traced.empty()) counts = round.counts;
    for (const auto& [key, value] : counts) {
      if (!same_bits(round.counts[key], value)) {
        errors.push_back(std::string("count ") + key + " differs in a " +
                         kind + ": " + std::to_string(round.counts[key]) +
                         " vs " + std::to_string(value));
      }
    }
    bucket.push_back(std::move(round));
  }
  if (options.trace && !options.spans_path.empty() &&
      !spans.write_tsv(options.spans_path)) {
    errors.push_back("cannot write spans to " + options.spans_path);
  }

  std::vector<Round*> measured;
  for (auto& round : untraced) measured.push_back(&round);
  for (auto& round : traced) measured.push_back(&round);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setups;
  for (const Round* round : measured) {
    attempted += round->attempted;
    failed += round->failed;
    setups.push_back(round->setup_s);
  }
  // Set-up is timed more often than the rounds run, so its median is
  // steady even where a round is long or set-up is short.
  const std::int64_t extra_start = now_ns();
  while (setups.size() < kSetupSamples &&
         seconds_since(extra_start) < kSetupExtraSeconds) {
    spans.reset(false);
    setups.push_back(run_round(options, spans, Phase::kSetupOnly).setup_s);
  }
  std::vector<double> rates;
  std::vector<double> timed;
  std::vector<double> recovers;
  std::vector<double> ops;
  for (const Round& round : untraced) {
    rates.push_back(round.work / round.timed_s);
    timed.push_back(round.timed_s);
    recovers.push_back(round.recover_s);
    ops.insert(ops.end(), round.op_us.begin(), round.op_us.end());
  }
  std::sort(ops.begin(), ops.end());

  std::map<std::string, double> e2e;
  e2e["throughput"] = median(rates);
  e2e["op_p50_us"] = percentile(ops, 50.0);
  e2e["op_p90_us"] = percentile(ops, 90.0);
  e2e["setup_s"] = median(setups);
  e2e["peak_rss_mb"] = peak_rss_mb();

  std::map<std::string, double> report;
  report["op_p99_us"] = percentile(ops, 99.0);
  report["op_samples"] = static_cast<double>(ops.size());
  report["recover_s"] = median(recovers);
  report["failed_frac"] =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0.0;

  // Layers a workload leaves idle are absent here and read 0 in run.py.
  std::map<std::string, double> layers = counts;
  if (options.trace) {
    std::map<std::string, std::vector<double>> per_metric;
    std::vector<double> traced_timed;
    for (const Round& round : traced) {
      for (const auto& [metric, value] : round.seconds) {
        per_metric[metric].push_back(value);
      }
      traced_timed.push_back(round.timed_s);
    }
    for (const auto& [metric, values] : per_metric) {
      layers[metric] = median(values);
    }
    layers["trace.overhead_frac"] = median(traced_timed) / median(timed) - 1.0;
  }

  const bool correct = errors.empty();
  std::string out = "{\"workload\": " + json_string(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"rounds\": " + std::to_string(untraced.size()) +
                    ", \"traced_rounds\": " + std::to_string(traced.size()) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(errors[i]);
  }
  out += "], \"check\": {";
  bool first = true;
  for (const auto& [key, value] : reference.check) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  out += "}, \"e2e\": " + json_object(e2e) +
         ", \"report\": " + json_object(report) +
         ", \"layers\": " + json_object(layers) + "}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: wadp_perfbench --workload "
               "campaign|simgrid|serve|ingest --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--spans FILE]\n",
               error);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        return perfbench::usage("unknown flag");
      }
    } catch (const std::exception&) {
      return perfbench::usage("bad flag value");
    }
  }
  if (argc % 2 == 0) return perfbench::usage("flag without a value");
  const std::vector<std::string> known = {"campaign", "simgrid", "serve",
                                          "ingest"};
  if (std::find(known.begin(), known.end(), options.workload) == known.end()) {
    return perfbench::usage("unknown workload");
  }
  return perfbench::run(options);
}
