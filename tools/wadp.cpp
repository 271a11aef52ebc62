// wadp — command-line front end to the prediction framework.
//
//   wadp campaign  --campaign aug|dec --seed N --days D --out DIR
//       run a controlled measurement campaign, write ULM logs per link
//   wadp simgrid   --sites N --links M --scenario NAME --duration S
//       grid-scale fabric demo: random topology, synthetic traffic
//   wadp analyze   LOG [--training N] [--extended]
//       evaluate the predictor battery over a log, rank the leaders
//   wadp predict   LOG --size BYTES [--predictor NAME] [--extended]
//       one prediction from a log, the way a broker would ask
//   wadp provider  LOG [--host HOST]
//       print the MDS information-provider LDIF for a log
//   wadp classes   LOG
//       per-size-class measurement summary (Fig. 7 style)
//   wadp metrics   [LOG] [--json|--ulm]
//       drive the instrumented stack, dump the metrics registry
//   wadp trace     [LOG] [--ulm] [--limit N]
//       same drive, print the recorded span trees
//   wadp history   [LOG] [--json]
//       history-store statistics: series, per-shard sizes, epochs
//   wadp durability [--campaign aug|dec] [--seed N] [--days D]
//                   [--out DIR] [--json]
//       WAL + snapshot + crash recovery demo: ingest through the
//       durability plane, recover, verify bit-identical state
//   wadp resilience [--rate PCT] [--transfers N] [--seed N]
//       single-shot vs retry+failover under injected faults
//   wadp quality   [--transfers N] [--shift N] [--seed N] [--json]
//       closed-loop demo: online accuracy join, drift alarm, demotion
//   wadp trace --quality [--tree ID]
//       span tree of one traced fetch from the quality demo
//   wadp health    [--rate PCT] [--transfers N] [--interval S] [--json]
//       SLO rule table over a recorded incident drive; --capture DIR
//       also dumps a flight-recorder bundle
//   wadp top       [--limit N] [--interval S] [--json]
//       one-shot ranked view: hottest series and worst SLOs
//
// Every subcommand is deterministic given its inputs; simulated
// campaigns never touch the network.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/quality_demo.hpp"
#include "core/wadp.hpp"
#include "durability/manager.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serving/frontend.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/gridworld.hpp"

namespace {

using namespace wadp;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  wadp campaign  [--campaign aug|dec] [--seed N] [--days D] "
               "[--out DIR]\n"
               "  wadp simgrid   [--sites N] [--links M] [--flows CAP] "
               "[--duration S]\n"
               "                 [--scenario uniform|flash-crowd|diurnal] "
               "[--rate R] [--seed N] [--json]\n"
               "  wadp analyze   LOG [--training N] [--extended]\n"
               "  wadp predict   LOG --size BYTES [--predictor NAME] "
               "[--extended]\n"
               "  wadp provider  LOG [--host HOST]\n"
               "  wadp classes   LOG\n"
               "  wadp probe     [--seed N] [--days D] [--out FILE]\n"
               "  wadp metrics   [LOG] [--campaign aug|dec] [--seed N] "
               "[--days D] [--json|--ulm]\n"
               "  wadp trace     [LOG] [--campaign aug|dec] [--seed N] "
               "[--days D] [--ulm] [--limit N]\n"
               "  wadp history   [LOG] [--campaign aug|dec] [--seed N] "
               "[--days D] [--json]\n"
               "  wadp durability [--campaign aug|dec] [--seed N] [--days D] "
               "[--out DIR] [--json]\n"
               "  wadp resilience [--rate PCT] [--transfers N] [--seed N]\n"
               "  wadp quality   [--transfers N] [--shift N] [--seed N] "
               "[--limit N] [--json]\n"
               "  wadp trace     --quality [--tree ID] [--limit N]\n"
               "  wadp serve     [--queries N] [--batch N] [--files N] "
               "[--overload X] [--seed N]\n"
               "  wadp health    [--rate PCT] [--transfers N] [--interval S] "
               "[--seed N] [--capture DIR] [--json]\n"
               "  wadp top       [--limit N] [--rate PCT] [--transfers N] "
               "[--interval S] [--seed N] [--json]\n");
  return error != nullptr ? 2 : 0;
}

/// Integer flag `name`, or `fallback` when absent.  A value that is
/// not an integer in [lo, hi] sets *error (first one wins) so the verb
/// returns usage(), exit 2, before it builds any config: hostile flags
/// must never reach a WADP_CHECK.
std::int64_t int_flag(const util::ArgParser& args, const char* name,
                      std::int64_t fallback, std::int64_t lo, std::int64_t hi,
                      std::string* error) {
  if (!args.get(name)) return fallback;
  const auto value = args.get_int(name);
  if (value && *value >= lo && *value <= hi) return *value;
  if (error->empty()) {
    *error = util::format("--%s must be an integer in [%lld, %lld]", name,
                          static_cast<long long>(lo),
                          static_cast<long long>(hi));
  }
  return fallback;
}

/// Campaign length bound shared by every verb that simulates one.
constexpr std::int64_t kMaxDays = 3650;

Expected<gridftp::TransferLog> load_log(const util::ArgParser& args) {
  if (args.positionals().size() < 2) {
    return Expected<gridftp::TransferLog>::failure("missing LOG argument");
  }
  return gridftp::TransferLog::load(args.positionals()[1]);
}

// unique_ptr: the service owns a mutex now, so it no longer moves.
std::unique_ptr<core::PredictionService> make_service(
    const util::ArgParser& args, const gridftp::TransferLog& log) {
  core::ServiceConfig config;
  if (args.has("extended")) {
    config.battery = core::ServiceConfig::Battery::kExtended;
  }
  if (const auto training = args.get_int("training")) {
    config.training_count = static_cast<std::size_t>(*training);
  }
  auto service = std::make_unique<core::PredictionService>(config);
  service->ingest_log(log);
  return service;
}

int cmd_campaign(const util::ArgParser& args) {
  const auto campaign = args.get_or("campaign", "aug") == "dec"
                            ? workload::Campaign::kDecember2001
                            : workload::Campaign::kAugust2001;
  std::string bad;
  const auto days = int_flag(args, "days", 14, 1, kMaxDays, &bad);
  if (!bad.empty()) return usage(bad.c_str());
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  workload::CampaignConfig config;
  config.days = static_cast<int>(days);
  const std::string out_dir = args.get_or("out", "traces");

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Health plane over the campaign: hourly sim-time scrapes keep a
  // trail of the gridftp client/server counters the run produces.
  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  config.health_interval = 3600.0;
  monitor.add_rules(obs::HealthMonitor::builtin_rules(config.health_interval));
  config.health_tick = [&recorder, &monitor](SimTime now) {
    recorder.scrape(now);
    monitor.evaluate(now);
  };

  auto result = workload::run_paper_campaign(campaign, seed, config);
  for (const char* site : {"lbl", "isi"}) {
    const auto& log = result.testbed->server(site).log();
    const auto path = out_dir + "/gridftp-" + site + "-anl.ulm";
    const auto saved = log.save(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.error().c_str());
      return 1;
    }
    std::printf("%s: %zu transfers\n", path.c_str(), log.size());
  }
  std::printf("health: %llu scrapes, %zu series, %zu rule(s) firing\n",
              static_cast<unsigned long long>(recorder.scrapes()),
              recorder.series_count(), monitor.firing_count());
  return 0;
}

/// Grid-scale fabric demo: seeded random topology, synthetic scenario,
/// event core + incremental allocator in their lazy grid configuration.
int cmd_simgrid(const util::ArgParser& args) {
  std::string bad;
  const auto sites = int_flag(args, "sites", 24, 2, 100'000, &bad);
  const auto links = int_flag(args, "links", 60, 1, 10'000'000, &bad);
  const auto duration = int_flag(args, "duration", 120, 1, 10'000'000, &bad);
  const auto rate = int_flag(args, "rate", 0, 1, 1'000'000, &bad);
  const auto flows = int_flag(args, "flows", 0, 1, 100'000'000, &bad);
  if (bad.empty() && links + 1 < sites) {
    bad = "--links must be at least --sites - 1 (the grid is connected)";
  }
  if (!bad.empty()) return usage(bad.c_str());

  workload::GridSpec spec;
  spec.sites = static_cast<std::size_t>(sites);
  spec.links = static_cast<std::size_t>(links);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));

  workload::ScenarioConfig scenario;
  const auto parsed_scenario =
      workload::parse_scenario(args.get_or("scenario", "uniform"));
  if (!parsed_scenario.has_value()) {
    return usage("unknown scenario (uniform|flash-crowd|diurnal)");
  }
  scenario.scenario = *parsed_scenario;
  scenario.duration = static_cast<Duration>(duration);
  if (args.get("rate")) {
    scenario.arrivals_per_second = static_cast<double>(rate);
  }
  if (args.get("flows")) {
    scenario.max_concurrent = static_cast<std::size_t>(flows);
  }

  // Health plane riding along: scrape + evaluate on a sim-time cadence
  // scaled to the scenario (~60 ticks over the run).
  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  scenario.health_interval = std::max(1.0, scenario.duration / 60.0);
  monitor.add_rules(
      obs::HealthMonitor::builtin_rules(scenario.health_interval));
  scenario.health_tick = [&recorder, &monitor](SimTime now) {
    recorder.scrape(now);
    monitor.evaluate(now);
  };

  workload::GridWorld world(spec, seed);
  const auto summary = world.run(scenario, seed ^ 0x5ce0ULL);
  const auto& alloc = summary.alloc;

  if (args.has("json")) {
    std::printf(
        "{\n"
        "  \"sites\": %zu,\n"
        "  \"links\": %zu,\n"
        "  \"scenario\": \"%s\",\n"
        "  \"sim_seconds\": %.1f,\n"
        "  \"flows_started\": %llu,\n"
        "  \"flows_completed\": %llu,\n"
        "  \"flows_shed\": %llu,\n"
        "  \"peak_concurrent\": %zu,\n"
        "  \"active_at_end\": %zu,\n"
        "  \"bytes_moved\": %.0f,\n"
        "  \"utilization_max\": %.4f,\n"
        "  \"utilization_mean\": %.4f,\n"
        "  \"reallocs\": %llu,\n"
        "  \"realloc_components\": %llu,\n"
        "  \"realloc_flow_entries\": %llu,\n"
        "  \"waterfill_visits\": %llu,\n"
        "  \"sweeps\": %llu,\n"
        "  \"alloc_ms\": %.3f,\n"
        "  \"wall_ms\": %llu,\n"
        "  \"health_scrapes\": %llu,\n"
        "  \"ts_series\": %zu,\n"
        "  \"rules_firing\": %zu\n"
        "}\n",
        world.topology().site_count(), world.topology().link_count(),
        util::json_escape(workload::scenario_name(scenario.scenario)).c_str(),
        summary.sim_elapsed,
        static_cast<unsigned long long>(summary.flows_started),
        static_cast<unsigned long long>(summary.flows_completed),
        static_cast<unsigned long long>(summary.flows_shed),
        summary.peak_concurrent, summary.active_at_end, summary.bytes_moved,
        summary.utilization.max, summary.utilization.mean,
        static_cast<unsigned long long>(alloc.reallocs),
        static_cast<unsigned long long>(alloc.components),
        static_cast<unsigned long long>(alloc.flows_touched),
        static_cast<unsigned long long>(alloc.waterfill_visits),
        static_cast<unsigned long long>(alloc.sweeps),
        static_cast<double>(alloc.alloc_ns) / 1e6,
        static_cast<unsigned long long>(summary.wall_ms),
        static_cast<unsigned long long>(recorder.scrapes()),
        recorder.series_count(), monitor.firing_count());
    return 0;
  }

  std::printf("grid scenario: %zu sites, %zu links, %s, %.0f sim-seconds\n",
              world.topology().site_count(), world.topology().link_count(),
              workload::scenario_name(scenario.scenario),
              summary.sim_elapsed);
  util::TextTable table({"metric", "value"});
  table.add_row({"flows started", std::to_string(summary.flows_started)});
  table.add_row({"flows completed", std::to_string(summary.flows_completed)});
  table.add_row({"flows shed", std::to_string(summary.flows_shed)});
  table.add_row({"peak concurrent", std::to_string(summary.peak_concurrent)});
  table.add_row({"active at end", std::to_string(summary.active_at_end)});
  table.add_row({"bytes moved", util::format_bytes(static_cast<std::uint64_t>(
                                    summary.bytes_moved))});
  table.add_row({"link util max",
                 util::format("%.1f%%", summary.utilization.max * 100.0)});
  table.add_row({"link util mean",
                 util::format("%.1f%%", summary.utilization.mean * 100.0)});
  table.add_row({"reallocations", std::to_string(alloc.reallocs)});
  table.add_row({"dirty components", std::to_string(alloc.components)});
  table.add_row({"flow entries", std::to_string(alloc.flows_touched)});
  table.add_row({"waterfill visits", std::to_string(alloc.waterfill_visits)});
  table.add_row({"coalescing sweeps", std::to_string(alloc.sweeps)});
  table.add_row({"allocator time",
                 util::format("%.3f ms",
                              static_cast<double>(alloc.alloc_ns) / 1e6)});
  table.add_row({"wall time",
                 util::format("%llu ms", static_cast<unsigned long long>(
                                             summary.wall_ms))});
  table.add_row({"health scrapes", std::to_string(recorder.scrapes())});
  table.add_row({"series recorded", std::to_string(recorder.series_count())});
  table.add_row({"SLO rules firing", std::to_string(monitor.firing_count())});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_analyze(const util::ArgParser& args) {
  auto log = load_log(args);
  if (!log.ok()) return usage(log.error().c_str());
  const auto service = make_service(args, log.value());

  for (const auto& key : service->series_keys()) {
    const auto evaluation = service->evaluate(key);
    std::printf("series %s: %zu observations\n", key.to_string().c_str(),
                service->series(key).size());
    if (!evaluation) {
      std::printf("  (too short to evaluate)\n");
      continue;
    }
    std::vector<std::pair<double, std::string>> ranking;
    for (std::size_t p = 0; p < evaluation->predictor_names().size(); ++p) {
      if (evaluation->errors(p).count() == 0) continue;
      ranking.emplace_back(evaluation->errors(p).mean(),
                           evaluation->predictor_names()[p]);
    }
    std::sort(ranking.begin(), ranking.end());
    util::TextTable table({"rank", "predictor", "mean % error", "p50", "p90",
                           "best %", "worst %"});
    table.set_align(1, util::TextTable::Align::Left);
    for (std::size_t i = 0; i < ranking.size() && i < 10; ++i) {
      const auto index = *evaluation->index_of(ranking[i].second);
      const auto errors = predict::error_values(*evaluation, index);
      table.add_row({std::to_string(i + 1), ranking[i].second,
                     util::format("%.1f", ranking[i].first),
                     util::format("%.1f", util::quantile(errors, 0.5).value_or(0)),
                     util::format("%.1f", util::quantile(errors, 0.9).value_or(0)),
                     util::format("%.1f", evaluation->relative(index).best_pct()),
                     util::format("%.1f",
                                  evaluation->relative(index).worst_pct())});
    }
    std::printf("%s\n", table.render().c_str());
  }
  return 0;
}

int cmd_predict(const util::ArgParser& args) {
  auto log = load_log(args);
  if (!log.ok()) return usage(log.error().c_str());
  const auto size = args.get_int("size");
  if (!size || *size <= 0) return usage("--size BYTES required");
  const auto service = make_service(args, log.value());

  const std::string predictor = args.get_or("predictor", "");
  bool answered = false;
  for (const auto& key : service->series_keys()) {
    const auto series = service->series(key);
    if (series.empty()) continue;
    const SimTime now = series.back().time + 1.0;
    const auto prediction =
        service->predict(key, static_cast<Bytes>(*size), now, predictor);
    if (!prediction) continue;
    answered = true;
    std::printf("%s: %.2f MB/s (%s, %zu observations)\n",
                key.to_string().c_str(), to_mb_per_sec(*prediction),
                predictor.empty() ? service->config().default_predictor.c_str()
                                  : predictor.c_str(),
                series.size());
  }
  if (!answered) {
    std::fprintf(stderr, "no series could answer (too little history, or "
                         "unknown predictor)\n");
    return 1;
  }
  return 0;
}

int cmd_provider(const util::ArgParser& args) {
  auto log = load_log(args);
  if (!log.ok()) return usage(log.error().c_str());
  if (log.value().empty()) return usage("log is empty");
  const std::string host = args.get_or(
      "host", std::string(log.value().records().front().host));

  // Rebuild a server around the log so the provider can publish it.
  storage::StorageParams storage_params;
  storage_params.local_load.reset();
  storage::StorageSystem store("site", storage_params, 1, 0.0);
  gridftp::GridFtpServer server({.site = "site", .host = host, .ip = "0.0.0.0"},
                                store);
  server.fs().add_volume("/");
  SimTime latest = 0.0;
  for (const auto& record : log.value().records()) {
    server.record_transfer(record.source_ip, record.file_name,
                           record.file_size, record.start_time,
                           record.end_time, record.op, record.streams,
                           record.tcp_buffer);
    latest = std::max(latest, record.end_time);
  }
  mds::GridFtpInfoProvider provider(
      server,
      {.base = *mds::Dn::parse("hostname=" + host + ", o=grid")});
  for (const auto& entry : provider.provide(latest + 1.0)) {
    std::printf("%s\n", entry.to_ldif().c_str());
  }
  return 0;
}

int cmd_classes(const util::ArgParser& args) {
  auto log = load_log(args);
  if (!log.ok()) return usage(log.error().c_str());
  const auto series =
      history::observations_from_records(log.value().records(), {});
  const auto classifier = predict::SizeClassifier::paper_classes();
  const auto counts = workload::count_by_class(series, classifier);

  util::TextTable table({"class", "n", "bw MB/s (min/mean/max)"});
  table.set_align(0, util::TextTable::Align::Left);
  for (int cls = 0; cls < classifier.num_classes(); ++cls) {
    util::RunningStats bw;
    for (const auto& o : series) {
      if (classifier.classify(o.file_size) == cls) {
        bw.add(to_mb_per_sec(o.value));
      }
    }
    table.add_row(
        {classifier.class_label(cls) + " (" + classifier.class_name(cls) + ")",
         std::to_string(counts.per_class[static_cast<std::size_t>(cls)]),
         bw.count() ? util::format("%.2f / %.2f / %.2f", bw.min(), bw.mean(),
                                   bw.max())
                    : std::string("-")});
  }
  std::printf("total read transfers: %zu\n\n%s", counts.total,
              table.render().c_str());
  return 0;
}

int cmd_probe(const util::ArgParser& args) {
  // NWS sensors over every testbed path; dump the memory as trace text.
  std::string bad;
  const auto days = int_flag(args, "days", 1, 1, kMaxDays, &bad);
  if (!bad.empty()) return usage(bad.c_str());
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  workload::Testbed testbed(workload::Campaign::kAugust2001, seed);
  core::FabricConfig config;
  config.deploy_nws = true;
  core::InformationFabric fabric(testbed, config);
  testbed.sim().run_until(testbed.start_time() +
                          static_cast<double>(days) * 86400.0);
  fabric.absorb_probes();

  // Merge per-site memories for output.
  nws::NwsMemory merged(0);
  for (const auto& site : testbed.sites()) {
    auto& memory = fabric.probe_memory(site);
    for (const auto& experiment : memory.experiments()) {
      for (const auto& m : memory.series(experiment)) {
        merged.store(experiment, m);
      }
    }
  }
  if (const auto out = args.get("out")) {
    const auto saved = merged.save(*out);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.error().c_str());
      return 1;
    }
    std::printf("wrote %zu measurements across %zu experiments to %s\n",
                merged.total_measurements(), merged.experiments().size(),
                out->c_str());
    return 0;
  }
  util::TextTable table({"experiment", "probes", "latest KB/s"});
  table.set_align(0, util::TextTable::Align::Left);
  for (const auto& experiment : merged.experiments()) {
    const auto series = merged.series(experiment);
    table.add_row({experiment, std::to_string(series.size()),
                   util::format("%.1f", to_kb_per_sec(series.back().value))});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Drives the instrumented stack so `metrics`/`trace` have live signal:
/// with a LOG, ingest it; otherwise run a short simulated campaign
/// (servers log transfers and the client records lifecycle spans), then
/// ask every battery member one question per series so the predict path
/// (ingest -> classify -> battery update -> query) fires too.
int drive_instrumented(const util::ArgParser& args) {
  std::string bad;
  const auto days = int_flag(args, "days", 2, 1, kMaxDays, &bad);
  if (!bad.empty()) return usage(bad.c_str());
  core::PredictionService service;
  if (args.positionals().size() > 1) {
    auto log = load_log(args);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.error().c_str());
      return 1;
    }
    service.ingest_log(log.value());
  } else {
    const auto campaign = args.get_or("campaign", "aug") == "dec"
                              ? workload::Campaign::kDecember2001
                              : workload::Campaign::kAugust2001;
    const auto seed =
        static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
    workload::CampaignConfig config;
    config.days = static_cast<int>(days);
    const auto result = workload::run_paper_campaign(campaign, seed, config);
    for (const char* site : {"lbl", "isi"}) {
      service.ingest_log(result.testbed->server(site).log());
    }
  }
  for (const auto& key : service.series_keys()) {
    const auto series = service.series(key);
    if (series.empty()) continue;
    service.predict_all(key, 100 * 1000 * 1000, series.back().time + 1.0);
  }
  return 0;
}

int cmd_metrics(const util::ArgParser& args) {
  if (const int rc = drive_instrumented(args); rc != 0) return rc;
  const auto& registry = obs::Registry::global();
  if (args.has("json")) {
    std::printf("%s\n", obs::to_json(registry).c_str());
  } else if (args.has("ulm")) {
    std::printf("%s", obs::metrics_to_ulm(registry).c_str());
  } else {
    std::printf("%s", obs::to_prometheus(registry).c_str());
  }
  return 0;
}

int cmd_trace(const util::ArgParser& args) {
  std::uint64_t want_trace = 0;
  if (args.has("quality")) {
    // Drive the closed-loop demo instead of a campaign; default to the
    // last fetch's trace so `wadp trace --quality` renders one request
    // end to end (select -> predict -> attempts -> ingest).
    core::QualityDemoConfig config;
    config.seed =
        static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
    const auto result = core::run_quality_demo(config);
    if (!result.trace_ids.empty()) want_trace = result.trace_ids.back();
  } else if (const int rc = drive_instrumented(args); rc != 0) {
    return rc;
  }
  if (const auto tree = args.get_int("tree"); tree && *tree > 0) {
    want_trace = static_cast<std::uint64_t>(*tree);
  }
  const auto& tracer = obs::Tracer::global();
  if (args.has("ulm")) {
    std::printf("%s", obs::spans_to_ulm(tracer).c_str());
    return 0;
  }

  auto spans = tracer.finished();
  if (want_trace != 0) {
    std::erase_if(spans, [want_trace](const obs::SpanRecord& span) {
      return span.trace_id != want_trace;
    });
    std::printf("trace %llu: %zu spans\n",
                static_cast<unsigned long long>(want_trace), spans.size());
  }
  std::map<obs::SpanId, std::vector<std::size_t>> children;
  std::map<obs::SpanId, std::size_t> by_id;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // A parent evicted from the ring orphans its children; show them as
    // roots rather than dropping them.
    if (spans[i].parent != 0 && by_id.count(spans[i].parent)) {
      children[spans[i].parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  const auto limit =
      static_cast<std::size_t>(args.get_int("limit").value_or(10));
  const std::size_t first = roots.size() > limit ? roots.size() - limit : 0;
  const std::function<void(std::size_t, int)> print_tree =
      [&](std::size_t index, int depth) {
        const auto& span = spans[index];
        std::string attrs;
        for (const auto& [key, value] : span.attrs) {
          attrs += util::format(" %s=%s", key.c_str(), value.c_str());
        }
        std::printf("%*s%s  %.3f ms%s\n", depth * 2, "", span.name.c_str(),
                    static_cast<double>(span.duration_ns()) * 1e-6,
                    attrs.c_str());
        for (const std::size_t child : children[span.id]) {
          print_tree(child, depth + 1);
        }
      };
  std::printf("%zu spans recorded (%llu total); showing last %zu trees\n",
              spans.size(),
              static_cast<unsigned long long>(tracer.recorded_total()),
              roots.size() - first);
  for (std::size_t r = first; r < roots.size(); ++r) print_tree(roots[r], 0);
  return 0;
}

int cmd_history(const util::ArgParser& args) {
  // Same drive as metrics/trace: ingest a LOG when given, otherwise a
  // short simulated campaign — then dump the store itself.
  std::string bad;
  const auto days = int_flag(args, "days", 2, 1, kMaxDays, &bad);
  if (!bad.empty()) return usage(bad.c_str());
  core::PredictionService service;
  if (args.positionals().size() > 1) {
    auto log = load_log(args);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.error().c_str());
      return 1;
    }
    service.ingest_log(log.value());
  } else {
    const auto campaign = args.get_or("campaign", "aug") == "dec"
                              ? workload::Campaign::kDecember2001
                              : workload::Campaign::kAugust2001;
    const auto seed =
        static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
    workload::CampaignConfig config;
    config.days = static_cast<int>(days);
    const auto result = workload::run_paper_campaign(campaign, seed, config);
    for (const char* site : {"lbl", "isi"}) {
      service.ingest_log(result.testbed->server(site).log());
    }
  }

  const auto& store = service.history();
  const auto shards = store.shard_stats();
  const auto series = store.series_info();

  if (args.has("json")) {
    std::string json = util::format(
        "{\"shard_count\": %zu, \"series_count\": %zu, "
        "\"total_observations\": %zu, \"shards\": [",
        store.shard_count(), store.series_count(),
        store.total_observations());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (i > 0) json += ", ";
      json += util::format(
          "{\"index\": %zu, \"series\": %zu, \"observations\": %zu, "
          "\"appends\": %llu}",
          shards[i].index, shards[i].series_count,
          shards[i].observation_count,
          static_cast<unsigned long long>(shards[i].appends));
    }
    json += "], \"series\": [";
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (i > 0) json += ", ";
      json += util::format(
          "{\"key\": \"%s\", \"shard\": %zu, \"observations\": %zu, "
          "\"epoch\": %llu, \"generation\": %llu, \"evicted\": %llu}",
          util::json_escape(series[i].key.to_string()).c_str(), series[i].shard,
          series[i].observations,
          static_cast<unsigned long long>(series[i].epoch),
          static_cast<unsigned long long>(series[i].generation),
          static_cast<unsigned long long>(series[i].evicted));
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  std::printf("%zu series, %zu observations, %zu shards\n\n",
              store.series_count(), store.total_observations(),
              store.shard_count());
  util::TextTable shard_table({"shard", "series", "observations", "appends"});
  for (const auto& s : shards) {
    if (s.series_count == 0 && s.appends == 0) continue;  // skip idle shards
    shard_table.add_row({std::to_string(s.index),
                         std::to_string(s.series_count),
                         std::to_string(s.observation_count),
                         std::to_string(s.appends)});
  }
  std::printf("%s\n", shard_table.render().c_str());

  util::TextTable series_table(
      {"series", "shard", "observations", "epoch", "generation", "evicted"});
  series_table.set_align(0, util::TextTable::Align::Left);
  for (const auto& info : series) {
    series_table.add_row(
        {info.key.to_string(), std::to_string(info.shard),
         std::to_string(info.observations), std::to_string(info.epoch),
         std::to_string(info.generation), std::to_string(info.evicted)});
  }
  std::printf("%s", series_table.render().c_str());
  return 0;
}

/// Demonstrates the durability plane end to end: a campaign ingests
/// through a WAL-attached store with a snapshot midway, the process
/// "crashes", recovery rebuilds a fresh store from snapshot + WAL
/// tail, and the result is verified bit-identical to the original.
int cmd_durability(const util::ArgParser& args) {
  const auto campaign = args.get_or("campaign", "aug") == "dec"
                            ? workload::Campaign::kDecember2001
                            : workload::Campaign::kAugust2001;
  std::string bad;
  const auto days = int_flag(args, "days", 2, 1, kMaxDays, &bad);
  if (!bad.empty()) return usage(bad.c_str());
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  workload::CampaignConfig campaign_config;
  campaign_config.days = static_cast<int>(days);
  const auto result =
      workload::run_paper_campaign(campaign, seed, campaign_config);

  namespace fs = std::filesystem;
  const std::string root = args.get_or(
      "out", (fs::temp_directory_path() / "wadp_durability_demo").string());
  std::error_code ec;
  fs::remove_all(root, ec);  // each run demonstrates from scratch

  history::StoreConfig store_config;
  store_config.dedupe_records = true;
  auto store = std::make_shared<history::HistoryStore>(store_config);
  durability::DurabilityConfig dconfig;
  dconfig.dir = root;
  dconfig.fsync = durability::FsyncPolicy::kBatch;
  durability::DurabilityManager manager(store, dconfig);
  manager.attach();

  // Phase 1 ingests one site's log, a snapshot seals it; phase 2 is
  // the tail only the WAL holds when the "crash" happens.
  store->ingest_log(result.testbed->server("lbl").log());
  const auto snapshot = manager.snapshot_now();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", snapshot.error().c_str());
    return 1;
  }
  store->ingest_log(result.testbed->server("isi").log());
  manager.flush();

  auto recovered = std::make_shared<history::HistoryStore>(store_config);
  const auto recovery = durability::DurabilityManager::recover(root, *recovered);
  if (!recovery.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", recovery.error().c_str());
    return 1;
  }
  const auto& rec = recovery.value();

  bool identical = recovered->keys() == store->keys() &&
                   recovered->total_observations() == store->total_observations();
  if (identical) {
    for (const auto& key : store->keys()) {
      const auto before = store->snapshot(key);
      const auto after = recovered->snapshot(key);
      if (after.observations() != before.observations() ||
          after.epoch() != before.epoch() ||
          after.generation() != before.generation()) {
        identical = false;
        break;
      }
    }
  }

  core::PredictionService service(recovered);
  const std::size_t warmed = service.warm_up();
  const auto status = manager.status();

  if (args.has("json")) {
    std::printf(
        "{\"dir\": \"%s\", "
        "\"wal\": {\"bytes\": %llu, \"segments\": %zu, \"appends\": %llu, "
        "\"batches\": %llu, \"fsyncs\": %llu, \"last_lsn\": %llu, "
        "\"fsync_policy\": \"%s\"}, "
        "\"snapshot\": {\"seq\": %llu, \"sealed_lsn\": %llu, \"series\": %zu, "
        "\"observations\": %zu, \"bytes\": %llu, \"age_seconds\": %.3f}, "
        "\"recovery\": {\"snapshot_loaded\": %s, \"frames_replayed\": %zu, "
        "\"records_applied\": %zu, \"records_deduped\": %zu, "
        "\"torn_frames\": %zu, \"seconds\": %.6f}, "
        "\"recovered_identical\": %s, \"batteries_warmed\": %zu}\n",
        util::json_escape(root).c_str(),
        static_cast<unsigned long long>(status.wal_bytes),
        status.wal.segments,
        static_cast<unsigned long long>(status.wal.appended),
        static_cast<unsigned long long>(status.wal.batches),
        static_cast<unsigned long long>(status.wal.fsyncs),
        static_cast<unsigned long long>(status.wal.last_lsn),
        util::json_escape(durability::to_string(dconfig.fsync)).c_str(),
        static_cast<unsigned long long>(snapshot.value().seq),
        static_cast<unsigned long long>(snapshot.value().sealed_lsn),
        snapshot.value().series, snapshot.value().observations,
        static_cast<unsigned long long>(snapshot.value().bytes),
        status.snapshot_age_seconds, rec.snapshot_loaded ? "true" : "false",
        rec.frames_replayed, rec.records_applied, rec.records_deduped,
        rec.torn_frames, rec.seconds, identical ? "true" : "false", warmed);
    return identical ? 0 : 1;
  }

  std::printf("durability plane @ %s\n\n", root.c_str());
  util::TextTable wal_table({"write-ahead log", "value"});
  wal_table.set_align(0, util::TextTable::Align::Left);
  wal_table.add_row({"records appended", std::to_string(status.wal.appended)});
  wal_table.add_row({"commit batches", std::to_string(status.wal.batches)});
  wal_table.add_row({"fsyncs", std::to_string(status.wal.fsyncs)});
  wal_table.add_row({"fsync policy", durability::to_string(dconfig.fsync)});
  wal_table.add_row({"segments on disk", std::to_string(status.wal.segments)});
  wal_table.add_row({"bytes on disk", util::format_bytes(status.wal_bytes)});
  std::printf("%s\n", wal_table.render().c_str());

  util::TextTable snap_table({"snapshot", "value"});
  snap_table.set_align(0, util::TextTable::Align::Left);
  snap_table.add_row({"sequence", std::to_string(snapshot.value().seq)});
  snap_table.add_row(
      {"sealed lsn", std::to_string(snapshot.value().sealed_lsn)});
  snap_table.add_row({"series", std::to_string(snapshot.value().series)});
  snap_table.add_row(
      {"observations", std::to_string(snapshot.value().observations)});
  snap_table.add_row({"bytes", util::format_bytes(snapshot.value().bytes)});
  snap_table.add_row(
      {"age", util::format("%.3f s", status.snapshot_age_seconds)});
  std::printf("%s\n", snap_table.render().c_str());

  util::TextTable rec_table({"recovery", "value"});
  rec_table.set_align(0, util::TextTable::Align::Left);
  rec_table.add_row(
      {"snapshot loaded", rec.snapshot_loaded ? "yes" : "no"});
  rec_table.add_row({"frames replayed", std::to_string(rec.frames_replayed)});
  rec_table.add_row({"records applied", std::to_string(rec.records_applied)});
  rec_table.add_row({"records deduped", std::to_string(rec.records_deduped)});
  rec_table.add_row({"torn frames", std::to_string(rec.torn_frames)});
  rec_table.add_row({"wall time", util::format("%.3f ms", rec.seconds * 1e3)});
  rec_table.add_row({"batteries warmed", std::to_string(warmed)});
  std::printf("%s\n", rec_table.render().c_str());

  std::printf("recovered state bit-identical: %s\n",
              identical ? "yes" : "NO — durability contract violated");
  return identical ? 0 : 1;
}

/// Outcome tallies of one fault drive (see run_fault_drive).
struct FaultDriveStats {
  int ok = 0;
  util::RunningStats start_delay;
  SimTime end = 0.0;  ///< issue horizon the drive ran to
};

/// Drives the two-replica delivery stack (the resilience-plane world:
/// gridftp client + servers, MDS, broker, failover fetcher) under a
/// seeded fault injector for `transfers` fetches.  `attach`, when
/// non-null, runs after the world is built and before the simulation
/// drains — health drives hang their scrape/evaluate PeriodicTask
/// there, bounded by the passed issue horizon so sim.run() still
/// terminates.
FaultDriveStats run_fault_drive(
    double rate, int transfers, std::uint64_t seed, bool resilient,
    const std::function<void(sim::Simulator&, SimTime end)>& attach =
        nullptr) {
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
  gridftp::GridFtpServer lbl(
      {.site = "lbl", .host = "dpsslx04.lbl.gov", .ip = "131.243.2.91"},
      lbl_store);
  gridftp::GridFtpServer isi(
      {.site = "isi", .host = "jet.isi.edu", .ip = "128.9.160.100"},
      isi_store);
  const std::string client_ip = "140.221.65.69";
  constexpr Bytes kFileSize = 10 * kMB;
  for (gridftp::GridFtpServer* s : {&lbl, &isi}) {
    s->fs().add_volume("/data");
    s->fs().add_file("/data/demo", kFileSize);
  }
  for (int i = 0; i < 5; ++i) {
    const double t = 100.0 * i;
    lbl.record_transfer(client_ip, "/data/demo", kFileSize, t, t + 1.25,
                        gridftp::Operation::kRead, 8, 1'000'000);
    isi.record_transfer(client_ip, "/data/demo", kFileSize, t, t + 5.0,
                        gridftp::Operation::kRead, 8, 1'000'000);
  }
  mds::GridFtpInfoProvider lbl_provider(
      lbl,
      {.base = *mds::Dn::parse("hostname=dpsslx04.lbl.gov, dc=lbl, o=grid")});
  mds::GridFtpInfoProvider isi_provider(
      isi,
      {.base = *mds::Dn::parse("hostname=jet.isi.edu, dc=isi, o=grid")});
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
                                seed);
  replica::FailoverFetcher fetcher(
      sim, broker, client, [&](const replica::PhysicalReplica& replica) {
        return replica.site == "lbl" ? &lbl : &isi;
      });

  resilience::FaultSpec spec;
  spec.connect_failure_rate = 0.5 * rate;
  spec.truncation_rate = 0.3 * rate;
  spec.stall_rate = 0.2 * rate;
  spec.mean_fault_delay = 1.0;
  spec.mean_uptime = 2400.0;
  spec.mean_outage = 90.0;
  spec.outage_horizon = 600.0 + transfers * 400.0 + 4000.0;
  resilience::FaultInjector injector(sim, spec, seed ^ 0x4e5);
  client.set_fault_injector(&injector);
  injector.watch_outages("dpsslx04.lbl.gov",
                         [&](bool up) { lbl.set_accepting(up); });
  injector.watch_outages("jet.isi.edu",
                         [&](bool up) { isi.set_accepting(up); });

  resilience::RetryPolicy policy = resilience::default_wan_policy();
  replica::FetchOptions options;
  if (!resilient) {
    policy.max_attempts = 1;
    options.max_replicas = 1;
  }
  client.set_retry_policy(policy, seed);

  FaultDriveStats stats;
  stats.end = 600.0 + transfers * 400.0 + 4000.0;
  for (int i = 0; i < transfers; ++i) {
    const SimTime issue = 600.0 + i * 400.0;
    sim.schedule_at(issue, [&, issue] {
      fetcher.fetch("lfn://demo", kFileSize, options,
                    [&stats, issue](const replica::FetchOutcome& outcome) {
                      if (outcome.ok) {
                        ++stats.ok;
                        stats.start_delay.add(
                            outcome.transfer.record.start_time - issue);
                      }
                    });
    });
  }
  if (attach) attach(sim, stats.end);
  sim.run();
  return stats;
}

/// Demonstrates the resilience plane: a two-replica delivery stack
/// under a seeded fault injector, single-shot vs retry+failover on the
/// same fault schedule.
int cmd_resilience(const util::ArgParser& args) {
  const double rate =
      static_cast<double>(args.get_int("rate").value_or(30)) / 100.0;
  const int transfers =
      static_cast<int>(args.get_int("transfers").value_or(100));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  if (rate < 0.0 || rate > 1.0) return usage("--rate must be 0..100");
  if (transfers <= 0) return usage("--transfers must be positive");

  const FaultDriveStats single =
      run_fault_drive(rate, transfers, seed, /*resilient=*/false);
  const FaultDriveStats resil =
      run_fault_drive(rate, transfers, seed, /*resilient=*/true);

  std::printf("fault rate %.0f%%, %d transfers, seed %llu\n\n", 100.0 * rate,
              transfers, static_cast<unsigned long long>(seed));
  util::TextTable table({"configuration", "ok", "success %", "start delay s"});
  table.set_align(0, util::TextTable::Align::Left);
  const auto row = [&](const char* label, const FaultDriveStats& stats) {
    table.add_row(
        {label, std::to_string(stats.ok),
         util::format("%.1f", 100.0 * stats.ok / double(transfers)),
         util::format("%.2f", stats.start_delay.count() > 0
                                  ? stats.start_delay.mean()
                                  : 0.0)});
  };
  row("single-shot (pre-resilience)", single);
  row("retry + failover", resil);
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Runs the resilient fault drive with a health tick armed: every
/// `interval` simulated seconds the recorder scrapes the registry and
/// the monitor evaluates its rules.  The tick optional is destroyed
/// only after run_fault_drive returns; by then the drive has run past
/// the tick's deadline, so arm() already cleared its running flag and
/// the destructor never touches the dead simulator.
FaultDriveStats run_monitored_drive(obs::MetricsRecorder& recorder,
                                    obs::HealthMonitor& monitor, double rate,
                                    int transfers, double interval,
                                    std::uint64_t seed) {
  std::optional<sim::PeriodicTask> tick;
  return run_fault_drive(
      rate, transfers, seed, /*resilient=*/true,
      [&](sim::Simulator& sim, SimTime end) {
        tick.emplace(
            sim, interval,
            [&recorder, &monitor, &sim] {
              recorder.scrape(sim.now());
              monitor.evaluate(sim.now());
            },
            /*immediate=*/false, /*until=*/end);
      });
}

const char* slo_state(const obs::SloStatus& status) {
  if (status.firing) return "FIRING";
  return status.alerts > 0 ? "cleared" : "ok";
}

std::string slo_status_json(const obs::SloStatus& status) {
  return util::format(
      "{\"rule\": \"%s\", \"description\": \"%s\", \"series\": \"%s\", "
      "\"denominator\": \"%s\", \"direction\": \"%s\", \"threshold\": %g, "
      "\"firing\": %s, \"fast_value\": %g, \"slow_value\": %g, "
      "\"fast_samples\": %zu, \"slow_samples\": %zu, \"alerts\": %llu}",
      util::json_escape(status.rule.name).c_str(),
      util::json_escape(status.rule.description).c_str(),
      util::json_escape(status.rule.series).c_str(),
      util::json_escape(status.rule.denominator).c_str(),
      status.rule.direction == obs::SloDirection::kAbove ? "above" : "below",
      status.rule.threshold, status.firing ? "true" : "false",
      status.fast_value, status.slow_value, status.fast_samples,
      status.slow_samples, static_cast<unsigned long long>(status.alerts));
}

/// SLO rule table over a recorded incident: the quality demo (drift
/// and join signal, spans for the bundle) followed by the resilient
/// fault drive, scraped and evaluated every --interval sim-seconds.
/// --capture DIR dumps a flight bundle per fire transition plus one
/// "manual" bundle at the end of the drive.
int cmd_health(const util::ArgParser& args) {
  const double rate =
      static_cast<double>(args.get_int("rate").value_or(30)) / 100.0;
  const int transfers =
      static_cast<int>(args.get_int("transfers").value_or(40));
  const double interval = args.get_double("interval").value_or(30.0);
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  if (rate < 0.0 || rate > 1.0) return usage("--rate must be 0..100");
  if (transfers <= 0) return usage("--transfers must be positive");
  if (interval <= 0.0) return usage("--interval must be > 0");

  // Quality plane first: its drift alarms, accuracy joins, and spans
  // are the signal the quality.* rules and the flight bundle read.
  core::QualityDemoConfig quality_config;
  quality_config.seed = seed;
  const auto quality = core::run_quality_demo(quality_config);

  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  monitor.add_rules(obs::HealthMonitor::builtin_rules(interval));

  std::optional<obs::FlightRecorder> flight;
  std::vector<obs::BundleInfo> bundles;
  if (const auto dir = args.get("capture")) {
    obs::FlightConfig flight_config;
    flight_config.dir = *dir;
    flight.emplace(&recorder, &obs::Tracer::global(),
                   &obs::EventSink::global(), flight_config);
    flight->set_quality(quality.tracker.get());
    monitor.set_on_alert([&](const obs::SloStatus& status, double now) {
      auto bundle = flight->capture(status.rule.name, now);
      if (bundle.ok()) bundles.push_back(std::move(bundle.value()));
    });
  }

  run_monitored_drive(recorder, monitor, rate, transfers, interval, seed);
  if (flight.has_value()) {
    // Deterministic end-of-drive bundle: present even when no rule
    // fired, so tooling always has an artifact to parse.
    auto bundle = flight->capture("manual", recorder.last_scrape_time());
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s\n", bundle.error().c_str());
      return 1;
    }
    bundles.push_back(std::move(bundle.value()));
  }

  const auto status = monitor.status();
  if (args.has("json")) {
    std::string json = util::format(
        "{\"interval\": %g, \"scrapes\": %llu, \"series\": %zu, "
        "\"firing\": %zu, \"rules\": [",
        interval, static_cast<unsigned long long>(recorder.scrapes()),
        recorder.series_count(), monitor.firing_count());
    for (std::size_t i = 0; i < status.size(); ++i) {
      if (i > 0) json += ", ";
      json += slo_status_json(status[i]);
    }
    json += "], \"bundles\": [";
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      const auto& bundle = bundles[i];
      if (i > 0) json += ", ";
      json += util::format(
          "{\"json_path\": \"%s\", \"ulm_path\": \"%s\", \"series\": %zu, "
          "\"points\": %zu, \"spans\": %zu, \"events\": %zu, "
          "\"quality_cells\": %zu}",
          util::json_escape(bundle.json_path).c_str(),
          util::json_escape(bundle.ulm_path).c_str(), bundle.series,
          bundle.points, bundle.spans, bundle.events, bundle.quality_cells);
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  std::printf(
      "health drive: fault rate %.0f%%, %d transfers, scrape every %.0fs, "
      "seed %llu\n%llu scrapes, %zu series, %llu evaluation rounds, "
      "%zu rule(s) firing\n\n",
      100.0 * rate, transfers, interval,
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(recorder.scrapes()),
      recorder.series_count(),
      static_cast<unsigned long long>(monitor.evaluations()),
      monitor.firing_count());
  util::TextTable table(
      {"rule", "state", "fast", "slow", "threshold", "alerts"});
  table.set_align(0, util::TextTable::Align::Left);
  table.set_align(1, util::TextTable::Align::Left);
  for (const auto& row : status) {
    table.add_row({row.rule.name, slo_state(row),
                   row.fast_samples > 0 ? util::format("%.3f", row.fast_value)
                                        : std::string("-"),
                   row.slow_samples > 0 ? util::format("%.3f", row.slow_value)
                                        : std::string("-"),
                   util::format("%s%g",
                                row.rule.direction == obs::SloDirection::kAbove
                                    ? ">"
                                    : "<",
                                row.rule.threshold),
                   std::to_string(row.alerts)});
  }
  std::printf("%s", table.render().c_str());
  for (const auto& bundle : bundles) {
    std::printf("flight bundle: %s (%zu series, %zu spans, %zu events)\n",
                bundle.json_path.c_str(), bundle.series, bundle.spans,
                bundle.events);
  }
  return 0;
}

/// One-shot ranked view over the same recorded drive: the hottest rate
/// series by windowed mean, then the worst SLO rules (firing first).
int cmd_top(const util::ArgParser& args) {
  const auto limit =
      static_cast<std::size_t>(args.get_int("limit").value_or(10));
  const double interval = args.get_double("interval").value_or(30.0);
  const double rate =
      static_cast<double>(args.get_int("rate").value_or(30)) / 100.0;
  const int transfers =
      static_cast<int>(args.get_int("transfers").value_or(40));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  if (limit == 0) return usage("--limit must be positive");
  if (interval <= 0.0) return usage("--interval must be > 0");
  if (rate < 0.0 || rate > 1.0) return usage("--rate must be 0..100");
  if (transfers <= 0) return usage("--transfers must be positive");

  core::QualityDemoConfig quality_config;
  quality_config.seed = seed;
  core::run_quality_demo(quality_config);

  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  monitor.add_rules(obs::HealthMonitor::builtin_rules(interval));
  run_monitored_drive(recorder, monitor, rate, transfers, interval, seed);

  // Rank over the slow-rule window so `top` and `health` agree on what
  // "recent" means.
  const double window = 10.0 * interval;
  const double now = recorder.last_scrape_time();
  const auto hot = recorder.hottest(limit, window, now);
  auto status = monitor.status();
  std::stable_sort(status.begin(), status.end(),
                   [](const obs::SloStatus& a, const obs::SloStatus& b) {
                     if (a.firing != b.firing) return a.firing;
                     return a.alerts > b.alerts;
                   });
  if (status.size() > limit) status.resize(limit);

  if (args.has("json")) {
    std::string json = util::format(
        "{\"window\": %g, \"scrapes\": %llu, \"series\": %zu, \"hottest\": [",
        window, static_cast<unsigned long long>(recorder.scrapes()),
        recorder.series_count());
    for (std::size_t i = 0; i < hot.size(); ++i) {
      if (i > 0) json += ", ";
      json += util::format(
          "{\"series\": \"%s\", \"mean\": %g, \"last\": %g, "
          "\"samples\": %zu}",
          util::json_escape(hot[i].name).c_str(), hot[i].mean, hot[i].last,
          hot[i].samples);
    }
    json += "], \"slos\": [";
    for (std::size_t i = 0; i < status.size(); ++i) {
      if (i > 0) json += ", ";
      json += slo_status_json(status[i]);
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  std::printf("hottest series (windowed mean over %.0fs, %zu recorded)\n",
              window, recorder.series_count());
  util::TextTable hot_table({"series", "mean/s", "last/s", "samples"});
  hot_table.set_align(0, util::TextTable::Align::Left);
  for (const auto& row : hot) {
    hot_table.add_row({row.name, util::format("%.3f", row.mean),
                       util::format("%.3f", row.last),
                       std::to_string(row.samples)});
  }
  std::printf("%s\n", hot_table.render().c_str());

  std::printf("worst SLOs\n");
  util::TextTable slo_table({"rule", "state", "fast", "slow", "alerts"});
  slo_table.set_align(0, util::TextTable::Align::Left);
  slo_table.set_align(1, util::TextTable::Align::Left);
  for (const auto& row : status) {
    slo_table.add_row(
        {row.rule.name, slo_state(row),
         row.fast_samples > 0 ? util::format("%.3f", row.fast_value)
                              : std::string("-"),
         row.slow_samples > 0 ? util::format("%.3f", row.slow_value)
                              : std::string("-"),
         std::to_string(row.alerts)});
  }
  std::printf("%s", slo_table.render().c_str());
  return 0;
}

/// Synthetic closed-loop load driver for the serving plane: a seeded
/// query mix over a small replica fleet, periodic ingest ticks bumping
/// the HistoryStore watermarks, and the frontend's cache / coalescing /
/// admission stack in between.  Deterministic for a given seed — the
/// same flags always produce the same admitted/shed/rejected split.
int cmd_serve(const util::ArgParser& args) {
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  const auto total =
      static_cast<std::size_t>(args.get_int("queries").value_or(200'000));
  const auto batch =
      static_cast<std::size_t>(args.get_int("batch").value_or(256));
  const auto files = static_cast<int>(args.get_int("files").value_or(64));
  const double overload = args.get_double("overload").value_or(1.0);
  if (total == 0 || batch == 0) return usage("--queries/--batch must be > 0");
  if (files <= 0) return usage("--files must be positive");
  if (overload <= 0.0) return usage("--overload must be > 0");

  // Fleet: three GridFTP hosts (the paper's testbed sites), one client.
  const std::vector<std::string> sites = {"lbl", "isi", "anl"};
  const std::vector<std::string> hosts = {
      "dpsslx04.lbl.gov", "jet.isi.edu", "pitcairn.mcs.anl.gov"};
  const std::string client_ip = "140.221.65.69";
  const std::vector<Bytes> size_mix = {1 * kMB, 10 * kMB, 100 * kMB,
                                       1000 * kMB};

  auto store = std::make_shared<history::HistoryStore>();
  util::Rng rng(seed);
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const history::SeriesKey key{.host = hosts[h],
                                 .remote_ip = client_ip,
                                 .op = gridftp::Operation::kRead};
    const double base = 2e6 * static_cast<double>(h + 1);
    for (int i = 0; i < 40; ++i) {
      store->append(key, predict::Observation{
                             .time = 60.0 * i,
                             .value = base * rng.uniform(0.5, 1.5),
                             .file_size = size_mix[static_cast<std::size_t>(
                                 rng.uniform_int(0, 3))],
                             .ok = true});
    }
  }

  replica::ReplicaCatalog catalog;
  std::vector<std::string> lfns;
  for (int f = 0; f < files; ++f) {
    std::string lfn = "lfn://data/" + std::to_string(f);
    // Every file on two hosts, rotating so rankings differ across files.
    for (int r = 0; r < 2; ++r) {
      const std::size_t h =
          static_cast<std::size_t>(f + r) % hosts.size();
      catalog.add_replica(lfn, {.site = sites[h],
                                .server_host = hosts[h],
                                .path = "/data/" + std::to_string(f)});
    }
    lfns.push_back(std::move(lfn));
  }

  // Empty GIIS: fills flow through the broker's history fallback, the
  // same estimate the provider would publish.
  mds::Giis giis("top");
  replica::ReplicaBroker broker(
      catalog, giis, replica::SelectionPolicy::kPredictedBest, seed);
  broker.bind_history(store.get());

  serving::ServingConfig config;
  // Nominal full-path capacity; the offered rate is `overload` times
  // this, so --overload 1 admits everything and 16 sheds most of it.
  const double admit_rate = 100'000.0;
  config.admission.admit_rate = admit_rate;
  config.admission.admit_burst = static_cast<double>(batch);
  serving::ServingFrontend frontend(broker, catalog, store, config);

  const double offered_rate = admit_rate * overload;
  std::size_t tallies[4] = {0, 0, 0, 0};  // cached/filled/shed/rejected
  std::size_t informed = 0;
  std::vector<serving::Query> queries(batch);
  double now = 3600.0;  // after the seeded history
  std::size_t issued = 0;
  std::size_t ingest_tick = 0;

  // Health plane, both cadences: a wall-clock recorder samples the
  // registry from its background thread while the loop runs (the live
  // process path), and a query-time recorder driven from the loop
  // feeds the SLO monitor so the health footer is deterministic.
  obs::MetricsRecorder wall_recorder;
  wall_recorder.start_wall_clock(0.05);
  obs::MetricsRecorder recorder;
  obs::HealthMonitor monitor(recorder);
  const double scrape_interval =
      static_cast<double>(total) / offered_rate / 40.0;
  monitor.add_rules(obs::HealthMonitor::builtin_rules(scrape_interval));
  double next_scrape = now + scrape_interval;

  while (issued < total) {
    const std::size_t n = std::min(batch, total - issued);
    for (std::size_t i = 0; i < n; ++i) {
      queries[i] = serving::Query{
          .logical_name = lfns[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(lfns.size()) - 1))],
          .client_ip = client_ip,
          .size =
              size_mix[static_cast<std::size_t>(rng.uniform_int(0, 3))]};
    }
    const auto answers =
        frontend.select_many(std::span(queries.data(), n), now);
    for (const auto& answer : answers) {
      ++tallies[static_cast<std::size_t>(answer.path)];
      if (answer.informed) ++informed;
    }
    issued += n;
    now += static_cast<double>(n) / offered_rate;
    while (now >= next_scrape) {
      recorder.scrape(next_scrape);
      monitor.evaluate(next_scrape);
      next_scrape += scrape_interval;
    }
    // Closed loop: every ~50 batches one series takes a fresh
    // observation, bumping its watermark and invalidating its entries.
    if (++ingest_tick % 50 == 0) {
      const std::size_t h = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1));
      store->append(
          history::SeriesKey{.host = hosts[h],
                             .remote_ip = client_ip,
                             .op = gridftp::Operation::kRead},
          predict::Observation{.time = now,
                               .value = 2e6 * double(h + 1) * rng.uniform(0.5, 1.5),
                               .file_size = size_mix[static_cast<std::size_t>(
                                   rng.uniform_int(0, 3))],
                               .ok = true});
    }
  }

  std::printf("serving demo: %zu queries, overload %.1fx, seed %llu\n\n",
              total, overload, static_cast<unsigned long long>(seed));
  util::TextTable table({"path", "queries", "%"});
  table.set_align(0, util::TextTable::Align::Left);
  const char* labels[4] = {"cached", "filled", "shed", "rejected"};
  for (std::size_t i = 0; i < 4; ++i) {
    table.add_row({labels[i], std::to_string(tallies[i]),
                   util::format("%.2f", 100.0 * static_cast<double>(tallies[i]) /
                                            static_cast<double>(total))});
  }
  std::printf("%s\n", table.render().c_str());
  const std::size_t worked = tallies[0] + tallies[1];
  std::printf("informed %.2f%%, cache entries %zu, hit rate %.2f%%\n",
              100.0 * static_cast<double>(informed) /
                  static_cast<double>(total),
              frontend.cache().entries(),
              worked == 0 ? 0.0
                          : 100.0 * static_cast<double>(tallies[0]) /
                                static_cast<double>(worked));
  wall_recorder.stop_wall_clock();
  std::printf(
      "health: %llu scrapes (%zu series), %llu wall-clock scrapes, "
      "%zu rule(s) firing",
      static_cast<unsigned long long>(recorder.scrapes()),
      recorder.series_count(),
      static_cast<unsigned long long>(wall_recorder.scrapes()),
      monitor.firing_count());
  for (const auto& slo : monitor.status()) {
    if (slo.firing) std::printf(" [%s]", slo.rule.name.c_str());
  }
  std::printf("\n");
  return 0;
}

/// Runs the closed-loop quality demo and reports the online accuracy
/// join: rolling per-(site, predictor, class) error, drift alarms, and
/// the broker demotions they caused.
int cmd_quality(const util::ArgParser& args) {
  core::QualityDemoConfig config;
  config.transfers = static_cast<int>(args.get_int("transfers").value_or(40));
  config.shift_after = static_cast<int>(args.get_int("shift").value_or(15));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(42));
  if (config.transfers <= 0) return usage("--transfers must be positive");
  if (config.shift_after < 0 || config.shift_after >= config.transfers) {
    return usage("--shift must be in [0, transfers)");
  }
  const auto result = core::run_quality_demo(config);
  const auto report = result.tracker->report();

  // Head-to-head aggregate: one row per predictor, count-weighted mean
  // percent error across every site and size class — which battery
  // member is winning overall, old or new.
  struct HeadToHead {
    std::string predictor;
    std::size_t count = 0;
    double mean_error_pct = 0.0;
    bool drifting = false;
  };
  std::vector<HeadToHead> head_to_head;
  {
    std::map<std::string, HeadToHead> by_predictor;
    for (const auto& cell : report.cells) {
      auto& agg = by_predictor[cell.predictor];
      agg.predictor = cell.predictor;
      agg.mean_error_pct +=
          cell.mean_error_pct * static_cast<double>(cell.count);
      agg.count += cell.count;
      agg.drifting = agg.drifting || cell.drifting;
    }
    for (auto& [name, agg] : by_predictor) {
      if (agg.count > 0) agg.mean_error_pct /= static_cast<double>(agg.count);
      head_to_head.push_back(std::move(agg));
    }
    std::stable_sort(head_to_head.begin(), head_to_head.end(),
                     [](const HeadToHead& a, const HeadToHead& b) {
                       return a.mean_error_pct < b.mean_error_pct;
                     });
  }

  if (args.has("json")) {
    std::string json = util::format(
        "{\"transfers_ok\": %d, \"transfers_failed\": %d, "
        "\"predictions\": %llu, \"joins_trace\": %llu, "
        "\"joins_fallback\": %llu, \"join_misses\": %llu, "
        "\"join_rate\": %.4f, \"skipped\": %llu, \"drift_events\": %llu, "
        "\"drift_demotions\": %d, \"completions_to_drift\": %d, "
        "\"cells\": [",
        result.ok, result.failed,
        static_cast<unsigned long long>(report.predictions),
        static_cast<unsigned long long>(report.joins_trace),
        static_cast<unsigned long long>(report.joins_fallback),
        static_cast<unsigned long long>(report.join_misses),
        report.join_rate(), static_cast<unsigned long long>(report.skipped),
        static_cast<unsigned long long>(report.drift_events),
        result.drift_demotions, result.completions_to_drift);
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const auto& cell = report.cells[i];
      if (i > 0) json += ", ";
      json += util::format(
          "{\"site\": \"%s\", \"predictor\": \"%s\", \"class\": \"%s\", "
          "\"count\": %zu, \"mean_error_pct\": %.2f, "
          "\"stddev_error_pct\": %.2f, \"drifting\": %s}",
          util::json_escape(cell.site).c_str(),
          util::json_escape(cell.predictor).c_str(),
          util::json_escape(cell.class_label).c_str(),
          cell.count, cell.mean_error_pct, cell.stddev_error_pct,
          cell.drifting ? "true" : "false");
    }
    json += "], \"head_to_head\": [";
    for (std::size_t i = 0; i < head_to_head.size(); ++i) {
      const auto& row = head_to_head[i];
      if (i > 0) json += ", ";
      json += util::format(
          "{\"predictor\": \"%s\", \"count\": %zu, "
          "\"mean_error_pct\": %.2f, \"drifting\": %s}",
          util::json_escape(row.predictor).c_str(), row.count,
          row.mean_error_pct, row.drifting ? "true" : "false");
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return 0;
  }

  std::printf(
      "%d transfers (%d ok), bandwidth shift at t=%.0fs (after %d fetches)\n"
      "predictions served %llu, joins %llu (trace %llu / fallback %llu), "
      "misses %llu, join rate %.1f%%\n"
      "drift events %llu (first alarm %d transfers after the shift), "
      "broker demotions %d\n\n",
      config.transfers, result.ok, result.shift_time, config.shift_after,
      static_cast<unsigned long long>(report.predictions),
      static_cast<unsigned long long>(report.joins()),
      static_cast<unsigned long long>(report.joins_trace),
      static_cast<unsigned long long>(report.joins_fallback),
      static_cast<unsigned long long>(report.join_misses),
      100.0 * report.join_rate(),
      static_cast<unsigned long long>(report.drift_events),
      result.completions_to_drift, result.drift_demotions);

  // Rolling error table, largest cells first (site/predictor/class
  // triples grow fast: 30 predictors per served site).
  auto cells = report.cells;
  std::stable_sort(cells.begin(), cells.end(),
                   [](const obs::QualityCell& a, const obs::QualityCell& b) {
                     return a.count > b.count;
                   });
  const auto limit =
      static_cast<std::size_t>(args.get_int("limit").value_or(12));
  util::TextTable table(
      {"site", "predictor", "class", "n", "mean % err", "stddev", "drift"});
  table.set_align(0, util::TextTable::Align::Left);
  table.set_align(1, util::TextTable::Align::Left);
  for (std::size_t i = 0; i < cells.size() && i < limit; ++i) {
    const auto& cell = cells[i];
    table.add_row({cell.site, cell.predictor, cell.class_label,
                   std::to_string(cell.count),
                   util::format("%.1f", cell.mean_error_pct),
                   util::format("%.1f", cell.stddev_error_pct),
                   cell.drifting ? "DRIFT" : "-"});
  }
  std::printf("%s", table.render().c_str());
  if (cells.size() > limit) {
    std::printf("(%zu more cells; raise --limit)\n", cells.size() - limit);
  }

  // Head-to-head leaderboard: best battery members first.  This is
  // where a regression predictor beating the paper's univariate
  // battery becomes visible online, not just in an offline evaluator.
  std::printf("\npredictor head-to-head (count-weighted across all cells)\n");
  util::TextTable leaderboard({"predictor", "n", "mean % err", "drift"});
  leaderboard.set_align(0, util::TextTable::Align::Left);
  for (std::size_t i = 0; i < head_to_head.size() && i < limit; ++i) {
    const auto& row = head_to_head[i];
    leaderboard.add_row({row.predictor, std::to_string(row.count),
                         util::format("%.1f", row.mean_error_pct),
                         row.drifting ? "DRIFT" : "-"});
  }
  std::printf("%s", leaderboard.render().c_str());
  if (head_to_head.size() > limit) {
    std::printf("(%zu more predictors; raise --limit)\n",
                head_to_head.size() - limit);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  if (raw.empty()) return usage("missing subcommand");

  util::ArgParser args;
  for (const char* name : {"campaign", "seed", "days", "out", "training",
                           "size", "predictor", "host", "limit", "rate",
                           "transfers", "shift", "tree", "queries", "batch",
                           "files", "overload", "sites", "links", "flows",
                           "duration", "scenario", "interval", "capture"}) {
    args.add_option(name);
  }
  args.add_option("extended", /*is_boolean=*/true);
  args.add_option("json", /*is_boolean=*/true);
  args.add_option("ulm", /*is_boolean=*/true);
  args.add_option("quality", /*is_boolean=*/true);
  const auto parsed = args.parse(raw);
  if (!parsed.ok()) return usage(parsed.error().c_str());
  if (args.positionals().empty()) return usage("missing subcommand");

  const auto& command = args.positionals().front();
  if (command == "campaign") return cmd_campaign(args);
  if (command == "simgrid") return cmd_simgrid(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "provider") return cmd_provider(args);
  if (command == "classes") return cmd_classes(args);
  if (command == "probe") return cmd_probe(args);
  if (command == "metrics") return cmd_metrics(args);
  if (command == "trace") return cmd_trace(args);
  if (command == "history") return cmd_history(args);
  if (command == "durability") return cmd_durability(args);
  if (command == "resilience") return cmd_resilience(args);
  if (command == "quality") return cmd_quality(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "health") return cmd_health(args);
  if (command == "top") return cmd_top(args);
  if (command == "help") return usage();
  return usage(("unknown subcommand: " + command).c_str());
}
