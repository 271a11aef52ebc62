#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ulm.hpp"

namespace wadp::obs {
namespace {

/// One registry covering all three kinds, with values chosen so every
/// derived statistic is exact (all histogram samples identical).
void fill_demo(Registry& registry) {
  registry
      .counter("demo_transfers_total", {{"op", "read"}}, "Transfers by op")
      .inc(3);
  registry.counter("demo_transfers_total", {{"op", "write"}}).inc(1);
  registry.gauge("demo_queue_depth", {}, "Queue depth").set(2.5);
  Histogram& h = registry.histogram("demo_latency_seconds", {}, "Latency");
  for (int i = 0; i < 4; ++i) h.record(2.0);
}

TEST(ExportTest, PrometheusGolden) {
  Registry registry;
  fill_demo(registry);
  EXPECT_EQ(to_prometheus(registry),
            "# HELP demo_latency_seconds Latency\n"
            "# TYPE demo_latency_seconds histogram\n"
            "demo_latency_seconds_bucket{le=\"2.125\"} 4\n"
            "demo_latency_seconds_bucket{le=\"+Inf\"} 4\n"
            "demo_latency_seconds{quantile=\"0.5\"} 2\n"
            "demo_latency_seconds{quantile=\"0.9\"} 2\n"
            "demo_latency_seconds{quantile=\"0.99\"} 2\n"
            "demo_latency_seconds_sum 8\n"
            "demo_latency_seconds_count 4\n"
            "# HELP demo_queue_depth Queue depth\n"
            "# TYPE demo_queue_depth gauge\n"
            "demo_queue_depth 2.5\n"
            "# HELP demo_transfers_total Transfers by op\n"
            "# TYPE demo_transfers_total counter\n"
            "demo_transfers_total{op=\"read\"} 3\n"
            "demo_transfers_total{op=\"write\"} 1\n");
}

TEST(ExportTest, PrometheusEscapesHostileLabelValues) {
  // Exposition format 0.0.4: backslash, double-quote, and line-feed
  // must be escaped inside a quoted label value; HELP text escapes
  // backslash and line-feed but keeps quotes.
  Registry registry;
  registry
      .counter("demo_paths_total",
               {{"path", "C:\\data\\new"},
                {"note", "say \"hi\""},
                {"multi", "line1\nline2"}},
               "Help with \\ and\nnewline")
      .inc(1);
  // Labels are stored name-sorted, so the golden lists them that way.
  EXPECT_EQ(to_prometheus(registry),
            "# HELP demo_paths_total Help with \\\\ and\\nnewline\n"
            "# TYPE demo_paths_total counter\n"
            "demo_paths_total{multi=\"line1\\nline2\","
            "note=\"say \\\"hi\\\"\",path=\"C:\\\\data\\\\new\"} 1\n");
}

TEST(ExportTest, BuildInfoGaugeVisibleInEveryFormat) {
  // The info-metric idiom: Registry::global() self-registers a constant
  // 1-valued wadp_build_info gauge whose labels carry the identity, so
  // all three export formats surface it without call-site wiring.
  Registry& registry = Registry::global();
  const std::string prometheus = to_prometheus(registry);
  EXPECT_NE(prometheus.find("# TYPE wadp_build_info gauge"),
            std::string::npos);
  EXPECT_NE(prometheus.find("wadp_build_info{build_type=\""),
            std::string::npos);
  EXPECT_NE(prometheus.find("git_sha=\""), std::string::npos);
  EXPECT_NE(prometheus.find("version=\""), std::string::npos);
  EXPECT_NE(prometheus.find("} 1\n"), std::string::npos);

  const std::string json = to_json(registry);
  EXPECT_NE(json.find("wadp_build_info"), std::string::npos);

  const std::string ulm = metrics_to_ulm(registry);
  EXPECT_NE(ulm.find("NAME=wadp_build_info TYPE=gauge VALUE=1.000000"),
            std::string::npos);
}

TEST(ExportTest, MetricsUlmGolden) {
  Registry registry;
  fill_demo(registry);
  EXPECT_EQ(
      metrics_to_ulm(registry),
      "EVNT=metric PROG=wadp.obs NAME=demo_latency_seconds TYPE=histogram "
      "COUNT=4 SUM=8.000000 MIN=2.000000 MAX=2.000000 P50=2.000000 "
      "P90=2.000000 P99=2.000000\n"
      "EVNT=metric PROG=wadp.obs NAME=demo_queue_depth TYPE=gauge "
      "VALUE=2.500000\n"
      "EVNT=metric PROG=wadp.obs NAME=demo_transfers_total TYPE=counter "
      "VALUE=3 L.OP=read\n"
      "EVNT=metric PROG=wadp.obs NAME=demo_transfers_total TYPE=counter "
      "VALUE=1 L.OP=write\n");
}

TEST(ExportTest, JsonGolden) {
  Registry registry;
  fill_demo(registry);
  EXPECT_EQ(to_json(registry),
            "{\"counters\": {\"demo_transfers_total{op=\\\"read\\\"}\": 3, "
            "\"demo_transfers_total{op=\\\"write\\\"}\": 1}, "
            "\"gauges\": {\"demo_queue_depth\": 2.5}, "
            "\"histograms\": {\"demo_latency_seconds\": {\"count\": 4, "
            "\"sum\": 8, \"min\": 2, \"max\": 2, \"mean\": 2, \"p50\": 2, "
            "\"p90\": 2, \"p99\": 2}}}");
}

TEST(ExportTest, JsonSpellsNonFiniteValuesAsNumbers) {
  Registry registry;
  registry.gauge("demo_ceiling", {}, "").set(
      std::numeric_limits<double>::infinity());
  registry.gauge("demo_undefined", {}, "").set(
      std::numeric_limits<double>::quiet_NaN());
  registry.histogram("demo_stall_seconds", {}, "")
      .record(std::numeric_limits<double>::infinity());
  const std::string json = to_json(registry);

  // Outside string literals (metric names), no token JSON cannot parse.
  std::string values;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (in_string && json[i] == '\\') {
      ++i;
    } else if (json[i] == '"') {
      in_string = !in_string;
    } else if (!in_string) {
      values += json[i];
    }
  }
  for (const char* token : {"Inf", "inf", "nan", "NaN"}) {
    EXPECT_EQ(values.find(token), std::string::npos) << token << " in " << json;
  }
  EXPECT_NE(json.find("\"demo_ceiling\": 1e999"), std::string::npos) << json;
  EXPECT_NE(json.find("\"demo_undefined\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 1e999"), std::string::npos) << json;
}

TEST(ExportTest, SpansUlmGolden) {
  std::uint64_t now = 0;
  Tracer tracer(8, [&now] { return now += 100; });
  auto root = tracer.start("transfer");
  root.set_attr("OP", "read");
  {
    auto child = root.child("stream");
    child.set_attr("BYTES", std::int64_t{1000});
  }
  root.end();
  EXPECT_EQ(spans_to_ulm(tracer),
            "EVNT=span PROG=wadp.obs NAME=stream SPAN=2 PARENT=1 "
            "START.NS=200 DUR.NS=100 BYTES=1000\n"
            "EVNT=span PROG=wadp.obs NAME=transfer SPAN=1 PARENT=0 "
            "START.NS=100 DUR.NS=300 OP=read\n");
}

TEST(ExportTest, UlmLinesRoundTripThroughTheSharedParser) {
  // The point of reusing ULM: the same codec that reads transfer logs
  // must read framework self-events.
  Registry registry;
  fill_demo(registry);
  std::istringstream lines(metrics_to_ulm(registry));
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const auto record = util::UlmRecord::parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    EXPECT_EQ(record->get("EVNT"), "metric");
    EXPECT_TRUE(record->has("NAME"));
    ++parsed;
  }
  EXPECT_EQ(parsed, 4u);
}

TEST(ExportTest, EventSinkEmitsParseableUlm) {
  EventSink sink(4);
  util::UlmRecord extra;
  extra.set("RULE", "serving.hit_rate");
  sink.emit("health.alert", "wadp.health", std::move(extra));
  EXPECT_EQ(sink.to_text(),
            "EVNT=health.alert PROG=wadp.health RULE=serving.hit_rate\n");
  EXPECT_EQ(sink.emitted_total(), 1u);
}

TEST(ExportTest, WriteBenchJsonWrapsMetrics) {
  Registry registry;
  registry.counter("x_total").inc(7);
  const auto path =
      (std::filesystem::temp_directory_path() / "wadp_bench_export_test.json")
          .string();
  const auto written = write_bench_json(path, "obs_overhead", registry);
  ASSERT_TRUE(written.ok()) << written.error();
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(),
            "{\"bench\": \"obs_overhead\", \"metrics\": "
            "{\"counters\": {\"x_total\": 7}, \"gauges\": {}, "
            "\"histograms\": {}}}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wadp::obs
