#include "obs/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <vector>

#include "util/strings.hpp"
#include "util/ulm.hpp"

namespace wadp::obs {
namespace {

/// Label-value escaping per Prometheus text exposition format 0.0.4:
/// backslash, double-quote, and line-feed must be escaped inside the
/// quoted value; everything else passes through verbatim.
std::string prometheus_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// HELP text allows quotes but must escape backslash and line-feed.
std::string prometheus_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k="v",k2="v2"}` or "" when unlabeled.
std::string prometheus_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + prometheus_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// Labels with one extra pair appended (for quantile= / le=).
std::string prometheus_labels_with(const Labels& labels,
                                   const std::string& key,
                                   const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return prometheus_labels(extended);
}

/// Prometheus sample value: shortest float form that round-trips
/// typical metric values.  (JSON output uses util::json_number.)
std::string number(double v) {
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  std::string s = util::format("%.9g", v);
  return s;
}

/// JSON key for one instrument: name plus serialized labels.
std::string json_key(const std::string& name, const Labels& labels) {
  return name + prometheus_labels(labels);
}

constexpr const char* kQuantileLabels[] = {"0.5", "0.9", "0.99"};
constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

}  // namespace

std::string to_prometheus(const Registry& registry) {
  std::string out;
  std::vector<Histogram::BucketCount> buckets;
  for (const auto& family : registry.families()) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " +
             prometheus_escape_help(family.help) + "\n";
    }
    switch (family.kind) {
      case Registry::Kind::kCounter:
        out += "# TYPE " + family.name + " counter\n";
        for (const auto& instrument : family.instruments) {
          out += family.name + prometheus_labels(instrument.labels) + " " +
                 std::to_string(instrument.counter->value()) + "\n";
        }
        break;
      case Registry::Kind::kGauge:
        out += "# TYPE " + family.name + " gauge\n";
        for (const auto& instrument : family.instruments) {
          out += family.name + prometheus_labels(instrument.labels) + " " +
                 number(instrument.gauge->value()) + "\n";
        }
        break;
      case Registry::Kind::kHistogram:
        out += "# TYPE " + family.name + " histogram\n";
        for (const auto& instrument : family.instruments) {
          const Histogram& h = *instrument.histogram;
          const std::uint64_t total = h.walk_buckets(buckets);
          std::uint64_t cumulative = 0;
          for (const Histogram::BucketCount& bucket : buckets) {
            cumulative += bucket.count;
            // The overflow slot's bound is +Inf: the line below says it.
            if (bucket.index == Histogram::kBucketCount - 1) break;
            out += family.name + "_bucket" +
                   prometheus_labels_with(
                       instrument.labels, "le",
                       number(Histogram::bucket_upper_bound(bucket.index))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          out += family.name + "_bucket" +
                 prometheus_labels_with(instrument.labels, "le", "+Inf") + " " +
                 std::to_string(total) + "\n";
          for (std::size_t q = 0; q < 3; ++q) {
            out += family.name +
                   prometheus_labels_with(instrument.labels, "quantile",
                                          kQuantileLabels[q]) +
                   " " + number(h.quantile(kQuantiles[q])) + "\n";
          }
          out += family.name + "_sum" + prometheus_labels(instrument.labels) +
                 " " + number(h.sum()) + "\n";
          out += family.name + "_count" + prometheus_labels(instrument.labels) +
                 " " + std::to_string(h.count()) + "\n";
        }
        break;
    }
  }
  return out;
}

std::string metrics_to_ulm(const Registry& registry) {
  std::string out;
  for (const auto& family : registry.families()) {
    for (const auto& instrument : family.instruments) {
      util::UlmRecord record;
      record.set("EVNT", "metric");
      record.set("PROG", "wadp.obs");
      record.set("NAME", family.name);
      switch (family.kind) {
        case Registry::Kind::kCounter:
          record.set("TYPE", "counter");
          record.set_int("VALUE",
                         static_cast<std::int64_t>(instrument.counter->value()));
          break;
        case Registry::Kind::kGauge:
          record.set("TYPE", "gauge");
          record.set_double("VALUE", instrument.gauge->value());
          break;
        case Registry::Kind::kHistogram: {
          const Histogram& h = *instrument.histogram;
          record.set("TYPE", "histogram");
          record.set_int("COUNT", static_cast<std::int64_t>(h.count()));
          record.set_double("SUM", h.sum());
          record.set_double("MIN", h.min());
          record.set_double("MAX", h.max());
          record.set_double("P50", h.quantile(0.5));
          record.set_double("P90", h.quantile(0.9));
          record.set_double("P99", h.quantile(0.99));
          break;
        }
      }
      for (const auto& [key, value] : instrument.labels) {
        std::string upper;
        for (const char c : key) {
          upper += static_cast<char>(
              std::toupper(static_cast<unsigned char>(c)));
        }
        record.set("L." + upper, value);
      }
      out += record.to_line();
      out += "\n";
    }
  }
  return out;
}

std::string spans_to_ulm(const Tracer& tracer) {
  std::string out;
  for (const auto& span : tracer.finished()) {
    util::UlmRecord record;
    record.set("EVNT", "span");
    record.set("PROG", "wadp.obs");
    record.set("NAME", span.name);
    record.set_int("SPAN", static_cast<std::int64_t>(span.id));
    record.set_int("PARENT", static_cast<std::int64_t>(span.parent));
    if (span.trace_id != 0) {
      record.set_int("TRACE", static_cast<std::int64_t>(span.trace_id));
    }
    record.set_int("START.NS", static_cast<std::int64_t>(span.start_ns));
    record.set_int("DUR.NS", static_cast<std::int64_t>(span.duration_ns()));
    for (const auto& [key, value] : span.attrs) record.set(key, value);
    out += record.to_line();
    out += "\n";
  }
  return out;
}

std::string to_json(const Registry& registry) {
  std::string counters, gauges, histograms;
  for (const auto& family : registry.families()) {
    for (const auto& instrument : family.instruments) {
      const std::string key =
          "\"" + util::json_escape(json_key(family.name, instrument.labels)) +
          "\": ";
      switch (family.kind) {
        case Registry::Kind::kCounter:
          if (!counters.empty()) counters += ", ";
          counters += key + std::to_string(instrument.counter->value());
          break;
        case Registry::Kind::kGauge:
          if (!gauges.empty()) gauges += ", ";
          gauges += key + util::json_number(instrument.gauge->value());
          break;
        case Registry::Kind::kHistogram: {
          const Histogram& h = *instrument.histogram;
          if (!histograms.empty()) histograms += ", ";
          histograms +=
              key +
              util::format("{\"count\": %zu, \"sum\": %s, \"min\": %s, "
                           "\"max\": %s, \"mean\": %s, \"p50\": %s, "
                           "\"p90\": %s, \"p99\": %s}",
                           h.count(), util::json_number(h.sum()).c_str(),
                           util::json_number(h.min()).c_str(),
                           util::json_number(h.max()).c_str(),
                           util::json_number(h.mean()).c_str(),
                           util::json_number(h.quantile(0.5)).c_str(),
                           util::json_number(h.quantile(0.9)).c_str(),
                           util::json_number(h.quantile(0.99)).c_str());
          break;
        }
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

Expected<bool> write_bench_json(const std::string& path,
                                const std::string& bench_name,
                                const Registry& registry) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Expected<bool>::failure("cannot open " + path + " for writing");
  }
  const std::string body = "{\"bench\": \"" + util::json_escape(bench_name) +
                           "\", \"metrics\": " + to_json(registry) + "}\n";
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  if (written != body.size()) {
    return Expected<bool>::failure("short write to " + path);
  }
  return true;
}

}  // namespace wadp::obs
