#include "obs/flight.hpp"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "util/strings.hpp"
#include "util/ulm.hpp"

namespace wadp::obs {
namespace {

namespace fs = std::filesystem;

/// Reason string reduced to a filename-safe slug.
std::string slug(const std::string& reason) {
  std::string out;
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty()) out = "capture";
  return out;
}

/// Writes `body` to `path` atomically: temp file, then rename.  A
/// crash mid-write leaves only the temp, never a torn final file.
Expected<bool> write_atomic(const fs::path& path, const std::string& body) {
  const fs::path temp = path.string() + ".tmp";
  std::FILE* file = std::fopen(temp.string().c_str(), "w");
  if (file == nullptr) {
    return Expected<bool>::failure("cannot open " + temp.string());
  }
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != body.size() || !flushed) {
    std::error_code ec;
    fs::remove(temp, ec);
    return Expected<bool>::failure("short write to " + temp.string());
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    return Expected<bool>::failure("rename " + temp.string() + " -> " +
                                   path.string() + ": " + ec.message());
  }
  return true;
}

}  // namespace

FlightRecorder::FlightRecorder(const MetricsRecorder* recorder,
                               const Tracer* tracer, const EventSink* events,
                               FlightConfig config)
    : config_(std::move(config)),
      recorder_(recorder),
      tracer_(tracer),
      events_(events),
      registry_(config_.registry != nullptr ? *config_.registry
                                            : Registry::global()),
      captures_total_(registry_.counter(
          "wadp_flight_captures_total", {},
          "Flight-recorder bundles written")) {}

Expected<BundleInfo> FlightRecorder::capture(const std::string& reason,
                                             double now) {
  std::lock_guard<std::mutex> lock(mu_);

  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    return Expected<BundleInfo>::failure("cannot create " + config_.dir +
                                         ": " + ec.message());
  }

  BundleInfo info;
  info.seq = ++seq_;
  info.dropped_spans = tracer_ != nullptr ? tracer_->dropped_total() : 0;

  std::string json;
  std::string ulm;
  json += "{\"reason\": \"" + util::json_escape(reason) + "\"";
  json += ", \"time\": " + util::json_number(now);
  json += ", \"seq\": " + std::to_string(info.seq);

  {
    util::UlmRecord meta;
    meta.set("EVNT", "flight.meta");
    meta.set("PROG", "wadp.flight");
    meta.set("REASON", reason);
    meta.set_double("TIME", now);
    meta.set_int("SEQ", static_cast<std::int64_t>(info.seq));
    meta.set_int("SPANS.DROPPED",
                 static_cast<std::int64_t>(info.dropped_spans));
    ulm += meta.to_line();
    ulm += "\n";
  }

  // --- Series rings (newest max_points_per_series samples each) ---
  json += ", \"series\": {";
  if (recorder_ != nullptr) {
    bool first_series = true;
    for (const std::string& name : recorder_->series_names()) {
      std::vector<TsSample> samples = recorder_->samples(name);
      if (samples.empty()) continue;
      if (samples.size() > config_.max_points_per_series) {
        samples.erase(samples.begin(),
                      samples.end() - static_cast<std::ptrdiff_t>(
                                          config_.max_points_per_series));
      }
      if (!first_series) json += ", ";
      first_series = false;
      json += "\"" + util::json_escape(name) + "\": [";
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (i > 0) json += ", ";
        json += "[" + util::json_number(samples[i].time) + ", " +
                util::json_number(samples[i].value) + "]";
        util::UlmRecord point;
        point.set("EVNT", "flight.sample");
        point.set("PROG", "wadp.flight");
        point.set("NAME", name);
        point.set_double("TIME", samples[i].time);
        point.set_double("VALUE", samples[i].value, 9);
        ulm += point.to_line();
        ulm += "\n";
      }
      json += "]";
      ++info.series;
      info.points += samples.size();
    }
  }
  json += "}";

  // --- Span ring (newest max_spans) ---
  json += ", \"spans\": [";
  if (tracer_ != nullptr) {
    std::vector<SpanRecord> spans = tracer_->finished();
    if (spans.size() > config_.max_spans) {
      spans.erase(spans.begin(),
                  spans.end() -
                      static_cast<std::ptrdiff_t>(config_.max_spans));
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      if (i > 0) json += ", ";
      json += util::format(
          "{\"id\": %llu, \"parent\": %llu, \"trace\": %llu, "
          "\"name\": \"%s\", \"start_ns\": %llu, \"dur_ns\": %llu}",
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent),
          static_cast<unsigned long long>(span.trace_id),
          util::json_escape(span.name).c_str(),
          static_cast<unsigned long long>(span.start_ns),
          static_cast<unsigned long long>(span.duration_ns()));
      util::UlmRecord line;
      line.set("EVNT", "flight.span");
      line.set("PROG", "wadp.flight");
      line.set("NAME", span.name);
      line.set_int("SPAN", static_cast<std::int64_t>(span.id));
      line.set_int("PARENT", static_cast<std::int64_t>(span.parent));
      line.set_int("START.NS", static_cast<std::int64_t>(span.start_ns));
      line.set_int("DUR.NS", static_cast<std::int64_t>(span.duration_ns()));
      ulm += line.to_line();
      ulm += "\n";
    }
    info.spans = spans.size();
  }
  json += "]";

  // --- Self-events (newest max_events, re-tagged for provenance) ---
  json += ", \"events\": [";
  if (events_ != nullptr) {
    std::vector<util::UlmRecord> events = events_->events();
    if (events.size() > config_.max_events) {
      events.erase(events.begin(),
                   events.end() -
                       static_cast<std::ptrdiff_t>(config_.max_events));
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0) json += ", ";
      json += "{";
      const auto& fields = events[i].fields();
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) json += ", ";
        json += "\"" + util::json_escape(fields[f].first) + "\": \"" +
                util::json_escape(fields[f].second) + "\"";
      }
      json += "}";
      ulm += events[i].to_line();
      ulm += "\n";
    }
    info.events = events.size();
  }
  json += "]";

  // --- Quality cells ---
  json += ", \"quality\": [";
  if (quality_ != nullptr) {
    const QualityReport report = quality_->report();
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const QualityCell& cell = report.cells[i];
      if (i > 0) json += ", ";
      json += util::format(
          "{\"site\": \"%s\", \"predictor\": \"%s\", \"class\": \"%s\", "
          "\"count\": %zu, \"mean_error_pct\": %s, \"drifting\": %s}",
          util::json_escape(cell.site).c_str(),
          util::json_escape(cell.predictor).c_str(),
          util::json_escape(cell.class_label).c_str(), cell.count,
          util::json_number(cell.mean_error_pct).c_str(),
          cell.drifting ? "true" : "false");
      util::UlmRecord line;
      line.set("EVNT", "flight.quality");
      line.set("PROG", "wadp.flight");
      line.set("SITE", cell.site);
      line.set("PRED", cell.predictor);
      line.set("CLASS", cell.class_label);
      line.set_int("COUNT", static_cast<std::int64_t>(cell.count));
      line.set_double("ERR.PCT", cell.mean_error_pct);
      line.set("DRIFTING", cell.drifting ? "1" : "0");
      ulm += line.to_line();
      ulm += "\n";
    }
    info.quality_cells = report.cells.size();
  }
  json += "]";

  json += ", \"completeness\": {\"spans_dropped\": " +
          std::to_string(info.dropped_spans) +
          ", \"series_dropped\": " +
          std::to_string(recorder_ != nullptr ? recorder_->dropped_series()
                                              : 0) +
          ", \"points_per_series_limit\": " +
          std::to_string(config_.max_points_per_series) + "}";
  json += "}\n";

  const std::string base =
      "flight-" + std::to_string(info.seq) + "-" + slug(reason);
  const fs::path json_path = fs::path(config_.dir) / (base + ".json");
  const fs::path ulm_path = fs::path(config_.dir) / (base + ".ulm");

  if (Expected<bool> w = write_atomic(json_path, json); !w.ok()) {
    return Expected<BundleInfo>::failure(w.error());
  }
  if (Expected<bool> w = write_atomic(ulm_path, ulm); !w.ok()) {
    return Expected<BundleInfo>::failure(w.error());
  }

  info.json_path = json_path.string();
  info.ulm_path = ulm_path.string();
  info.json_bytes = json.size();
  captures_total_.inc();
  return info;
}

std::uint64_t FlightRecorder::captures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

}  // namespace wadp::obs
