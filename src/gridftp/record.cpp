#include "gridftp/record.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace wadp::gridftp {
namespace {

/// Largest |TIME - (END - START)| an honest log line shows: to_ulm()
/// writes all three with 3 decimals, so rounding contributes at most
/// 1.5 ms.  It also bounds how far END - START strays from the true
/// duration (two roundings: at most 1 ms).
constexpr Duration kTimeFieldSlack = 0.002;

/// Largest rounding error in a BW= value written with 3 decimals (KB/s).
constexpr double kBwFieldSlack = 0.0005;

}  // namespace

const char* to_string(Operation op) {
  return op == Operation::kRead ? "read" : "write";
}

std::optional<Operation> operation_from_string(std::string_view s) {
  if (util::iequals(s, "read")) return Operation::kRead;
  if (util::iequals(s, "write")) return Operation::kWrite;
  return std::nullopt;
}

double TransferRecord::bandwidth_kb_per_sec() const {
  return to_kb_per_sec(bandwidth());
}

Bandwidth TransferRecord::bandwidth() const {
  const Duration t = total_time();
  WADP_CHECK_MSG(t > 0.0, "record with non-positive duration");
  return static_cast<double>(file_size) / t;
}

util::UlmRecord TransferRecord::to_ulm() const {
  util::UlmRecord ulm;
  ulm.set("DATE", util::format_ulm_date(start_time));
  ulm.set("HOST", host);
  ulm.set("PROG", "wadp-gridftp");
  ulm.set("NL.EVNT", "FTP_INFO");
  ulm.set("SOURCE", source_ip);
  ulm.set("FILE", file_name);
  ulm.set_int("SIZE", static_cast<std::int64_t>(file_size));
  ulm.set("VOLUME", volume);
  ulm.set_double("START", start_time, 3);
  ulm.set_double("END", end_time, 3);
  ulm.set_double("TIME", total_time(), 3);
  ulm.set_double("BW", bandwidth_kb_per_sec(), 3);
  ulm.set("OP", to_string(op));
  ulm.set_int("STREAMS", streams);
  ulm.set_int("BUFFER", static_cast<std::int64_t>(tcp_buffer));
  if (!ok) ulm.set("RESULT", "fail");
  if (trace_id != 0) {
    ulm.set_int("TRACE", static_cast<std::int64_t>(trace_id));
  }
  if (disk_throughput > 0.0) {
    ulm.set_double("DISK", to_kb_per_sec(disk_throughput), 3);
  }
  if (net_probe > 0.0) {
    ulm.set_double("PROBE", to_kb_per_sec(net_probe), 3);
  }
  return ulm;
}

std::optional<TransferRecord> TransferRecord::from_ulm(
    const util::UlmRecord& ulm) {
  TransferRecord r;
  const auto host = ulm.get("HOST");
  const auto source = ulm.get("SOURCE");
  const auto file = ulm.get("FILE");
  const auto size = ulm.get_int("SIZE");
  const auto volume = ulm.get("VOLUME");
  const auto start = ulm.get_double("START");
  const auto end = ulm.get_double("END");
  const auto op_str = ulm.get("OP");
  const auto streams = ulm.get_int("STREAMS");
  const auto buffer = ulm.get_int("BUFFER");

  if (!host || !source || !file || !size || !volume || !start || !end ||
      !op_str || !streams || !buffer) {
    return std::nullopt;
  }
  const auto op = operation_from_string(*op_str);
  if (!op) return std::nullopt;
  const auto result = ulm.get("RESULT");
  const bool ok_flag = !result.has_value() || !util::iequals(*result, "fail");
  if (*size < 0 || (ok_flag && *size == 0) || !std::isfinite(*start) ||
      !std::isfinite(*end) || *end <= *start || *streams < 1 ||
      *buffer <= 0) {
    return std::nullopt;
  }
  // TIME= is redundant with START/END; when present it must agree, which
  // catches a rewritten START or END (the comparison also fails on NaN).
  if (ulm.get("TIME")) {
    const auto time = ulm.get_double("TIME");
    if (!time || !(std::abs(*time - (*end - *start)) <= kTimeFieldSlack)) {
      return std::nullopt;
    }
  }
  // BW= is SIZE over the true duration T, in KB/s.  With D = END - START,
  // |D - T| <= 1 ms < kTimeFieldSlack, and the written BW is within
  // kBwFieldSlack of SIZE/T, so an honest line satisfies
  //   SIZE/(D + slack) - 0.0005 <= BW <= SIZE/(D - slack) + 0.0005,
  // the upper bound existing only while D > slack.  The slack's spare
  // 1 ms is a relative margin of at least 1e-12 for any duration under
  // 30 years, far above the quotients' floating-point error.
  if (ulm.get("BW")) {
    const auto bw = ulm.get_double("BW");
    if (!bw || !std::isfinite(*bw)) return std::nullopt;
    const double kb = static_cast<double>(*size) / static_cast<double>(kKB);
    const Duration span = *end - *start;
    if (*bw < kb / (span + kTimeFieldSlack) - kBwFieldSlack) {
      return std::nullopt;
    }
    if (span > kTimeFieldSlack &&
        *bw > kb / (span - kTimeFieldSlack) + kBwFieldSlack) {
      return std::nullopt;
    }
  }

  r.host = std::string(*host);
  r.source_ip = std::string(*source);
  r.file_name = std::string(*file);
  r.file_size = static_cast<Bytes>(*size);
  r.volume = std::string(*volume);
  r.start_time = *start;
  r.end_time = *end;
  r.op = *op;
  r.streams = static_cast<int>(*streams);
  r.tcp_buffer = static_cast<Bytes>(*buffer);
  r.ok = ok_flag;
  const auto trace = ulm.get_int("TRACE");
  if (trace && *trace > 0) r.trace_id = static_cast<std::uint64_t>(*trace);
  // DISK=/PROBE= are optional (format version: absent on pre-regression
  // logs); a present-but-invalid value rejects the line.
  if (ulm.get("DISK")) {
    const auto disk = ulm.get_double("DISK");
    if (!disk || !std::isfinite(*disk) || *disk < 0.0) return std::nullopt;
    r.disk_throughput = *disk * static_cast<double>(kKB);
  }
  if (ulm.get("PROBE")) {
    const auto probe = ulm.get_double("PROBE");
    if (!probe || !std::isfinite(*probe) || *probe < 0.0) return std::nullopt;
    r.net_probe = *probe * static_cast<double>(kKB);
  }
  return r;
}

}  // namespace wadp::gridftp
