// Transfer record: the schema of the paper's instrumented GridFTP log.
//
// Section 3 / Fig. 3 enumerate the fields the instrumented server logs
// for every transfer: source address, file name, file size, logical
// volume, start and end timestamps, total time, aggregate bandwidth,
// operation (read/write), parallel stream count, and TCP buffer size.
// We keep exactly those fields (plus the serving host, which real
// GridFTP logs also carry and which the information provider needs to
// label its entries).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/types.hpp"
#include "util/ulm.hpp"

namespace wadp::gridftp {

enum class Operation {
  kRead,   ///< server read the file from disk and sent it (client "get")
  kWrite,  ///< server received and wrote the file (client "put")
};

const char* to_string(Operation op);
std::optional<Operation> operation_from_string(std::string_view s);

struct TransferRecord {
  std::string host;        ///< serving host name (log owner)
  std::string source_ip;   ///< remote endpoint address
  std::string file_name;   ///< absolute path on the server
  Bytes file_size = 0;     ///< bytes transferred
  std::string volume;      ///< logical volume containing the file
  SimTime start_time = 0;  ///< data-transfer start (epoch seconds)
  SimTime end_time = 0;    ///< data-transfer end (epoch seconds)
  Operation op = Operation::kRead;
  int streams = 1;         ///< parallel data channels
  Bytes tcp_buffer = 0;    ///< per-stream socket buffer
  /// Outcome tag.  The paper's server only ever logged completed
  /// transfers; the resilience plane also records *failed* attempts
  /// (file_size = bytes actually moved, possibly 0; bandwidth is the
  /// achieved partial rate) so predictors can learn outage windows.
  /// Serialized as RESULT=fail — absent for successes, keeping
  /// pre-resilience log lines byte-identical.
  bool ok = true;
  /// Causal trace id of the request this transfer served (see
  /// obs/context.hpp).  Serialized as TRACE= only when non-zero, so
  /// untraced logs stay byte-identical to earlier PRs.
  std::uint64_t trace_id = 0;
  /// Disk-I/O throughput sampled at the serving host at transfer end
  /// (bytes/s; the read port for reads, write port for writes).
  /// Serialized as DISK= (KB/s) only when positive, so logs from
  /// servers without disk sampling stay byte-identical.
  Bandwidth disk_throughput = 0.0;
  /// Network probe bandwidth along the transfer route at start
  /// (bytes/s).  Serialized as PROBE= (KB/s) only when positive,
  /// same versioning contract as DISK=.
  Bandwidth net_probe = 0.0;

  /// Transfer duration in seconds.
  Duration total_time() const { return end_time - start_time; }

  /// The paper's formula: BW = file size / transfer time, in KB/sec
  /// (the unit of the Fig. 3 "Bandwidth" column).
  double bandwidth_kb_per_sec() const;

  /// Same in bytes/sec, the library-internal unit.
  Bandwidth bandwidth() const;

  /// ULM encoding (one line).  Keys follow the Fig. 3 column names.
  util::UlmRecord to_ulm() const;

  /// Inverse of to_ulm; nullopt when required fields are missing or
  /// inconsistent (end before start; zero size, unless the record is
  /// tagged RESULT=fail — a failed attempt may have moved nothing; a
  /// TIME= or BW= that disagrees with SIZE, START and END beyond the
  /// 3-decimal rounding to_ulm() applies).
  static std::optional<TransferRecord> from_ulm(const util::UlmRecord& ulm);

  bool operator==(const TransferRecord&) const = default;
};

}  // namespace wadp::gridftp
