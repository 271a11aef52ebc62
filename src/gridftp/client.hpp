// GridFTP client module: get / put / partial / third-party / striped
// transfers.
//
// The client orchestrates the protocol phases the paper's server
// implements — control-channel establishment with authentication,
// parallel data-channel setup, the data movement itself (run on the
// fluid engine), and the server's post-transfer logging — and reports
// an end-to-end outcome.  The *timed* window of the logged record spans
// the data transfer operation (data-channel setup through last byte),
// matching the paper's "we merely record the data and time the transfer
// operation"; authentication happens before the timed window, exactly
// as in the real server's transfer log.
//
// Every operation runs one attempt path: a control skeleton (overhead,
// one logged-in session per server, then the operation's own short
// command script, which grants a data plan) and one data phase (one
// flow per leg; a striped get has a leg per stripe).  On top sits the
// resilience layer: an optional retry policy (bounded exponential
// backoff with jitter, a per-attempt timeout, and a cumulative budget)
// re-runs failed attempts, and an optional fault injector perturbs
// individual attempts with refused connections, truncated data
// channels, and stalls.  Every failed attempt tears all its data flows
// down, bumps exactly one outcome counter, emits one ULM event, and —
// when a failure sink is wired — produces an outcome-tagged
// TransferRecord so the history plane learns outage windows.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gridftp/server.hpp"
#include "net/fabric.hpp"
#include "net/path.hpp"
#include "net/route.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "sim/simulator.hpp"
#include "storage/storage.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wadp::gridftp {

/// GridFTP performance-marker callback (the protocol's 112 replies):
/// bytes moved so far, total bytes, and the simulated instant.
using ProgressCallback =
    std::function<void(Bytes moved, Bytes total, SimTime at)>;

struct TransferOptions {
  int streams = 8;                   ///< the paper's experiments used 8
  Bytes buffer = net::kTunedTcpBuffer;  ///< and 1 MB buffers (Section 6.1)
  /// > 0: emit performance markers every this many seconds during the
  /// data phase, one series per data flow (per stripe when striped).
  Duration marker_interval = 0.0;
  ProgressCallback on_marker;  ///< invoked from simulator context
};

/// Whether retrying a failed attempt can help.  Taken from the failure
/// reply's leading code (RFC 959 reply classes): a 5yz refusal (no such
/// file, zero-byte transfer, stripe mismatch) is permanent; a 4yz reply,
/// a connect refusal, a truncation, a stall, an attempt timeout or any
/// uncoded error is transient.
enum class FailureClass { kNone, kTransient, kPermanent };

/// Class of a failed attempt's error line.
FailureClass classify_failure(std::string_view error);

struct TransferOutcome {
  bool ok = false;
  std::string error;                  ///< set when !ok
  FailureClass failure = FailureClass::kNone;  ///< set when !ok
  TransferRecord record;              ///< as logged by the serving host
  Duration control_overhead = 0.0;    ///< auth + command time before data
  int attempts = 1;                   ///< attempts consumed (retries + 1 try)
};

using TransferCallback = std::function<void(const TransferOutcome&)>;

class GridFtpClient {
 public:
  /// `local_storage` may be null for a client whose disk never binds
  /// (e.g. a memory sink used for probe transfers).  `resolver` maps
  /// site pairs to routes: a paper-testbed net::Topology or a
  /// grid-scale net::GridTopology both work.
  GridFtpClient(sim::Simulator& sim, net::FluidEngine& engine,
                net::PathResolver& resolver, std::string site, std::string ip,
                storage::StorageSystem* local_storage = nullptr);

  const std::string& site() const { return site_; }
  const std::string& ip() const { return ip_; }

  /// Installs a retry policy for every operation.  The default policy is
  /// single-shot (max_attempts = 1), the pre-resilience behaviour.
  /// `jitter_seed` seeds the backoff-jitter Rng, so two clients with the
  /// same policy but different seeds decorrelate their retries.
  void set_retry_policy(resilience::RetryPolicy policy,
                        std::uint64_t jitter_seed = 0x7ead5eedULL);
  const resilience::RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Points the client at a fault injector; each attempt then draws one
  /// AttemptFault.  Null (the default) disables injection.  Not owned.
  void set_fault_injector(resilience::FaultInjector* injector) {
    faults_ = injector;
  }

  /// Receives an outcome-tagged TransferRecord (ok = false, file_size =
  /// bytes actually moved) for every failed attempt against a known
  /// server.  Wire this to HistoryStore::append so predictors see
  /// outage windows.  The client cannot depend on the history module
  /// (history links gridftp), hence the callback.
  using FailureSink = std::function<void(const TransferRecord&)>;
  void set_failure_sink(FailureSink sink) { failure_sink_ = std::move(sink); }

  /// Retrieves `remote_path` from `server`.  The callback fires when the
  /// control channel closes (after server-side logging overhead).
  void get(GridFtpServer& server, std::string remote_path,
           const TransferOptions& options, TransferCallback callback);

  /// Partial retrieval: `length` bytes starting at `offset` (GridFTP's
  /// partial-file-transfer extension).  Logged with the bytes moved.
  void get_partial(GridFtpServer& server, std::string remote_path,
                   Bytes offset, Bytes length, const TransferOptions& options,
                   TransferCallback callback);

  /// Stores a new file of `size` bytes at `remote_path` on `server`.
  void put(GridFtpServer& server, std::string remote_path, Bytes size,
           const TransferOptions& options, TransferCallback callback);

  /// Third-party transfer: data flows source -> destination directly;
  /// this client only drives the two control channels.  Both servers
  /// log (read at the source, write at the destination); the outcome
  /// carries the source's record.
  void third_party(GridFtpServer& source, GridFtpServer& destination,
                   std::string source_path, std::string destination_path,
                   const TransferOptions& options, TransferCallback callback);

  /// Striped retrieval (the GridFTP SPAS/SPOR extension the paper's
  /// companion [2] describes): `stripes` are data movers at one site,
  /// each holding `remote_path`; every stripe serves an equal slice
  /// concurrently through its own storage, aggregating host bandwidth.
  /// Each stripe logs its slice; the outcome's record summarizes the
  /// whole file over the full timed window (host = first stripe's).
  /// All stripes must be at the same site and the file identical on
  /// each; violations fail the transfer.  Performance markers, when
  /// enabled, report per stripe (as GridFTP's striped 112 replies do).
  void striped_get(std::vector<GridFtpServer*> stripes,
                   std::string remote_path, const TransferOptions& options,
                   TransferCallback callback);

 private:
  struct Attempt;      // live state of one attempt (client.cpp)
  struct RetryDriver;  // backoff loop around an attempt launcher

  /// Launches one attempt of an operation; the callback reports that
  /// attempt's outcome (the retry driver decides what happens next).
  using AttemptLauncher = std::function<void(TransferCallback)>;

  /// Runs one operation under the retry policy — every attempt is a
  /// launch() with these arguments — and delivers the final outcome
  /// (with `attempts` filled in) to `callback`.
  template <typename Servers, typename Script>
  void run_with_retry(std::string op_name, Servers servers, std::string peer_ip,
                      std::string path, Operation op,
                      const TransferOptions& options, TransferCallback callback,
                      Script script);

  /// One attempt: the control skeleton every operation shares.  Charges
  /// the slowest control RTT's setup overhead, begins the attempt, and
  /// after the overhead opens and logs in one session per server
  /// (`servers[0]` is charged with failures, `path` is its file and
  /// `peer_ip` the remote address in its failure records).  It then
  /// runs `script` — the operation's own commands, callable as
  /// Expected<DataPlan>(std::vector<ServerSession>&, const std::string&
  /// path) with DataPlan defined in client.cpp — and hands the granted
  /// plan to execute_plan, or fails the attempt with the script's reply
  /// line.
  template <typename Script>
  void launch(std::string op_name, std::span<GridFtpServer* const> servers,
              std::string peer_ip, std::string path, Operation op,
              const TransferOptions& options, TransferCallback callback,
              Script script);

  /// Creates the per-attempt state: samples a fault, arms the attempt
  /// timeout, captures what a failure record needs.
  std::shared_ptr<Attempt> begin_attempt(std::string op_name,
                                         GridFtpServer* record_server,
                                         std::string record_remote_ip,
                                         std::string path, Operation op,
                                         const TransferOptions& options,
                                         Duration overhead,
                                         TransferCallback callback);

  /// Resolves an attempt as failed: idempotent; cancels timers, tears
  /// down every live data flow (keeping partial-byte counts), closes
  /// transferring control sessions with a 426, bumps the fail counter,
  /// emits one ULM event, pushes an outcome-tagged record to the
  /// failure sink, and invokes the per-attempt callback.
  void finish_attempt_failure(const std::shared_ptr<Attempt>& attempt,
                              std::string error);

  /// Cancels any pending timeout/fault events for the attempt.
  void cancel_attempt_timers(const std::shared_ptr<Attempt>& attempt);

  /// Interrupts every live flow of the attempt, adding the bytes each
  /// moved to the attempt's count.
  void interrupt_flows(Attempt& attempt);

  /// Realizes a timed injected fault (truncate or stall) against a
  /// running attempt.
  void realize_timed_fault(const std::shared_ptr<Attempt>& attempt);

  /// Runs the data phase of the attempt's plan on the fluid engine: one
  /// flow per leg, all on the same route.  A plan that would move 0
  /// bytes fails the attempt before any flow starts.
  void execute_plan(const std::shared_ptr<Attempt>& attempt);

  /// Logs one finished leg; the last one resolves the attempt.
  void complete_leg(const std::shared_ptr<Attempt>& attempt,
                    std::size_t index, const net::FlowStats& stats);

  Duration control_rtt(const std::string& server_site) const;

  sim::Simulator& sim_;
  net::FluidEngine& engine_;
  net::PathResolver& resolver_;
  std::string site_;
  std::string ip_;
  storage::StorageSystem* local_storage_;

  resilience::RetryPolicy retry_policy_;  // default: single-shot
  util::Rng retry_rng_;
  resilience::FaultInjector* faults_ = nullptr;
  FailureSink failure_sink_;
};

}  // namespace wadp::gridftp
