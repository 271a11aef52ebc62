#include "gridftp/client.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "gridftp/protocol.hpp"
#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/ulm.hpp"

namespace wadp::gridftp {

namespace {

// Protocol timing: round trips on the control path and GSI CPU cost.
constexpr int kControlSetupRtts = 3;  // TCP + GSI handshake round trips
constexpr Duration kAuthCpu = 0.4;    // GSI public-key operations (seconds)
constexpr int kDataSetupRtts = 2;     // PASV/PORT exchange + channel connect

/// The data phase a control script granted: one file moved from
/// `read_path` to `write_path` in one leg (one flow) per data mover.
/// A leg's reading server logs a read and its writing server a write; a
/// null end is this client, whose disk (if any) the flow crosses
/// instead.  Every operation is one leg except a striped get, which
/// has one per stripe, all at one site.
struct DataPlan {
  struct Leg {
    GridFtpServer* reader = nullptr;
    GridFtpServer* writer = nullptr;
    Bytes bytes = 0;
    net::FlowId flow = 0;      ///< live flow, 0 when none
    SimTime flow_start = 0.0;  ///< flow window, for the stream span
    SimTime flow_end = 0.0;
  };
  std::string read_path;
  std::string write_path;
  std::vector<Leg> legs;

  Bytes bytes() const {
    Bytes total = 0;
    for (const Leg& leg : legs) total += leg.bytes;
    return total;
  }
};

/// A control script's result: the granted plan or the failing reply.
using Grant = Expected<DataPlan>;

Grant refused(const Reply& reply) { return Grant::failure(reply.to_line()); }

}  // namespace

/// Live state of one transfer attempt, shared between the scheduled
/// phases (control, data, timeout, injected fault).  The `done` flag
/// makes resolution idempotent: whichever of {completion, failure,
/// timeout, truncation} fires first wins, and every later event is a
/// no-op — exactly one outcome counter and one ULM event per attempt.
struct GridFtpClient::Attempt {
  std::string op_name;                    ///< "get" / "put" / ...
  GridFtpServer* record_server = nullptr; ///< host tagged in failure records
  std::string record_remote_ip;           ///< peer address in failure records
  std::string path;
  Operation op = Operation::kRead;
  TransferOptions options;
  Duration overhead = 0.0;    ///< control overhead of this attempt
  SimTime started = 0.0;      ///< attempt launch instant
  resilience::AttemptFault fault;
  /// Bytes of flows no longer live: finished legs, plus what frozen or
  /// torn-down flows had moved.
  Bytes moved = 0;
  sim::EventId timeout_event = 0;
  sim::EventId fault_event = 0;
  bool done = false;
  bool stalled = false;       ///< injected stall struck; nothing will move
  /// Causal context captured at launch (trace id + op-span parent); the
  /// scheduled phases reinstall it so server logging, spans, and the
  /// failure sink inherit the request's trace.
  obs::TraceContext ctx;
  /// Pre-allocated id of this attempt's span (recorded at resolution).
  obs::SpanId span_id = 0;
  /// One control session per server, in launch order.  A session whose
  /// data phase was granted (kTransferring) gets its 426 on failure.
  std::vector<ServerSession> sessions;
  DataPlan plan;              ///< granted by the control script
  SimTime timed_start = 0.0;  ///< data-phase start (the logged window)
  Bandwidth net_probe = 0.0;  ///< route probe taken when the flows start
  std::size_t legs_running = 0;
  Duration logging_overhead = 0.0;  ///< slowest logger among finished legs
  TransferRecord record;      ///< leg 0's primary record (the outcome's)
  TransferCallback callback;  ///< per-attempt outcome consumer

  /// Host charged with this attempt (empty when it names no server).
  std::string host() const {
    return record_server != nullptr ? record_server->config().host
                                    : std::string{};
  }

  /// Records this attempt's client.attempt span, when traced.
  void record_span(SimTime end, const char* result,
                   const std::string& error) const {
    if (!ctx.active()) return;
    const std::string served_by = host();
    obs::SpanRecord span;
    span.id = span_id;
    span.parent = ctx.parent;
    span.trace_id = ctx.trace_id;
    span.name = "client.attempt";
    span.start_ns = obs::sim_ns(started);
    span.end_ns = obs::sim_ns(end);
    span.attrs = {{"OP", op_name},
                  {"HOST", served_by.empty() ? "-" : served_by},
                  {"RESULT", result}};
    if (!error.empty()) span.attrs.emplace_back("ERROR", error);
    obs::Tracer::global().record_full(std::move(span));
  }
};

/// The backoff loop around one operation: launches attempts, spaces
/// retries per the policy, and delivers the final outcome.  Keeps
/// itself alive through the scheduled continuations.
struct GridFtpClient::RetryDriver
    : std::enable_shared_from_this<GridFtpClient::RetryDriver> {
  GridFtpClient* client = nullptr;
  std::string op_name;
  AttemptLauncher launch;
  TransferCallback callback;
  int attempts = 0;
  Duration backoff_spent = 0.0;
  /// Causal context captured when the operation was requested; every
  /// attempt (retries included) runs under it, parented by op_span.
  obs::TraceContext ctx;
  obs::SpanId op_span = 0;
  SimTime op_started = 0.0;

  void start() {
    ++attempts;
    // Attempts launched from backoff callbacks have lost the ambient
    // context; reinstall it so begin_attempt captures the trace with
    // the operation span as parent.
    std::optional<obs::ScopedTraceContext> scope;
    if (ctx.active()) {
      scope.emplace(obs::TraceContext{ctx.trace_id, op_span});
    }
    launch([self = shared_from_this()](const TransferOutcome& outcome) {
      self->finished(outcome);
    });
  }

  void finished(TransferOutcome outcome) {
    outcome.attempts = attempts;
    const resilience::RetryPolicy& policy = client->retry_policy_;
    // A permanent refusal would repeat on every attempt.
    if (outcome.ok || outcome.failure == FailureClass::kPermanent) {
      deliver(outcome);
      return;
    }
    if (attempts >= policy.max_attempts) {
      if (policy.enabled()) exhausted(outcome.error);
      deliver(outcome);
      return;
    }
    const Duration backoff =
        policy.backoff_for(attempts, client->retry_rng_);
    if (!policy.allows_retry(attempts, backoff_spent, backoff)) {
      exhausted(outcome.error);
      deliver(outcome);
      return;
    }
    backoff_spent += backoff;
    obs::Registry::global()
        .counter("wadp_resilience_retries_total", {{"op", op_name}},
                 "Transfer attempts re-run after a failure")
        .inc();
    obs::Registry::global()
        .histogram("wadp_resilience_backoff_seconds", {},
                   "Backoff waited before each retry, seconds")
        .record(backoff);
    util::UlmRecord event;
    event.set("OP", op_name);
    event.set_int("ATTEMPT", attempts);
    event.set_double("BACKOFF", backoff, 3);
    event.set("ERROR", outcome.error);
    obs::EventSink::global().emit("resilience.retry", "gridftp.client",
                                  std::move(event));
    client->sim_.schedule_after(
        backoff, [self = shared_from_this()] { self->start(); });
  }

  void exhausted(const std::string& error) {
    obs::Registry::global()
        .counter("wadp_resilience_retry_exhausted_total", {{"op", op_name}},
                 "Operations abandoned after the retry policy gave up")
        .inc();
    util::UlmRecord event;
    event.set("OP", op_name);
    event.set_int("ATTEMPTS", attempts);
    event.set("ERROR", error);
    obs::EventSink::global().emit("resilience.retry_exhausted",
                                  "gridftp.client", std::move(event));
  }

  void deliver(const TransferOutcome& outcome) {
    if (ctx.active()) {
      obs::SpanRecord span;
      span.id = op_span;
      span.parent = ctx.parent;
      span.trace_id = ctx.trace_id;
      span.name = "client.op";
      span.start_ns = obs::sim_ns(op_started);
      span.end_ns = obs::sim_ns(client->sim_.now());
      span.attrs = {{"OP", op_name},
                    {"ATTEMPTS", std::to_string(attempts)},
                    {"RESULT", outcome.ok ? "ok" : "fail"}};
      obs::Tracer::global().record_full(std::move(span));
    }
    if (callback) callback(outcome);
    callback = nullptr;
  }
};

namespace {

/// The scripted prologue every client invocation performs on a control
/// channel: GSSAPI authentication, login, and transfer-parameter
/// negotiation (TYPE/SBUF/parallelism/PASV).  Returns the failing reply,
/// or nullopt when the session reaches kReady with options applied.
std::optional<Reply> login_and_negotiate(ServerSession& session,
                                         const TransferOptions& options) {
  const std::string script[] = {
      "AUTH GSSAPI",
      "ADAT c2ltdWxhdGVkLXRva2Vu",
      "USER :globus-mapping:",
      "PASS dummy",
      "TYPE I",
      util::format("SBUF %llu", static_cast<unsigned long long>(options.buffer)),
      util::format("OPTS RETR Parallelism=%d;", options.streams),
      "PASV",
  };
  for (const auto& line : script) {
    const Reply reply = session.handle_line(line);
    if (!reply.ok()) return reply;
  }
  return std::nullopt;
}

/// Emits GridFTP performance markers (112 replies) for one flow.  Each
/// scheduled handler holds the only shared_ptr to the loop, so the loop
/// lives exactly until the tick that finds the flow gone — and is only
/// ever destroyed after its handler returns (no self-destruction from
/// inside the body, which completion callbacks could otherwise trigger).
class MarkerLoop : public std::enable_shared_from_this<MarkerLoop> {
 public:
  MarkerLoop(sim::Simulator& sim, net::FluidEngine& engine, net::FlowId flow,
             Duration interval, ProgressCallback on_marker)
      : sim_(sim),
        engine_(engine),
        flow_(flow),
        interval_(interval),
        on_marker_(std::move(on_marker)) {}

  void arm() {
    sim_.schedule_after(interval_,
                        [self = shared_from_this()] { self->fire(); });
  }

 private:
  void fire() {
    // progress() may complete flows (including this one) as a side
    // effect of advancing bookkeeping; a vanished flow ends the loop.
    // An interrupted flow (failure teardown, injected stall) vanishes
    // the same way, so the loop also ends then.
    const auto progress = engine_.progress(flow_);
    if (!progress) return;
    on_marker_(progress->moved, progress->total, sim_.now());
    arm();
  }

  sim::Simulator& sim_;
  net::FluidEngine& engine_;
  net::FlowId flow_;
  Duration interval_;
  ProgressCallback on_marker_;
};

obs::Counter& outcome_counter(const char* result) {
  return obs::Registry::global().counter(
      "wadp_client_transfers_total", {{"result", result}},
      "Client-driven transfer operations by outcome");
}

/// One ULM self-event per resolved attempt (RESULT=ok|fail).
void emit_attempt_event(const std::string& op, const std::string& host,
                        bool ok, const std::string& error, Bytes moved) {
  util::UlmRecord event;
  event.set("OP", op);
  event.set("HOST", host.empty() ? "-" : host);
  event.set("RESULT", ok ? "ok" : "fail");
  if (!ok) event.set("ERROR", error);
  if (moved > 0) event.set_int("MOVED", static_cast<std::int64_t>(moved));
  obs::EventSink::global().emit("client.attempt", "gridftp.client",
                                std::move(event));
}

/// The bytes a granted retrieve will send (0 when the grant names none,
/// which the zero-byte rule then refuses).
Bytes granted_length(ServerSession& session) {
  const auto data = session.take_pending_data();
  return data && data->length ? *data->length : 0;
}

/// Asks the server for a file's size (SIZE).
Expected<Bytes> remote_size(ServerSession& session, const std::string& path) {
  const Reply reply = session.handle({.verb = "SIZE", .argument = path});
  if (!reply.ok()) return Expected<Bytes>::failure(reply.to_line());
  const auto size = util::parse_int(reply.text);
  if (!size || *size < 0) {
    return Expected<Bytes>::failure("501 unparseable size reply: " +
                                    reply.to_line());
  }
  return static_cast<Bytes>(*size);
}

/// ERET's partial-range argument: "P <offset> <length> <path>".
std::string partial_range(Bytes offset, Bytes length, const std::string& path) {
  return util::format("P %llu %llu %s", static_cast<unsigned long long>(offset),
                      static_cast<unsigned long long>(length), path.c_str());
}

/// Site of one end of a leg; a null server is the client itself.
const std::string& end_site(const GridFtpServer* server,
                            const std::string& client_site) {
  return server != nullptr ? server->site() : client_site;
}

/// Records the transfer-lifecycle span tree (connect -> negotiate ->
/// stream[i] -> fsync -> log) on the simulated timeline.  Phases are
/// reconstructed at completion because they finish across scheduled
/// callbacks; windows are simulated seconds mapped onto the tracer's
/// nanosecond axis.  A striped plan gets one stream span per stripe.
void record_transfer_spans(const DataPlan& plan, const std::string& src_site,
                           const std::string& dst_site, int streams,
                           Duration control_overhead, SimTime timed_start,
                           SimTime stream_end, Duration logging_overhead) {
  auto& tracer = obs::Tracer::global();
  const DataPlan::Leg& first = plan.legs.front();
  const Operation op =
      first.reader != nullptr ? Operation::kRead : Operation::kWrite;
  const SimTime invoked = timed_start - control_overhead;
  const obs::SpanId root =
      tracer.record("transfer", 0, obs::sim_ns(invoked),
                    obs::sim_ns(stream_end + logging_overhead),
                    {{"OP", to_string(op)},
                     {"SRC", src_site},
                     {"DST", dst_site},
                     {"BYTES", std::to_string(plan.bytes())},
                     {"STREAMS", std::to_string(streams)}});
  // control_overhead = control-channel setup RTTs + auth CPU; the CPU
  // part is the negotiate phase.
  const Duration auth = std::min(control_overhead, kAuthCpu);
  tracer.record("connect", root, obs::sim_ns(invoked),
                obs::sim_ns(timed_start - auth));
  tracer.record("negotiate", root, obs::sim_ns(timed_start - auth),
                obs::sim_ns(timed_start));
  for (std::size_t i = 0; i < plan.legs.size(); ++i) {
    const DataPlan::Leg& leg = plan.legs[i];
    std::vector<std::pair<std::string, std::string>> attrs;
    if (plan.legs.size() > 1) attrs.emplace_back("STRIPE", std::to_string(i));
    attrs.emplace_back("BYTES", std::to_string(leg.bytes));
    tracer.record("stream", root, obs::sim_ns(leg.flow_start),
                  obs::sim_ns(leg.flow_end), std::move(attrs));
  }
  if (first.writer != nullptr) {
    // Storage flush is modeled inside the fluid flow window (the write
    // port is a flow resource), so the fsync phase closes with it.
    tracer.record("fsync", root, obs::sim_ns(stream_end),
                  obs::sim_ns(stream_end), {{"MODEL", "inline-in-stream"}});
  }
  tracer.record("log", root, obs::sim_ns(stream_end),
                obs::sim_ns(stream_end + logging_overhead));
}

}  // namespace

FailureClass classify_failure(std::string_view error) {
  return !error.empty() && error.front() == '5' ? FailureClass::kPermanent
                                                : FailureClass::kTransient;
}

GridFtpClient::GridFtpClient(sim::Simulator& sim, net::FluidEngine& engine,
                             net::PathResolver& resolver, std::string site,
                             std::string ip,
                             storage::StorageSystem* local_storage)
    : sim_(sim),
      engine_(engine),
      resolver_(resolver),
      site_(std::move(site)),
      ip_(std::move(ip)),
      local_storage_(local_storage) {}

void GridFtpClient::set_retry_policy(resilience::RetryPolicy policy,
                                     std::uint64_t jitter_seed) {
  retry_policy_ = policy;
  retry_rng_ = util::Rng(jitter_seed);
}

Duration GridFtpClient::control_rtt(const std::string& server_site) const {
  // Control traffic client->server; fall back to the reverse direction
  // when only one direction is registered (RTT is symmetric anyway).
  if (const auto route = resolver_.resolve(site_, server_site)) {
    return route->rtt;
  }
  if (const auto route = resolver_.resolve(server_site, site_)) {
    return route->rtt;
  }
  return 0.05;  // conservative wide-area default
}

template <typename Servers, typename Script>
void GridFtpClient::run_with_retry(std::string op_name, Servers servers,
                                   std::string peer_ip, std::string path,
                                   Operation op, const TransferOptions& options,
                                   TransferCallback callback, Script script) {
  auto driver = std::make_shared<RetryDriver>();
  driver->client = this;
  driver->op_name = op_name;
  driver->launch = [this, op_name = std::move(op_name),
                    servers = std::move(servers), peer_ip = std::move(peer_ip),
                    path = std::move(path), op, options,
                    script = std::move(script)](TransferCallback attempt_done) {
    launch(op_name, servers, peer_ip, path, op, options,
           std::move(attempt_done), script);
  };
  driver->callback = std::move(callback);
  driver->ctx = obs::TraceContext::current();
  if (driver->ctx.active()) {
    driver->op_span = obs::Tracer::global().allocate_id();
    driver->op_started = sim_.now();
  }
  driver->start();
}

template <typename Script>
void GridFtpClient::launch(std::string op_name,
                           std::span<GridFtpServer* const> servers,
                           std::string peer_ip, std::string path, Operation op,
                           const TransferOptions& options,
                           TransferCallback callback, Script script) {
  // All control channels are brought up concurrently; the slowest one
  // gates the transfer.
  Duration rtt = 0.0;
  for (const GridFtpServer* server : servers) {
    rtt = std::max(rtt, control_rtt(server->site()));
  }
  const Duration overhead = kControlSetupRtts * rtt + kAuthCpu;
  auto attempt = begin_attempt(
      std::move(op_name), servers.empty() ? nullptr : servers.front(),
      std::move(peer_ip), std::move(path), op, options, overhead,
      std::move(callback));
  attempt->sessions.reserve(servers.size());
  for (GridFtpServer* server : servers) attempt->sessions.emplace_back(*server);

  sim_.schedule_after(overhead, [this, attempt, script = std::move(script)] {
    if (attempt->done) return;
    if (attempt->fault.kind == resilience::FaultKind::kConnectFail) {
      finish_attempt_failure(attempt, "421 connection refused (injected fault)");
      return;
    }
    for (ServerSession& session : attempt->sessions) {
      if (const auto denied = login_and_negotiate(session, attempt->options)) {
        finish_attempt_failure(attempt, denied->to_line());
        return;
      }
    }
    Grant plan = script(attempt->sessions, attempt->path);
    if (!plan) {
      finish_attempt_failure(attempt, plan.error());
      return;
    }
    attempt->plan = std::move(plan).value();
    execute_plan(attempt);
  });
}

std::shared_ptr<GridFtpClient::Attempt> GridFtpClient::begin_attempt(
    std::string op_name, GridFtpServer* record_server,
    std::string record_remote_ip, std::string path, Operation op,
    const TransferOptions& options, Duration overhead,
    TransferCallback callback) {
  auto attempt = std::make_shared<Attempt>();
  attempt->op_name = std::move(op_name);
  attempt->record_server = record_server;
  attempt->record_remote_ip = std::move(record_remote_ip);
  attempt->path = std::move(path);
  attempt->op = op;
  attempt->options = options;
  attempt->overhead = overhead;
  attempt->started = sim_.now();
  attempt->callback = std::move(callback);
  attempt->ctx = obs::TraceContext::current();
  if (attempt->ctx.active()) {
    attempt->span_id = obs::Tracer::global().allocate_id();
  }
  if (faults_ != nullptr) attempt->fault = faults_->sample_attempt();
  if (retry_policy_.attempt_timeout > 0.0) {
    attempt->timeout_event = sim_.schedule_after(
        retry_policy_.attempt_timeout, [this, attempt] {
          attempt->timeout_event = 0;
          obs::Registry::global()
              .counter("wadp_resilience_attempt_timeouts_total", {},
                       "Attempts abandoned by the per-attempt timeout")
              .inc();
          finish_attempt_failure(
              attempt,
              util::format("426 attempt timed out after %.0f s",
                           retry_policy_.attempt_timeout));
        });
  }
  if (attempt->fault.kind == resilience::FaultKind::kTruncate ||
      attempt->fault.kind == resilience::FaultKind::kStall) {
    attempt->fault_event =
        sim_.schedule_after(overhead + attempt->fault.delay, [this, attempt] {
          attempt->fault_event = 0;
          realize_timed_fault(attempt);
        });
  }
  return attempt;
}

void GridFtpClient::cancel_attempt_timers(
    const std::shared_ptr<Attempt>& attempt) {
  if (attempt->timeout_event != 0) {
    sim_.cancel(attempt->timeout_event);
    attempt->timeout_event = 0;
  }
  if (attempt->fault_event != 0) {
    sim_.cancel(attempt->fault_event);
    attempt->fault_event = 0;
  }
}

void GridFtpClient::interrupt_flows(Attempt& attempt) {
  for (DataPlan::Leg& leg : attempt.plan.legs) {
    if (leg.flow == 0) continue;
    if (const auto progress = engine_.interrupt_flow(leg.flow)) {
      attempt.moved += progress->moved;
    }
    leg.flow = 0;
  }
}

void GridFtpClient::realize_timed_fault(
    const std::shared_ptr<Attempt>& attempt) {
  if (attempt->done) return;
  if (attempt->fault.kind == resilience::FaultKind::kTruncate) {
    finish_attempt_failure(attempt,
                           "426 data channel truncated (injected fault)");
    return;
  }
  // Stall: the channels stay open but bytes stop.  Freeze every flow,
  // keeping the partial counts for the eventual failure record; only
  // the per-attempt timeout (if configured) resolves the attempt.
  attempt->stalled = true;
  interrupt_flows(*attempt);
}

void GridFtpClient::finish_attempt_failure(
    const std::shared_ptr<Attempt>& attempt, std::string error) {
  if (attempt->done) return;
  attempt->done = true;
  cancel_attempt_timers(attempt);

  // Failures resolve from scheduled callbacks (timeouts, injected
  // faults) that lost the ambient context; reinstall it so the failure
  // record's history ingest nests under this attempt's span.
  std::optional<obs::ScopedTraceContext> trace_scope;
  if (attempt->ctx.active()) {
    trace_scope.emplace(
        obs::TraceContext{attempt->ctx.trace_id, attempt->span_id});
  }

  // Tear down the data channels, keeping the bytes they moved.
  interrupt_flows(*attempt);
  const Bytes moved = attempt->moved;
  // Close out control sessions whose data phase was granted (the server
  // sends its 426) so a retried attempt starts from a clean slate.  This
  // also rolls back a third-party destination whose source then refused.
  for (ServerSession& session : attempt->sessions) {
    if (session.state() == SessionState::kTransferring) {
      (void)session.complete_transfer(false);
    }
  }

  outcome_counter("fail").inc();
  emit_attempt_event(attempt->op_name, attempt->host(), /*ok=*/false, error,
                     moved);

  // Outcome-tagged record: the history plane learns the outage window.
  if (attempt->record_server != nullptr && failure_sink_) {
    TransferRecord record;
    record.host = attempt->record_server->config().host;
    record.source_ip = attempt->record_remote_ip;
    record.file_name = attempt->path;
    record.file_size = moved;
    record.volume = "-";
    record.start_time = attempt->started;
    // Guarantee a positive duration even for failures resolved at the
    // launch instant (bandwidth() divides by it).
    record.end_time = std::max(sim_.now(), attempt->started + 1e-3);
    record.op = attempt->op;
    record.streams = attempt->options.streams;
    record.tcp_buffer = attempt->options.buffer;
    record.ok = false;
    record.trace_id = attempt->ctx.trace_id;
    failure_sink_(record);
  }

  attempt->record_span(sim_.now(), "fail", error);

  TransferOutcome outcome;
  outcome.ok = false;
  outcome.failure = classify_failure(error);
  outcome.error = std::move(error);
  outcome.control_overhead = attempt->overhead;
  auto callback = std::move(attempt->callback);
  attempt->callback = nullptr;
  if (callback) callback(outcome);
}

void GridFtpClient::execute_plan(const std::shared_ptr<Attempt>& attempt) {
  const DataPlan& plan = attempt->plan;
  if (plan.legs.empty() ||
      std::any_of(plan.legs.begin(), plan.legs.end(),
                  [](const DataPlan::Leg& leg) { return leg.bytes == 0; })) {
    finish_attempt_failure(attempt,
                           "550 zero-byte transfer refused: " + attempt->path);
    return;
  }
  // Every leg crosses the same route (stripes share one site).
  const std::string& src_site = end_site(plan.legs.front().reader, site_);
  const std::string& dst_site = end_site(plan.legs.front().writer, site_);
  const auto route = resolver_.resolve(src_site, dst_site);
  if (!route) {
    finish_attempt_failure(
        attempt, "no path " + src_site + " -> " + dst_site + " in topology");
    return;
  }

  // The timed window opens when the transfer operation begins: data
  // channels are set up inside it, as in the instrumented server.
  attempt->timed_start = sim_.now();
  const Duration data_setup = kDataSetupRtts * route->rtt;

  sim_.schedule_after(data_setup, [this, route = *route, attempt]() mutable {
    if (attempt->done) return;     // timed out / truncated during setup
    if (attempt->stalled) return;  // stalled channel: bytes never start

    // NWS-style route probe at data-phase start: the minimum available
    // capacity across the route's segments right now.  Logged alongside
    // the transfer (PROBE=) so hybrid predictors can regress measured
    // bandwidth against it.
    Bandwidth net_probe = 0.0;
    if (route.path != nullptr) {
      net_probe = route.path->capacity_at(sim_.now());
    } else {
      for (const net::CapacityProvider* link : route.links) {
        const Bandwidth c = link->capacity_at(sim_.now());
        net_probe = net_probe == 0.0 ? c : std::min(net_probe, c);
      }
    }
    attempt->net_probe = net_probe;

    auto& legs = attempt->plan.legs;
    attempt->legs_running = legs.size();
    for (std::size_t i = 0; i < legs.size(); ++i) {
      net::FlowSpec spec;
      spec.path = route.path;
      // The last leg takes the route's link list; earlier ones copy it.
      spec.links = i + 1 == legs.size() ? std::move(route.links) : route.links;
      spec.tcp = route.tcp;
      spec.base_rtt = route.rtt;
      spec.streams = attempt->options.streams;
      spec.buffer = attempt->options.buffer;
      spec.size = legs[i].bytes;
      // Storage ports: the servers' disks, or this client's (if any).
      if (legs[i].reader != nullptr) {
        spec.extra_resources.push_back(&legs[i].reader->storage().read_port());
      } else if (local_storage_ != nullptr) {
        spec.extra_resources.push_back(&local_storage_->read_port());
      }
      if (legs[i].writer != nullptr) {
        spec.extra_resources.push_back(
            &legs[i].writer->storage().write_port());
      } else if (local_storage_ != nullptr) {
        spec.extra_resources.push_back(&local_storage_->write_port());
      }
      spec.on_complete = [this, attempt, i](const net::FlowStats& stats) {
        complete_leg(attempt, i, stats);
      };

      const net::FlowId flow = engine_.start_flow(std::move(spec));
      if (!attempt->done) legs[i].flow = flow;
      if (attempt->options.marker_interval > 0.0 &&
          attempt->options.on_marker) {
        std::make_shared<MarkerLoop>(sim_, engine_, flow,
                                     attempt->options.marker_interval,
                                     attempt->options.on_marker)
            ->arm();
      }
    }
  });
}

void GridFtpClient::complete_leg(const std::shared_ptr<Attempt>& attempt,
                                 std::size_t index,
                                 const net::FlowStats& stats) {
  if (attempt->done) return;
  DataPlan& plan = attempt->plan;
  DataPlan::Leg& leg = plan.legs[index];
  leg.flow = 0;
  leg.flow_start = stats.start;
  leg.flow_end = stats.end;
  attempt->moved += leg.bytes;
  const bool last = --attempt->legs_running == 0;
  if (last) {
    attempt->done = true;
    cancel_attempt_timers(attempt);
  }

  // Reinstall the request's context: the servers' records pick up the
  // trace id and the transfer span tree parents under this attempt (the
  // flow-completion callback lost the thread-local).
  std::optional<obs::ScopedTraceContext> trace_scope;
  if (attempt->ctx.active()) {
    trace_scope.emplace(
        obs::TraceContext{attempt->ctx.trace_id, attempt->span_id});
  }

  // Each server logs its leg when the leg's last byte lands; the peer
  // address is the other end (this client when that end is null).
  const TransferOptions& options = attempt->options;
  if (leg.reader != nullptr) {
    TransferRecord record = leg.reader->record_transfer(
        leg.writer != nullptr ? leg.writer->config().ip : ip_, plan.read_path,
        leg.bytes, attempt->timed_start, stats.end, Operation::kRead,
        options.streams, options.buffer, attempt->net_probe);
    attempt->logging_overhead = std::max(
        attempt->logging_overhead, leg.reader->config().logging_overhead);
    if (index == 0) attempt->record = std::move(record);
  }
  if (leg.writer != nullptr) {
    leg.writer->fs().add_file(plan.write_path, leg.bytes);
    TransferRecord record = leg.writer->record_transfer(
        leg.reader != nullptr ? leg.reader->config().ip : ip_, plan.write_path,
        leg.bytes, attempt->timed_start, stats.end, Operation::kWrite,
        options.streams, options.buffer, attempt->net_probe);
    attempt->logging_overhead = std::max(
        attempt->logging_overhead, leg.writer->config().logging_overhead);
    if (index == 0 && leg.reader == nullptr) attempt->record = std::move(record);
  }
  if (!last) return;

  // Close out the control sessions: the servers send their 226s.
  for (ServerSession& session : attempt->sessions) {
    (void)session.complete_transfer(true);
  }

  const Bytes bytes = plan.bytes();
  outcome_counter("ok").inc();
  emit_attempt_event(attempt->op_name, attempt->host(), /*ok=*/true, {},
                     bytes);
  const DataPlan::Leg& first = plan.legs.front();
  record_transfer_spans(plan, end_site(first.reader, site_),
                        end_site(first.writer, site_), options.streams,
                        attempt->overhead, attempt->timed_start, stats.end,
                        attempt->logging_overhead);
  attempt->record_span(stats.end + attempt->logging_overhead, "ok", {});

  if (attempt->callback) {
    // The outcome carries leg 0's record widened to the whole plan: all
    // its bytes, over the window that closes with the last leg.
    TransferOutcome outcome;
    outcome.ok = true;
    outcome.record = std::move(attempt->record);
    outcome.record.file_size = bytes;
    outcome.record.end_time = stats.end;
    outcome.control_overhead = attempt->overhead;
    // The 226 reply reaches the client after the server's logging work
    // (Section 3's ~25 ms) completes.
    auto callback = std::move(attempt->callback);
    attempt->callback = nullptr;
    sim_.schedule_after(attempt->logging_overhead,
                        [callback, outcome] { callback(outcome); });
  }
}

void GridFtpClient::get(GridFtpServer& server, std::string remote_path,
                        const TransferOptions& options,
                        TransferCallback callback) {
  run_with_retry(
      "get", std::array{&server}, ip_, std::move(remote_path),
      Operation::kRead, options, std::move(callback),
      [](std::vector<ServerSession>& sessions, const std::string& path) {
        ServerSession& session = sessions[0];
        const Reply reply = session.handle({.verb = "RETR", .argument = path});
        if (!reply.ok()) return refused(reply);
        return Grant(DataPlan{.read_path = path,
                              .legs = {{.reader = &session.server(),
                                        .bytes = granted_length(session)}}});
      });
}

void GridFtpClient::get_partial(GridFtpServer& server, std::string remote_path,
                                Bytes offset, Bytes length,
                                const TransferOptions& options,
                                TransferCallback callback) {
  run_with_retry(
      "get_partial", std::array{&server}, ip_, std::move(remote_path),
      Operation::kRead, options, std::move(callback),
      [offset, length](std::vector<ServerSession>& sessions,
                       const std::string& path) {
        ServerSession& session = sessions[0];
        const Reply reply = session.handle(
            {.verb = "ERET", .argument = partial_range(offset, length, path)});
        if (!reply.ok()) return refused(reply);
        // The log records the bytes actually moved.
        return Grant(DataPlan{.read_path = path,
                              .legs = {{.reader = &session.server(),
                                        .bytes = granted_length(session)}}});
      });
}

void GridFtpClient::put(GridFtpServer& server, std::string remote_path,
                        Bytes size, const TransferOptions& options,
                        TransferCallback callback) {
  run_with_retry(
      "put", std::array{&server}, ip_, std::move(remote_path),
      Operation::kWrite, options, std::move(callback),
      [size](std::vector<ServerSession>& sessions, const std::string& path) {
        ServerSession& session = sessions[0];
        (void)session.handle({.verb = "ALLO", .argument = std::to_string(size)});
        const Reply reply = session.handle({.verb = "STOR", .argument = path});
        if (!reply.ok()) return refused(reply);
        return Grant(DataPlan{
            .write_path = path,
            .legs = {{.writer = &session.server(), .bytes = size}}});
      });
}

void GridFtpClient::third_party(GridFtpServer& source,
                                GridFtpServer& destination,
                                std::string source_path,
                                std::string destination_path,
                                const TransferOptions& options,
                                TransferCallback callback) {
  // The outcome carries the source's (read) record, so failures are
  // charged to the source host with the destination as the peer.
  run_with_retry(
      "third_party", std::array{&source, &destination},
      destination.config().ip, std::move(source_path), Operation::kRead,
      options, std::move(callback),
      [destination_path = std::move(destination_path)](
          std::vector<ServerSession>& sessions, const std::string& path) {
        ServerSession& source_session = sessions[0];
        ServerSession& dest_session = sessions[1];
        // The source must know the size before the destination ALLOs.
        const auto size = remote_size(source_session, path);
        if (!size) return Grant::failure(size.error());
        (void)dest_session.handle(
            {.verb = "ALLO", .argument = std::to_string(size.value())});
        Reply reply =
            dest_session.handle({.verb = "STOR", .argument = destination_path});
        if (!reply.ok()) return refused(reply);
        // A refused RETR leaves the destination mid-STOR; the failure
        // path rolls it back with its 426.
        reply = source_session.handle({.verb = "RETR", .argument = path});
        if (!reply.ok()) return refused(reply);
        return Grant(DataPlan{
            .read_path = path,
            .write_path = destination_path,
            .legs = {{.reader = &source_session.server(),
                      .writer = &dest_session.server(),
                      .bytes = size.value()}}});
      });
}

void GridFtpClient::striped_get(std::vector<GridFtpServer*> stripes,
                                std::string remote_path,
                                const TransferOptions& options,
                                TransferCallback callback) {
  for (GridFtpServer* stripe : stripes) {
    WADP_CHECK(stripe != nullptr);
  }
  // One session per stripe: SPAS opens one listener per data mover.
  run_with_retry(
      "striped_get", stripes, ip_, std::move(remote_path), Operation::kRead,
      options, std::move(callback),
      [](std::vector<ServerSession>& sessions, const std::string& path) {
        if (sessions.empty()) return Grant::failure("500 no stripes given");
        const std::string& site = sessions.front().server().site();
        for (const ServerSession& session : sessions) {
          if (session.server().site() != site) {
            return Grant::failure("501 stripes span sites: " +
                                  session.server().site() + " != " + site);
          }
        }
        // Every stripe must hold the same file.
        std::optional<Bytes> size;
        for (ServerSession& session : sessions) {
          const auto stripe_size = remote_size(session, path);
          if (!stripe_size) return Grant::failure(stripe_size.error());
          if (size && *size != stripe_size.value()) {
            return Grant::failure("551 stripe size mismatch for " + path);
          }
          size = stripe_size.value();
        }
        // Each stripe serves a contiguous slice via ERET (how striped
        // GridFTP partitions a file across movers); the last one takes
        // the remainder.
        DataPlan plan{.read_path = path};
        plan.legs.reserve(sessions.size());
        const Bytes base_slice = *size / sessions.size();
        for (std::size_t i = 0; i < sessions.size(); ++i) {
          const Bytes offset = i * base_slice;
          const Bytes slice =
              i + 1 == sessions.size() ? *size - offset : base_slice;
          const Reply reply = sessions[i].handle(
              {.verb = "ERET", .argument = partial_range(offset, slice, path)});
          if (!reply.ok()) return refused(reply);
          plan.legs.push_back({.reader = &sessions[i].server(), .bytes = slice});
        }
        return Grant(std::move(plan));
      });
}

}  // namespace wadp::gridftp
