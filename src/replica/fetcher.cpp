#include "replica/fetcher.hpp"

#include <utility>

#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ulm.hpp"

namespace wadp::replica {

struct FailoverFetcher::FetchState {
  std::string logical_name;
  Bytes size = 0;
  FetchOptions options;
  FetchCallback callback;
  FetchOutcome outcome;
  // Trace bookkeeping: the root "fetch" span is recorded at delivery,
  // so its id is reserved up front for children to parent under.
  std::uint64_t trace_id = 0;
  obs::SpanId root_span = 0;
  obs::SpanId outer_parent = 0;
  SimTime started = 0.0;
};

FailoverFetcher::FailoverFetcher(sim::Simulator& sim, ReplicaBroker& broker,
                                 gridftp::GridFtpClient& client,
                                 ServerResolver resolver)
    : sim_(sim),
      broker_(broker),
      client_(client),
      resolver_(std::move(resolver)) {}

void FailoverFetcher::fetch(std::string logical_name, Bytes size,
                            FetchOptions options, FetchCallback callback) {
  auto state = std::make_shared<FetchState>();
  state->logical_name = std::move(logical_name);
  state->size = size;
  state->options = std::move(options);
  state->callback = std::move(callback);
  // Adopt the caller's trace when one is active (a CLI verb or test
  // already opened one); otherwise this fetch is the request entry
  // point and mints its own.
  const auto ambient = obs::TraceContext::current();
  state->trace_id =
      ambient.active() ? ambient.trace_id : obs::TraceContext::mint();
  state->outer_parent = ambient.parent;
  state->root_span = obs::Tracer::global().allocate_id();
  state->started = sim_.now();
  state->outcome.trace_id = state->trace_id;
  try_next(state);
}

void FailoverFetcher::try_next(const std::shared_ptr<FetchState>& state) {
  // Everything downstream of here — broker selection (and its MDS
  // searches), the client attempt loop, history ingest — parents under
  // the fetch root span.
  const obs::ScopedTraceContext trace_scope(state->trace_id,
                                            state->root_span);

  if (state->options.max_replicas > 0 &&
      state->outcome.failed.size() >= state->options.max_replicas) {
    state->outcome.ok = false;
    if (state->outcome.error.empty()) {
      state->outcome.error = "replica budget exhausted";
    }
    deliver(state);
    return;
  }

  const auto selection =
      broker_.select(state->logical_name, client_.ip(), state->size,
                     sim_.now(), state->outcome.failed);
  if (!selection) {
    state->outcome.ok = false;
    if (state->outcome.error.empty()) {
      state->outcome.error = "no replica available for " + state->logical_name;
    }
    deliver(state);
    return;
  }
  state->outcome.selection = selection;

  gridftp::GridFtpServer* server = resolver_(selection->replica);
  if (server == nullptr) {
    // Catalog/deployment mismatch; treat exactly like a failed replica
    // so the loop keeps moving.
    replica_failed(state, selection->replica,
                   "no server for replica " + selection->replica.server_host,
                   /*cool=*/true);
    try_next(state);
    return;
  }

  client_.get(*server, selection->replica.path, state->options.transfer,
              [this, state, replica = selection->replica](
                  const gridftp::TransferOutcome& outcome) {
                // Completion runs from a simulator callback; re-install
                // the fetch's context so failover re-selection and
                // delivery stay on this trace.
                const obs::ScopedTraceContext scope(state->trace_id,
                                                    state->root_span);
                state->outcome.transfer = outcome;
                if (outcome.ok) {
                  broker_.record_success(replica);
                  state->outcome.ok = true;
                  state->outcome.error.clear();
                  deliver(state);
                  return;
                }
                replica_failed(state, replica, outcome.error,
                               outcome.failure !=
                                   gridftp::FailureClass::kPermanent);
                try_next(state);
              });
}

void FailoverFetcher::deliver(const std::shared_ptr<FetchState>& state) {
  if (!state->callback) return;
  obs::SpanRecord span;
  span.id = state->root_span;
  span.parent = state->outer_parent;
  span.trace_id = state->trace_id;
  span.name = "fetch";
  span.start_ns = obs::sim_ns(state->started);
  span.end_ns = obs::sim_ns(sim_.now());
  span.attrs.emplace_back("LOGICAL", state->logical_name);
  span.attrs.emplace_back("RESULT", state->outcome.ok ? "ok" : "fail");
  span.attrs.emplace_back("FAILOVERS",
                          std::to_string(state->outcome.failovers));
  obs::Tracer::global().record_full(std::move(span));
  auto callback = std::move(state->callback);
  state->callback = nullptr;
  callback(state->outcome);
}

void FailoverFetcher::replica_failed(const std::shared_ptr<FetchState>& state,
                                     const PhysicalReplica& replica,
                                     std::string error, bool cool) {
  if (cool) broker_.record_failure(replica, sim_.now());
  state->outcome.failed.push_back(replica);
  ++state->outcome.failovers;
  state->outcome.error = error;

  obs::Registry::global()
      .counter("wadp_resilience_failovers_total", {},
               "Replicas abandoned in favour of the next-best candidate")
      .inc();
  util::UlmRecord event;
  event.set("LOGICAL", state->logical_name);
  event.set("HOST", replica.server_host);
  event.set("ERROR", std::move(error));
  obs::EventSink::global().emit("resilience.failover", "replica.fetcher",
                                std::move(event));
}

}  // namespace wadp::replica
