// Failover fetcher: select -> transfer -> fall through to the next-best
// replica.
//
// The broker answers "which replica looks fastest right now"; the
// client moves bytes and retries transient failures in place.  What
// neither does alone is survive a *dead* replica: when the client's
// retry budget for one server is exhausted, the fetcher reports the
// failure to the broker (starting that server's cooldown), excludes the
// replica, re-ranks the survivors, and tries the next best.  The
// operation only fails once every eligible replica has been tried.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gridftp/client.hpp"
#include "replica/broker.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace wadp::replica {

struct FetchOptions {
  gridftp::TransferOptions transfer;
  /// Cap on distinct replicas tried (0 = every eligible replica).
  std::size_t max_replicas = 0;
};

struct FetchOutcome {
  bool ok = false;
  std::string error;  ///< last failure when !ok
  /// Outcome of the transfer against the final replica tried.
  gridftp::TransferOutcome transfer;
  /// Replicas that failed and were abandoned, in order.
  std::vector<PhysicalReplica> failed;
  int failovers = 0;  ///< replicas fallen through (== failed.size())
  /// Selection behind the final attempt (nullopt when the broker had
  /// nothing to offer at all).
  std::optional<Selection> selection;
  /// Trace id the whole operation ran under (select, every attempt,
  /// history ingest); `wadp trace --tree <id>` renders the request.
  std::uint64_t trace_id = 0;
};

using FetchCallback = std::function<void(const FetchOutcome&)>;

class FailoverFetcher {
 public:
  /// Maps a catalog replica to the simulated server that holds it;
  /// returning null marks the replica unusable (counted as a failover).
  using ServerResolver =
      std::function<gridftp::GridFtpServer*(const PhysicalReplica&)>;

  FailoverFetcher(sim::Simulator& sim, ReplicaBroker& broker,
                  gridftp::GridFtpClient& client, ServerResolver resolver);

  /// Fetches `logical_name` (`size` is the expected file size, used for
  /// size-classed prediction).  The callback fires exactly once.
  /// The whole operation runs under one trace: the ambient TraceContext
  /// is adopted when active, otherwise a fresh trace id is minted (the
  /// fetcher is the request entry point), and a root "fetch" span is
  /// recorded at delivery covering select -> attempts -> ingest.
  void fetch(std::string logical_name, Bytes size, FetchOptions options,
             FetchCallback callback);

 private:
  struct FetchState;

  void try_next(const std::shared_ptr<FetchState>& state);
  void deliver(const std::shared_ptr<FetchState>& state);
  /// Moves past a failed replica.  `cool` puts its host on cooldown; a
  /// permanent refusal (the replica lacks the file) does not, because
  /// the host itself is healthy.
  void replica_failed(const std::shared_ptr<FetchState>& state,
                      const PhysicalReplica& replica, std::string error,
                      bool cool);

  sim::Simulator& sim_;
  ReplicaBroker& broker_;
  gridftp::GridFtpClient& client_;
  ServerResolver resolver_;
};

}  // namespace wadp::replica
