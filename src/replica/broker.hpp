// Replica selection broker.
//
// Closes the paper's loop: a broker acting for a client (1) resolves a
// logical file through the catalog, (2) inquires at the GIIS for
// GridFTPPerfInfo entries describing past transfers from each candidate
// site to this client, (3) reads the published per-size-class
// prediction, and (4) picks the replica with the highest predicted
// bandwidth.  Baseline policies (random, round-robin, first) exist so
// benchmarks can quantify what prediction buys — the comparison behind
// the paper's claim that replica selection benefits from performance
// information (Section 1, citing [41]).
#pragma once

#include <optional>
#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "mds/filter.hpp"

#include "history/store.hpp"
#include "mds/giis.hpp"
#include "mds/gridftp_provider.hpp"
#include "obs/quality.hpp"
#include "predict/classifier.hpp"
#include "replica/catalog.hpp"
#include "resilience/failover.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace wadp::replica {

enum class SelectionPolicy {
  kPredictedBest,  ///< highest published predicted bandwidth
  kRandom,         ///< uniform choice (baseline)
  kRoundRobin,     ///< rotate through replicas (baseline)
  kFirst,          ///< always the first registered replica (baseline)
};

const char* to_string(SelectionPolicy policy);

struct Selection {
  PhysicalReplica replica;
  /// Predicted bandwidth backing the choice (bytes/s); nullopt for
  /// baselines and for predictive choices made without any data.
  std::optional<Bandwidth> predicted_bandwidth;
  /// True when the predictive policy had usable predictions; false
  /// means it fell back to the first replica.
  bool informed = false;
  /// True when the raw top-bandwidth candidate was passed over because
  /// its (site, predictor) pair is drifting (quality plane demotion).
  bool drift_demoted = false;
};

class ReplicaBroker {
 public:
  ReplicaBroker(const ReplicaCatalog& catalog, mds::Giis& giis,
                SelectionPolicy policy, std::uint64_t seed = 1,
                predict::SizeClassifier classifier =
                    predict::SizeClassifier::paper_classes());

  /// Chooses a replica for `client_ip` to fetch `logical_name` of
  /// `size` bytes at time `now`.  `exclude` lists replicas to skip
  /// (failover: pass the ones that just returned 421).  nullopt when no
  /// eligible replica remains.
  std::optional<Selection> select(const std::string& logical_name,
                                  const std::string& client_ip, Bytes size,
                                  SimTime now,
                                  std::span<const PhysicalReplica> exclude = {});

  /// One candidate's predicted bandwidth: GIIS inquiry first, history
  /// fallback second — exactly the estimate select() ranks on, exposed
  /// so the serving plane (src/serving/) can fill its prediction cache
  /// without running a full selection.  No side effects on cooldowns or
  /// the quality plane.  Not thread-safe (the GIIS itself is not);
  /// serving serializes its fill path.
  std::optional<Bandwidth> predict_candidate(const PhysicalReplica& replica,
                                             const std::string& client_ip,
                                             Bytes size, SimTime now);

  SelectionPolicy policy() const { return policy_; }

  /// Failover feedback: a failed fetch from `replica` puts its server
  /// into cooldown (growing exponentially with consecutive failures); a
  /// success clears the streak.  select() skips replicas in cooldown —
  /// unless every remaining candidate is cooling, in which case the
  /// cooldown is overridden (a cooling replica beats none at all).
  void record_failure(const PhysicalReplica& replica, SimTime now);
  void record_success(const PhysicalReplica& replica);
  const resilience::CooldownTracker& cooldowns() const { return cooldowns_; }

  /// Optional fallback source: when the GIIS has no usable entry for a
  /// candidate (provider not yet refreshed, registration lapsed), the
  /// broker reads the history plane directly — a snapshot of
  /// {host = replica server, remote_ip = client, op = read} — and
  /// predicts with the same classified last-N mean the provider
  /// publishes.  The store must outlive the broker.
  void bind_history(const history::HistoryStore* history) {
    history_ = history;
  }

  /// Optional quality plane: when bound, (1) every candidate prediction
  /// is recorded as a ServedPrediction under the ambient trace id so
  /// the tracker can join it against the eventual transfer, and (2)
  /// kPredictedBest demotes candidates whose (site, predictor) pair is
  /// currently drifting — a non-drifting informed alternative wins even
  /// at lower predicted bandwidth.  The tracker must outlive the broker.
  void bind_quality(obs::QualityTracker* quality) { quality_ = quality; }

  /// Name the quality plane files this broker's served predictions
  /// under (and checks drift against).  The broker's ranking input is
  /// the provider's classified last-15 mean, i.e. AVG15/fs — the
  /// default — but a deployment serving another battery member (e.g.
  /// "MREG25/fs") can point ranking at it so demotions track the
  /// predictor actually serving.
  void set_ranking_predictor(std::string name) {
    ranking_predictor_ = std::move(name);
  }
  const std::string& ranking_predictor() const { return ranking_predictor_; }

 private:
  std::optional<Bandwidth> predicted_for(const PhysicalReplica& replica,
                                         const std::string& client_ip,
                                         Bytes size, SimTime now);
  std::optional<Bandwidth> predicted_from_history(
      const PhysicalReplica& replica, const std::string& client_ip, Bytes size,
      SimTime now) const;

  /// Memoized inquiry filter for (client, server).  Inquiry used to
  /// format, escape, and re-parse the filter text on every candidate of
  /// every select() — pure allocation churn, since the AST depends only
  /// on the two strings.  Built once via Filter::equals/all_of (no text
  /// round-trip) and cached; the memo is cleared if it ever reaches
  /// `kFilterMemoCap` entries (fleet pairs are few; churn implies a
  /// synthetic sweep that would not re-use them anyway).  The memo has
  /// its own mutex — a transfer-feedback thread calling select() can
  /// overlap the serving frontend's fill path — and hands out
  /// shared_ptrs so a cap-triggered clear never invalidates a filter a
  /// caller is still searching with.
  std::shared_ptr<const mds::Filter> inquiry_filter(
      const std::string& client_ip, const std::string& server_host);

  const ReplicaCatalog& catalog_;
  mds::Giis& giis_;
  const history::HistoryStore* history_ = nullptr;
  obs::QualityTracker* quality_ = nullptr;
  SelectionPolicy policy_;
  std::string ranking_predictor_ = "AVG15/fs";
  util::Rng rng_;
  predict::SizeClassifier classifier_;
  std::size_t round_robin_next_ = 0;
  resilience::CooldownTracker cooldowns_;
  std::mutex filter_mu_;  ///< guards filter_memo_ (off the GIIS hit path)
  std::unordered_map<std::string, std::shared_ptr<const mds::Filter>>
      filter_memo_;
};

}  // namespace wadp::replica
