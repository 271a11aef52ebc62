#include "replica/broker.hpp"

#include <utility>

#include "mds/filter.hpp"
#include "obs/context.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/ulm.hpp"

namespace wadp::replica {

const char* to_string(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kPredictedBest:
      return "predicted-best";
    case SelectionPolicy::kRandom:
      return "random";
    case SelectionPolicy::kRoundRobin:
      return "round-robin";
    case SelectionPolicy::kFirst:
      return "first";
  }
  return "?";
}

ReplicaBroker::ReplicaBroker(const ReplicaCatalog& catalog, mds::Giis& giis,
                             SelectionPolicy policy, std::uint64_t seed,
                             predict::SizeClassifier classifier)
    : catalog_(catalog),
      giis_(giis),
      policy_(policy),
      rng_(seed),
      classifier_(std::move(classifier)) {}

std::shared_ptr<const mds::Filter> ReplicaBroker::inquiry_filter(
    const std::string& client_ip, const std::string& server_host) {
  // One reusable key buffer: lookups dominate (a fleet has few
  // (client, server) pairs) and must not allocate per call.
  static thread_local std::string memo_key;
  memo_key.clear();
  memo_key.append(client_ip);
  memo_key.push_back('\n');
  memo_key.append(server_host);
  {
    std::lock_guard<std::mutex> lock(filter_mu_);
    if (const auto it = filter_memo_.find(memo_key);
        it != filter_memo_.end()) {
      return it->second;
    }
  }
  // Direct AST construction: equals() takes the values as literals, so
  // a hostname containing ( ) * \ matches literally without the old
  // escape-format-reparse round trip (and without its unreachable
  // "parser rejected our own filter" failure mode).  Built off-lock;
  // losing an insert race just means two identical filters, one of
  // which wins the memo.
  std::vector<mds::Filter> terms;
  terms.reserve(3);
  terms.push_back(mds::Filter::equals("objectclass", "GridFTPPerfInfo"));
  terms.push_back(mds::Filter::equals("cn", client_ip));
  terms.push_back(mds::Filter::equals("hostname", server_host));
  auto filter =
      std::make_shared<const mds::Filter>(mds::Filter::all_of(std::move(terms)));
  constexpr std::size_t kFilterMemoCap = 4096;
  std::lock_guard<std::mutex> lock(filter_mu_);
  if (filter_memo_.size() >= kFilterMemoCap) filter_memo_.clear();
  return filter_memo_.emplace(memo_key, std::move(filter)).first->second;
}

std::optional<Bandwidth> ReplicaBroker::predicted_for(
    const PhysicalReplica& replica, const std::string& client_ip, Bytes size,
    SimTime now) {
  // Inquiry: the performance entry this replica's site published about
  // past transfers to this client.  Hold the shared_ptr across the
  // search: a concurrent memo clear must not free the filter mid-walk.
  const auto filter = inquiry_filter(client_ip, replica.server_host);
  const auto entries = giis_.search(now, *filter);
  if (entries.empty()) return std::nullopt;

  // Several GIIS paths can carry entries for the same (client, host)
  // pair — typically a lapsed registration alongside a fresh one.
  // First-wins returned whichever entry the GIIS happened to list
  // first, silently preferring stale data; instead take the attribute
  // from the entry with the newest historyepoch (the provider's
  // source-series epoch), breaking ties on lastupdate.
  const auto freshness = [](const mds::Entry& entry) {
    return std::pair(entry.get_double("historyepoch").value_or(-1.0),
                     entry.get_double("lastupdate").value_or(-1.0));
  };
  const auto freshest_value =
      [&](const std::string& attr) -> std::optional<double> {
    std::optional<double> best;
    std::pair<double, double> best_key{-1.0, -1.0};
    for (const auto& entry : entries) {
      const auto value = entry.get_double(attr);
      if (!value) continue;
      const auto key = freshness(entry);
      if (!best || key > best_key) {
        best = value;
        best_key = key;
      }
    }
    return best;
  };

  const int cls = classifier_.classify(size);
  const std::string attr =
      "predictedrdbandwidth" +
      mds::GridFtpInfoProvider::range_fragment(classifier_, cls);
  if (const auto kb = freshest_value(attr)) {
    return *kb * static_cast<double>(kKB);  // published in KB/s
  }
  // No same-class prediction yet: fall back to the overall average.
  if (const auto kb = freshest_value("avgrdbandwidth")) {
    return *kb * static_cast<double>(kKB);
  }
  return std::nullopt;
}

void ReplicaBroker::record_failure(const PhysicalReplica& replica,
                                   SimTime now) {
  cooldowns_.record_failure(replica.server_host, now);
}

void ReplicaBroker::record_success(const PhysicalReplica& replica) {
  cooldowns_.record_success(replica.server_host);
}

std::optional<Bandwidth> ReplicaBroker::predicted_from_history(
    const PhysicalReplica& replica, const std::string& client_ip, Bytes size,
    SimTime now) const {
  if (history_ == nullptr) return std::nullopt;
  const auto snapshot = history_->snapshot(
      history::SeriesKey{.host = replica.server_host,
                         .remote_ip = client_ip,
                         .op = gridftp::Operation::kRead});
  if (!snapshot) return std::nullopt;

  // Same estimate the provider publishes: mean of the last
  // `prediction_window` completed same-class transfers (failed attempts
  // are skipped, as the provider skips them), classes shared with the
  // GIIS path.  Only the past counts — the snapshot may already hold
  // transfers timestamped after `now` when the broker replays history.
  const int cls = classifier_.classify(size);
  constexpr std::size_t kWindow = 15;
  double sum = 0.0;
  std::size_t count = 0;
  const auto observations = snapshot.observations();
  for (auto it = observations.rbegin();
       it != observations.rend() && count < kWindow; ++it) {
    if (it->time > now || !it->ok) continue;
    if (classifier_.classify(it->file_size) != cls) continue;
    sum += it->value;
    ++count;
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::optional<Bandwidth> ReplicaBroker::predict_candidate(
    const PhysicalReplica& replica, const std::string& client_ip, Bytes size,
    SimTime now) {
  auto bw = predicted_for(replica, client_ip, size, now);
  if (!bw) bw = predicted_from_history(replica, client_ip, size, now);
  return bw;
}

std::optional<Selection> ReplicaBroker::select(
    const std::string& logical_name, const std::string& client_ip, Bytes size,
    SimTime now, std::span<const PhysicalReplica> exclude) {
  // No-op without an ambient trace; with one, the GIIS searches the
  // inquiry loop issues nest under this span.
  obs::SimSpanScope span("broker.select", now,
                         {{"LOGICAL", logical_name},
                          {"POLICY", to_string(policy_)}});
  std::vector<PhysicalReplica> replicas;
  std::vector<PhysicalReplica> cooling;
  for (const auto& replica : catalog_.replicas(logical_name)) {
    const bool excluded =
        std::find(exclude.begin(), exclude.end(), replica) != exclude.end();
    if (excluded) continue;
    if (!cooldowns_.available(replica.server_host, now)) {
      cooling.push_back(replica);
      continue;
    }
    replicas.push_back(replica);
  }
  if (replicas.empty() && !cooling.empty()) {
    // Every surviving candidate is in cooldown: trying one anyway beats
    // answering "no replica".  The usual case resolves before this —
    // cooldowns expire on the simulation clock.
    obs::Registry::global()
        .counter("wadp_resilience_cooldown_overrides_total", {},
                 "Selections forced to use a cooling replica")
        .inc();
    replicas = std::move(cooling);
  } else if (!cooling.empty()) {
    obs::Registry::global()
        .counter("wadp_resilience_cooldown_skips_total", {},
                 "Replicas skipped by selection while in cooldown")
        .inc(cooling.size());
  }
  if (replicas.empty()) return std::nullopt;

  Selection selection;
  switch (policy_) {
    case SelectionPolicy::kFirst:
      selection.replica = replicas.front();
      span.set_attr("CHOSEN", selection.replica.server_host);
      return selection;
    case SelectionPolicy::kRandom:
      selection.replica = replicas[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(replicas.size()) - 1))];
      span.set_attr("CHOSEN", selection.replica.server_host);
      return selection;
    case SelectionPolicy::kRoundRobin:
      selection.replica = replicas[round_robin_next_ % replicas.size()];
      ++round_robin_next_;
      span.set_attr("CHOSEN", selection.replica.server_host);
      return selection;
    case SelectionPolicy::kPredictedBest:
      break;
  }

  // What the broker consults is the provider's classified last-15 mean,
  // i.e. the paper's AVG15/fs predictor by default; the quality plane
  // files these served predictions under ranking_predictor_ so a
  // deployment serving the regression battery scores and demotes the
  // name it actually ranks on.
  struct Candidate {
    const PhysicalReplica* replica;
    Bandwidth bandwidth;
    bool drifting;
  };
  std::vector<Candidate> informed;
  for (const auto& replica : replicas) {
    const auto bw = predict_candidate(replica, client_ip, size, now);
    if (!bw) continue;
    bool drifting = false;
    if (quality_ != nullptr) {
      quality_->record_prediction(obs::ServedPrediction{
          .trace_id = obs::TraceContext::current().trace_id,
          .site = replica.server_host,
          .file_size = size,
          .time = now,
          .predictor = ranking_predictor_,
          .value = *bw,
      });
      drifting = quality_->drifting(replica.server_host, ranking_predictor_);
    }
    informed.push_back(Candidate{&replica, *bw, drifting});
  }
  if (informed.empty()) {
    // No information published yet: fall back, flagged as uninformed.
    selection.replica = replicas.front();
    selection.informed = false;
    span.set_attr("CHOSEN", selection.replica.server_host);
    return selection;
  }

  const auto better = [](const Candidate& a, const Candidate& b) {
    return a.bandwidth > b.bandwidth;
  };
  const Candidate* best = nullptr;
  const Candidate* best_any = nullptr;
  for (const auto& candidate : informed) {
    if (!best_any || better(candidate, *best_any)) best_any = &candidate;
    if (candidate.drifting) continue;
    if (!best || better(candidate, *best)) best = &candidate;
  }
  if (best == nullptr) {
    // Every informed candidate is drifting; the ranking is suspect
    // either way, so take the raw best rather than refuse.
    best = best_any;
  } else if (best != best_any) {
    // The raw winner was passed over because its predictor is drifting:
    // the quality plane just steered a selection.
    selection.drift_demoted = true;
    obs::Registry::global()
        .counter("wadp_quality_demotions_total", {},
                 "Selections where a drifting predictor's top candidate "
                 "was passed over")
        .inc();
    util::UlmRecord event;
    event.set("LOGICAL", logical_name);
    event.set("DEMOTED", best_any->replica->server_host);
    event.set("CHOSEN", best->replica->server_host);
    obs::EventSink::global().emit("quality.demotion", "replica.broker",
                                  std::move(event));
  }
  selection.replica = *best->replica;
  selection.predicted_bandwidth = best->bandwidth;
  selection.informed = true;
  span.set_attr("CHOSEN", selection.replica.server_host);
  if (selection.drift_demoted) span.set_attr("DEMOTED", std::string("1"));
  return selection;
}

}  // namespace wadp::replica
