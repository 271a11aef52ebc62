// Regression/hybrid battery cost and accuracy.
//
// Panel 1 — REPLAY COST (ENFORCED).  A stateless RegressionPredictor
// recomputes its fit from the full history prefix on every query, so
// replaying an N-observation log costs O(N^2); the streaming engine
// absorbs one observation at a time and answers in O(1) for all-data
// windows.  Both paths replay the same 10k-observation synthetic
// series; the gate is (a) every prediction pair is bit-identical
// (the RegressionCore identity contract) and (b) the streaming replay
// is at least 10x faster end-to-end.
//
// Panel 2 — ACCURACY (ENFORCED).  The August campaign with disk/probe
// sampling on, both links, full regression_suite().  The regression
// sequel's claim: fits on end-system disk throughput (and disk+probe)
// beat univariate history-only prediction.  The regression members are
// size-blind nowcasts, so the enforced comparison is like-for-like: on
// each link the best regression/hybrid member's mean percentage error
// must be no worse than the best *size-blind* univariate member's
// (plain AVG/MED/LV/AR/EWMA windows).  Size-aware members (the /fs
// classified battery and SREG) exploit the testbed's dominant
// file-size signal and are reported in the leaderboard but not gated —
// the source paper already establishes that classification wins.
//
// Emits BENCH_regression.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "predict/evaluator.hpp"
#include "predict/incremental.hpp"
#include "predict/regression.hpp"

namespace {

using namespace wadp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kReplayObservations = 10'000;
constexpr double kMinSpeedup = 10.0;

const std::set<std::string> kRegressionNames = {
    "DREG", "DREG25", "MREG", "MREG25", "PREG", "PREG25", "HYB", "HYB25"};

/// Deterministic synthetic series with genuinely correlated regressors:
/// bandwidth follows a plane in (probe, disk) plus bounded oscillation.
std::vector<predict::Observation> make_series(std::size_t n) {
  std::vector<predict::Observation> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    predict::Observation o;
    o.time = 10.0 * t;
    o.disk = 30e6 + 20e6 * std::sin(t / 13.0);
    o.probe = 12e6 + 7e6 * std::cos(t / 29.0);
    o.value = 1e6 + 0.35 * o.disk + 0.2 * o.probe + 5e5 * std::sin(t / 7.0);
    o.file_size = (i % 4 + 1) * 10 * kMB;
    series.push_back(o);
  }
  return series;
}

struct ReplayResult {
  double batch_seconds = 0.0;
  double streaming_seconds = 0.0;
  std::size_t mismatches = 0;
  std::size_t answered = 0;
};

/// Replays `series` through one battery member both ways: the stateless
/// predictor over every history prefix vs the streaming engine.
ReplayResult replay(const predict::PredictorSuite& suite,
                    const std::string& name,
                    const std::vector<predict::Observation>& series) {
  ReplayResult r;
  const predict::Predictor* batch = suite.find(name);
  auto streaming = batch->stream();

  std::vector<std::optional<Bandwidth>> batch_answers(series.size());
  auto begin = Clock::now();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const predict::Query q{series[i].time, series[i].file_size};
    batch_answers[i] =
        batch->predict({series.data(), i}, q);
  }
  r.batch_seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();

  begin = Clock::now();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const predict::Query q{series[i].time, series[i].file_size};
    const auto answer = streaming->predict(q);
    if (answer.has_value() != batch_answers[i].has_value() ||
        (answer && *answer != *batch_answers[i])) {
      ++r.mismatches;
    }
    if (answer) ++r.answered;
    streaming->observe(series[i]);
  }
  r.streaming_seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  return r;
}

struct LinkAccuracy {
  double best_regression = 0.0;
  double best_size_blind = 0.0;
  std::string best_regression_name;
  std::string best_size_blind_name;
};

/// regression/hybrid, size-aware (classified or size-regressing), or
/// size-blind univariate — the gated comparison pool.
const char* kind_of(const std::string& name) {
  if (kRegressionNames.count(name)) return "regression/hybrid";
  if (name.find("/fs") != std::string::npos ||
      name.rfind("SREG", 0) == 0) {
    return "size-aware";
  }
  return "size-blind";
}

LinkAccuracy evaluate_link(const char* link,
                           const std::vector<predict::Observation>& series) {
  const auto suite = predict::regression_suite();
  const predict::Evaluator evaluator;
  const auto result = evaluator.run(series, suite.pointers());

  std::vector<std::pair<double, std::string>> ranking;
  for (std::size_t p = 0; p < suite.size(); ++p) {
    if (result.errors(p).count() == 0) continue;
    ranking.emplace_back(result.errors(p).mean(), result.predictor_names()[p]);
  }
  std::sort(ranking.begin(), ranking.end());

  std::printf("\n%s-ANL (n=%zu): top 12 of %zu answering predictors\n", link,
              series.size(), ranking.size());
  util::TextTable table({"rank", "predictor", "mean %err", "kind"});
  table.set_align(1, util::TextTable::Align::Left);
  table.set_align(3, util::TextTable::Align::Left);
  for (std::size_t i = 0; i < ranking.size() && i < 12; ++i) {
    table.add_row({std::to_string(i + 1), ranking[i].second,
                   bench::fmt(ranking[i].first), kind_of(ranking[i].second)});
  }
  std::printf("%s", table.render().c_str());

  LinkAccuracy acc;
  bool have_reg = false, have_uni = false;
  for (const auto& [err, name] : ranking) {
    const std::string kind = kind_of(name);
    if (kind == "regression/hybrid" && !have_reg) {
      acc.best_regression = err;
      acc.best_regression_name = name;
      have_reg = true;
    } else if (kind == "size-blind" && !have_uni) {
      acc.best_size_blind = err;
      acc.best_size_blind_name = name;
      have_uni = true;
    }
    if (have_reg && have_uni) break;
  }
  std::printf(
      "best regression/hybrid: %s %.1f%%; best size-blind univariate: "
      "%s %.1f%%\n",
      acc.best_regression_name.c_str(), acc.best_regression,
      acc.best_size_blind_name.c_str(), acc.best_size_blind);
  return acc;
}

}  // namespace

int main() {
  bench::banner(
      "BENCH regression: streaming replay cost + regression-era accuracy",
      "disk/probe regression beats the univariate battery (regression "
      "sequel); streaming fits must match offline batch fits exactly");

  int failures = 0;

  // Panel 1: streaming vs batch replay over a 10k-observation series.
  const auto series = make_series(kReplayObservations);
  const auto suite = predict::regression_suite();
  util::TextTable replay_table(
      {"replay (10k obs)", "batch s", "streaming s", "speedup", "mismatches"});
  replay_table.set_align(0, util::TextTable::Align::Left);
  double worst_speedup = 1e300;
  std::size_t total_mismatches = 0;
  for (const char* name : {"DREG", "MREG", "PREG", "HYB"}) {
    const auto r = replay(suite, name, series);
    const double speedup = r.batch_seconds / r.streaming_seconds;
    worst_speedup = std::min(worst_speedup, speedup);
    total_mismatches += r.mismatches;
    replay_table.add_row({name, bench::fmt(r.batch_seconds, 3),
                          bench::fmt(r.streaming_seconds, 3),
                          bench::fmt(speedup, 1) + "x",
                          std::to_string(r.mismatches)});
    if (r.answered == 0) {
      std::fprintf(stderr, "FAIL: %s never answered during replay\n", name);
      ++failures;
    }
  }
  std::printf("%s\n", replay_table.render().c_str());
  if (total_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu streaming/batch prediction mismatches (identity "
                 "contract broken)\n",
                 total_mismatches);
    ++failures;
  }
  if (worst_speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: worst streaming speedup %.1fx below the %.0fx bound\n",
                 worst_speedup, kMinSpeedup);
    ++failures;
  } else {
    std::printf("worst streaming speedup %.1fx (bound %.0fx)\n\n",
                worst_speedup, kMinSpeedup);
  }

  // Panel 2: August campaign accuracy, both links.
  auto data = bench::run_campaign(workload::Campaign::kAugust2001);
  const auto lbl = evaluate_link("LBL", data.lbl);
  const auto isi = evaluate_link("ISI", data.isi);
  for (const auto& [link, acc] :
       {std::pair{"LBL", lbl}, std::pair{"ISI", isi}}) {
    if (acc.best_regression_name.empty()) {
      std::fprintf(stderr, "FAIL: no regression member answered on %s\n",
                   link);
      ++failures;
    } else if (acc.best_regression > acc.best_size_blind) {
      std::fprintf(stderr,
                   "FAIL: %s best regression %.1f%% worse than best "
                   "size-blind univariate %.1f%%\n",
                   link, acc.best_regression, acc.best_size_blind);
      ++failures;
    }
  }
  std::printf("\n");

  auto& registry = obs::Registry::global();
  registry.gauge("wadp_bench_regression_replay_speedup", {},
                 "Worst streaming-over-batch replay speedup across the "
                 "regression members (enforced >= 10x)")
      .set(worst_speedup);
  registry.gauge("wadp_bench_regression_replay_mismatches", {},
                 "Streaming/batch prediction mismatches (enforced 0)")
      .set(static_cast<double>(total_mismatches));
  registry.gauge("wadp_bench_regression_best_error_lbl_pct", {},
                 "Best regression/hybrid mean %error, LBL-ANL August")
      .set(lbl.best_regression);
  registry.gauge("wadp_bench_regression_best_univariate_lbl_pct", {},
                 "Best size-blind univariate mean %error, LBL-ANL August")
      .set(lbl.best_size_blind);
  registry.gauge("wadp_bench_regression_best_error_isi_pct", {},
                 "Best regression/hybrid mean %error, ISI-ANL August")
      .set(isi.best_regression);
  registry.gauge("wadp_bench_regression_best_univariate_isi_pct", {},
                 "Best size-blind univariate mean %error, ISI-ANL August")
      .set(isi.best_size_blind);
  const auto written =
      obs::write_bench_json("BENCH_regression.json", "regression", registry);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.error().c_str());
    return 1;
  }
  std::printf("wrote BENCH_regression.json\n");
  return failures == 0 ? 0 : 1;
}
