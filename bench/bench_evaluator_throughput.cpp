// Evaluator throughput: the Evaluator's single streaming pass vs a
// recompute-per-prefix replay, full 30-predictor paper battery.
//
// The prefix replay (BM_EvaluatorLegacy) calls every stateless
// predictor on every history prefix and scores the answers: O(N^2 * P)
// over an N-transfer log, against O(N * P) for the streaming pass.  It
// is the reference the streaming engine replaced, so it only runs at
// the two smaller sizes (one iteration — at 100k it would take hours).
#include <benchmark/benchmark.h>

#include "predict/evaluator.hpp"
#include "predict/suite.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wadp::predict {
namespace {

std::vector<Observation> synthetic_series(std::size_t n) {
  util::Rng rng(5);
  const std::vector<Bytes> sizes = {1 * kMB,   10 * kMB,  100 * kMB,
                                    500 * kMB, 1000 * kMB};
  std::vector<Observation> out;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.time = t,
                   .value = rng.uniform(2e6, 9e6),
                   .file_size = sizes[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(sizes.size()) - 1))]});
    t += rng.uniform(60.0, 1800.0);
  }
  return out;
}

/// The O(N^2 * P) reference: every prediction recomputed from its
/// history prefix, scored into per-predictor error aggregates.
std::vector<ErrorStats> prefix_replay(std::span<const Observation> series,
                                      const PredictorSuite& suite,
                                      std::size_t training) {
  std::vector<ErrorStats> errors(suite.size());
  for (std::size_t i = training; i < series.size(); ++i) {
    const Query query{.time = series[i].time,
                      .file_size = series[i].file_size};
    for (std::size_t p = 0; p < suite.size(); ++p) {
      if (const auto predicted =
              suite.predictors()[p]->predict(series.first(i), query)) {
        errors[p].add(util::percent_error(series[i].value, *predicted));
      }
    }
  }
  return errors;
}

void BM_EvaluatorStreaming(benchmark::State& state) {
  const auto series =
      synthetic_series(static_cast<std::size_t>(state.range(0)));
  const auto suite = PredictorSuite::paper_suite();
  EvalConfig config;
  config.keep_samples = false;
  const Evaluator evaluator(config);
  for (auto _ : state) {
    auto result = evaluator.run(series, suite.pointers());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["transfers"] = static_cast<double>(state.range(0));
}

void BM_EvaluatorLegacy(benchmark::State& state) {
  const auto series =
      synthetic_series(static_cast<std::size_t>(state.range(0)));
  const auto suite = PredictorSuite::paper_suite();
  const std::size_t training = EvalConfig{}.training_count;
  for (auto _ : state) {
    auto errors = prefix_replay(series, suite, training);
    benchmark::DoNotOptimize(errors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["transfers"] = static_cast<double>(state.range(0));
}

BENCHMARK(BM_EvaluatorStreaming)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK(BM_EvaluatorLegacy)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(1000)
    ->Arg(10000);

}  // namespace
}  // namespace wadp::predict

BENCHMARK_MAIN();
