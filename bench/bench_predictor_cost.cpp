// Section 4.1 cost claim: the ARIMA technique "can have a much greater
// computational cost" than mean/median predictors.
//
// Google-benchmark comparison of one prediction over histories of
// 100-3200 observations for each technique, plain and classified —
// first the stateless battery (cost grows with the history), then the
// streaming counterparts (observe-then-predict per step, flat cost
// regardless of how much history the state has absorbed).
#include <benchmark/benchmark.h>

#include "predict/suite.hpp"
#include "util/rng.hpp"

namespace wadp::predict {
namespace {

std::vector<Observation> synthetic_history(std::size_t n) {
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

void run_predictor(benchmark::State& state, const std::string& name) {
  static const auto suite = PredictorSuite::paper_suite();
  const auto* predictor = suite.find(name);
  const auto history = synthetic_history(static_cast<std::size_t>(state.range(0)));
  const Query query{.time = history.back().time + 60.0,
                    .file_size = 500 * kMB};
  for (auto _ : state) {
    auto prediction = predictor->predict(history, query);
    benchmark::DoNotOptimize(prediction);
  }
  state.counters["history"] = static_cast<double>(state.range(0));
}

// One step of live operation: absorb a fresh measurement, answer one
// query.  The state is pre-fed with range(0) observations, so any
// history-size dependence would show up across the Arg sweep.
void run_streaming(benchmark::State& state, const std::string& name) {
  static const auto suite = PredictorSuite::paper_suite();
  const auto* predictor = suite.find(name);
  const auto history =
      synthetic_history(static_cast<std::size_t>(state.range(0)));
  auto stream = predictor->stream();
  for (const auto& o : history) stream->observe(o);
  double t = history.back().time;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& recycled = history[i % history.size()];
    t += 600.0;
    stream->observe({.time = t,
                     .value = recycled.value,
                     .file_size = recycled.file_size});
    auto prediction = stream->predict({.time = t, .file_size = 500 * kMB});
    benchmark::DoNotOptimize(prediction);
    ++i;
  }
  state.counters["history"] = static_cast<double>(state.range(0));
}

void BM_Avg(benchmark::State& s) { run_predictor(s, "AVG"); }
void BM_Avg25(benchmark::State& s) { run_predictor(s, "AVG25"); }
void BM_Med(benchmark::State& s) { run_predictor(s, "MED"); }
void BM_Med25(benchmark::State& s) { run_predictor(s, "MED25"); }
void BM_Lv(benchmark::State& s) { run_predictor(s, "LV"); }
void BM_Ar(benchmark::State& s) { run_predictor(s, "AR"); }
void BM_AvgClassified(benchmark::State& s) { run_predictor(s, "AVG/fs"); }
void BM_ArClassified(benchmark::State& s) { run_predictor(s, "AR/fs"); }

void BM_AvgStream(benchmark::State& s) { run_streaming(s, "AVG"); }
void BM_Avg25Stream(benchmark::State& s) { run_streaming(s, "AVG25"); }
void BM_MedStream(benchmark::State& s) { run_streaming(s, "MED"); }
void BM_Med25Stream(benchmark::State& s) { run_streaming(s, "MED25"); }
void BM_LvStream(benchmark::State& s) { run_streaming(s, "LV"); }
void BM_ArStream(benchmark::State& s) { run_streaming(s, "AR"); }
void BM_AvgClassifiedStream(benchmark::State& s) {
  run_streaming(s, "AVG/fs");
}
void BM_ArClassifiedStream(benchmark::State& s) { run_streaming(s, "AR/fs"); }

BENCHMARK(BM_Avg)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Avg25)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Med)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Med25)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Lv)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Ar)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_AvgClassified)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_ArClassified)->Arg(100)->Arg(400)->Arg(3200);

BENCHMARK(BM_AvgStream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Avg25Stream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_MedStream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_Med25Stream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_LvStream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_ArStream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_AvgClassifiedStream)->Arg(100)->Arg(400)->Arg(3200);
BENCHMARK(BM_ArClassifiedStream)->Arg(100)->Arg(400)->Arg(3200);

}  // namespace
}  // namespace wadp::predict

BENCHMARK_MAIN();
