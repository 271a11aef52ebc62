// Regression & hybrid predictor battery tests.
//
// The load-bearing property is the identity contract: the streaming
// engine's answers are EXPECT_DOUBLE_EQ-identical to the stateless
// batch fit at every prefix (mirroring StreamingAr vs util::ar1_fit).
// The rest pins the arithmetic (exact model recovery), the degenerate
// fallbacks (constant regressors, collinear columns), and the input
// hygiene (NaN/inf/zero regressors skipped, disk-field-free logs
// answer nullopt so the univariate battery's behavior is untouched).
#include "predict/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "predict/extended.hpp"
#include "predict/incremental.hpp"

namespace wadp::predict {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Observation obs(SimTime t, Bandwidth bw, Bandwidth disk, Bandwidth probe,
                Bytes size = 10 * kMB) {
  Observation o;
  o.time = t;
  o.value = bw;
  o.file_size = size;
  o.disk = disk;
  o.probe = probe;
  return o;
}

/// A deterministic wiggly series where bandwidth genuinely depends on
/// both regressors (plus a nonlinearity so no model fits exactly).
std::vector<Observation> noisy_series(std::size_t n) {
  std::vector<Observation> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * 60.0;
    const double disk = 40e6 + 15e6 * std::sin(0.37 * static_cast<double>(i));
    const double probe = 6e6 + 2e6 * std::cos(0.23 * static_cast<double>(i));
    const double bw = 0.05 * disk + 0.6 * probe +
                      1e-9 * disk * probe * 0.1 +
                      4e5 * std::sin(1.1 * static_cast<double>(i));
    out.push_back(obs(t, bw, disk, probe));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact model recovery

TEST(RegressionCoreTest, DiskModelRecoversExactLine) {
  // bw = 2e6 + 0.125*disk, noiselessly: the fit must nowcast the last
  // point exactly.
  RegressionPredictor predictor("DREG", RegressionModel::kDisk);
  std::vector<Observation> history;
  for (int i = 0; i < 8; ++i) {
    const double disk = 10e6 + 3e6 * i;
    history.push_back(obs(60.0 * i, 2e6 + 0.125 * disk, disk, 0.0));
  }
  const auto answer =
      predictor.predict(history, Query{.time = 500.0, .file_size = 10 * kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_NEAR(*answer, 2e6 + 0.125 * (10e6 + 3e6 * 7), 1e-3);
}

TEST(RegressionCoreTest, ProbeDiskModelRecoversExactPlane) {
  // bw = 1e6 + 0.4*probe + 0.06*disk with independent regressors.
  RegressionPredictor predictor("MREG", RegressionModel::kProbeDisk);
  std::vector<Observation> history;
  for (int i = 0; i < 10; ++i) {
    const double disk = 20e6 + 5e6 * (i % 4);
    const double probe = 4e6 + 1e6 * (i % 3);
    history.push_back(
        obs(60.0 * i, 1e6 + 0.4 * probe + 0.06 * disk, disk, probe));
  }
  const auto answer =
      predictor.predict(history, Query{.time = 700.0, .file_size = 10 * kMB});
  ASSERT_TRUE(answer.has_value());
  const double disk9 = 20e6 + 5e6 * (9 % 4);
  const double probe9 = 4e6 + 1e6 * (9 % 3);
  EXPECT_NEAR(*answer, 1e6 + 0.4 * probe9 + 0.06 * disk9, 1e-2);
}

TEST(RegressionCoreTest, DiskQuadModelRecoversExactParabola) {
  RegressionPredictor predictor("PREG", RegressionModel::kDiskQuad);
  std::vector<Observation> history;
  for (int i = 0; i < 9; ++i) {
    const double disk = 1e6 * (1 + i);
    const double bw = 5e5 + 0.3 * disk + 2e-8 * disk * disk;
    history.push_back(obs(60.0 * i, bw, disk, 0.0));
  }
  const auto answer =
      predictor.predict(history, Query{.time = 600.0, .file_size = 10 * kMB});
  ASSERT_TRUE(answer.has_value());
  const double disk8 = 1e6 * 9;
  EXPECT_NEAR(*answer, 5e5 + 0.3 * disk8 + 2e-8 * disk8 * disk8,
              std::abs(*answer) * 1e-9 + 1e-2);
}

TEST(RegressionCoreTest, HybridRatioIsMeanRatioTimesLatestProbe) {
  RegressionPredictor predictor("HYB", RegressionModel::kHybridRatio,
                                WindowSpec::all(), 3);
  std::vector<Observation> history = {
      obs(0.0, 4e6, 0.0, 8e6),    // ratio 0.5
      obs(60.0, 9e6, 0.0, 6e6),   // ratio 1.5
      obs(120.0, 5e6, 0.0, 5e6),  // ratio 1.0
  };
  const auto answer =
      predictor.predict(history, Query{.time = 200.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_DOUBLE_EQ(*answer, (0.5 + 1.5 + 1.0) / 3.0 * 5e6);
}

// ---------------------------------------------------------------------------
// Streaming/batch identity: the PR's EXPECT_DOUBLE_EQ contract

TEST(StreamingRegressionTest, IdenticalToBatchAtEveryPrefix) {
  const auto series = noisy_series(120);
  const SizeClassifier classifier = SizeClassifier::paper_classes();
  const PredictorSuite suite = regression_suite(classifier);
  for (const char* name : {"DREG", "DREG25", "MREG", "MREG25", "PREG",
                           "PREG25", "HYB", "HYB25"}) {
    const Predictor* predictor = suite.find(name);
    ASSERT_NE(predictor, nullptr) << name;
    auto stream = predictor->stream();
    ASSERT_NE(stream, nullptr) << name;
    std::vector<Observation> history;
    for (const auto& o : series) {
      stream->observe(o);
      history.push_back(o);
      const Query query{.time = o.time + 30.0, .file_size = 10 * kMB};
      const auto batch = predictor->predict(history, query);
      const auto streamed = stream->predict(query);
      ASSERT_EQ(batch.has_value(), streamed.has_value())
          << name << " at n=" << history.size();
      if (batch) {
        EXPECT_DOUBLE_EQ(*batch, *streamed)
            << name << " at n=" << history.size();
      }
    }
  }
}

TEST(StreamingRegressionTest, IdentityHoldsThroughDegenerateStretches) {
  // Constant-disk prefix, then varying data, then a constant tail:
  // the streaming state must track the batch fit through every
  // fallback transition, not just on clean data.
  std::vector<Observation> series;
  for (int i = 0; i < 10; ++i) series.push_back(obs(60.0 * i, 5e6, 30e6, 7e6));
  for (int i = 10; i < 30; ++i) {
    series.push_back(
        obs(60.0 * i, 4e6 + 1e5 * i, 30e6 + 1e6 * (i % 5), 7e6 + 2e5 * (i % 3)));
  }
  for (int i = 30; i < 40; ++i) series.push_back(obs(60.0 * i, 6e6, 42e6, 8e6));

  for (const auto model :
       {RegressionModel::kDisk, RegressionModel::kProbeDisk,
        RegressionModel::kDiskQuad, RegressionModel::kHybridRatio}) {
    const RegressionPredictor predictor("R", model, WindowSpec::all(), 3);
    StreamingRegression stream("R", model, WindowSpec::all(), 3);
    std::vector<Observation> history;
    for (const auto& o : series) {
      stream.observe(o);
      history.push_back(o);
      const Query query{.time = o.time, .file_size = 10 * kMB};
      const auto batch = predictor.predict(history, query);
      const auto streamed = stream.predict(query);
      ASSERT_EQ(batch.has_value(), streamed.has_value());
      if (batch) {
        EXPECT_DOUBLE_EQ(*batch, *streamed);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs

TEST(RegressionDegenerateTest, ConstantDiskFallsBackToWindowMean) {
  // sxx == 0 exactly (the shift makes every centered u zero): the fit
  // must degrade to the plain mean, deterministically.
  RegressionPredictor predictor("DREG", RegressionModel::kDisk);
  std::vector<Observation> history;
  double sum = 0.0;
  for (int i = 0; i < 6; ++i) {
    const double bw = 3e6 + 2e5 * i;
    sum += bw;
    history.push_back(obs(60.0 * i, bw, 25e6, 0.0));  // identical disk
  }
  const auto answer =
      predictor.predict(history, Query{.time = 400.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_DOUBLE_EQ(*answer, sum / 6.0);
}

TEST(RegressionDegenerateTest, ConstantDiskVaryingProbeDropsDeadRegressor) {
  // MREG with a frozen disk column must fall back to the probe-only
  // fit — recovering an exact bw = a + b*probe relationship.
  RegressionPredictor predictor("MREG", RegressionModel::kProbeDisk);
  std::vector<Observation> history;
  for (int i = 0; i < 8; ++i) {
    const double probe = 2e6 + 5e5 * i;
    history.push_back(obs(60.0 * i, 1e6 + 0.8 * probe, 30e6, probe));
  }
  const auto answer =
      predictor.predict(history, Query{.time = 500.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_NEAR(*answer, 1e6 + 0.8 * (2e6 + 5e5 * 7), 1e-3);
}

TEST(RegressionDegenerateTest, AllIdenticalSamplesYieldTheirValue) {
  for (const auto model :
       {RegressionModel::kDisk, RegressionModel::kProbeDisk,
        RegressionModel::kDiskQuad}) {
    const RegressionPredictor predictor("R", model, WindowSpec::all(), 3);
    const std::vector<Observation> history(6, obs(0.0, 4.5e6, 20e6, 5e6));
    const auto answer =
        predictor.predict(history, Query{.time = 100.0, .file_size = kMB});
    ASSERT_TRUE(answer.has_value());
    EXPECT_DOUBLE_EQ(*answer, 4.5e6);
  }
}

TEST(RegressionDegenerateTest, CollinearRegressorsStillAnswer) {
  // probe exactly proportional to disk: det == 0 but each single
  // regressor carries the full signal.
  RegressionPredictor predictor("MREG", RegressionModel::kProbeDisk);
  std::vector<Observation> history;
  for (int i = 0; i < 8; ++i) {
    const double disk = 10e6 + 4e6 * i;
    history.push_back(obs(60.0 * i, 0.1 * disk, disk, 0.2 * disk));
  }
  const auto answer =
      predictor.predict(history, Query{.time = 500.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_NEAR(*answer, 0.1 * (10e6 + 4e6 * 7), 1.0);
}

TEST(RegressionDegenerateTest, NonFiniteAndNonPositiveRegressorsSkipped) {
  // Hostile samples (NaN/inf/zero/negative regressors, NaN bandwidth)
  // must neither poison the fit nor count toward the sample floor.
  RegressionPredictor predictor("DREG", RegressionModel::kDisk,
                                WindowSpec::all(), 5);
  std::vector<Observation> history;
  for (int i = 0; i < 5; ++i) {
    const double disk = 10e6 + 2e6 * i;
    history.push_back(obs(60.0 * i, 1e6 + 0.2 * disk, disk, 0.0));
  }
  history.push_back(obs(300.0, kNan, 12e6, 0.0));   // NaN bandwidth
  history.push_back(obs(360.0, 5e6, kNan, 0.0));    // NaN disk
  history.push_back(obs(420.0, 5e6, kInf, 0.0));    // inf disk
  history.push_back(obs(480.0, 5e6, 0.0, 0.0));     // absent disk
  history.push_back(obs(540.0, 5e6, -3e6, 0.0));    // corrupt disk
  history.push_back(obs(600.0, kInf, 14e6, 0.0));   // inf bandwidth

  const auto answer =
      predictor.predict(history, Query{.time = 700.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  // Only the 5 clean samples fit; the nowcast is at the last *clean*
  // disk value, on the exact line.
  EXPECT_NEAR(*answer, 1e6 + 0.2 * (10e6 + 2e6 * 4), 1e-3);

  // Same hygiene on the hybrid's probe.
  RegressionPredictor hybrid("HYB", RegressionModel::kHybridRatio,
                             WindowSpec::all(), 3);
  std::vector<Observation> probes = {
      obs(0.0, 4e6, 0.0, 8e6),  obs(60.0, 4e6, 0.0, kNan),
      obs(120.0, 4e6, 0.0, 0.0), obs(180.0, 4e6, 0.0, -1.0),
  };
  EXPECT_FALSE(
      hybrid.predict(probes, Query{.time = 300.0, .file_size = kMB})
          .has_value());  // one qualifying sample < floor of 3
}

TEST(RegressionDegenerateTest, DiskFreeHistoryAnswersNullopt) {
  // A pre-instrumentation log (every disk/probe 0) must leave the
  // whole regression battery silent — the bit-identical-old-battery
  // guarantee depends on these predictors not inventing answers.
  std::vector<Observation> history;
  for (int i = 0; i < 50; ++i) {
    history.push_back(obs(60.0 * i, 4e6 + 1e5 * (i % 7), 0.0, 0.0));
  }
  const PredictorSuite suite = regression_suite();
  const Query query{.time = 4000.0, .file_size = 10 * kMB};
  for (const char* name : {"DREG", "DREG25", "MREG", "MREG25", "PREG",
                           "PREG25", "HYB", "HYB25"}) {
    const Predictor* predictor = suite.find(name);
    ASSERT_NE(predictor, nullptr) << name;
    EXPECT_FALSE(predictor->predict(history, query).has_value()) << name;
    auto stream = predictor->stream();
    for (const auto& o : history) stream->observe(o);
    EXPECT_FALSE(stream->predict(query).has_value()) << name;
  }
}

TEST(RegressionDegenerateTest, MinSampleFloorEnforced) {
  RegressionPredictor predictor("DREG", RegressionModel::kDisk,
                                WindowSpec::all(), 5);
  std::vector<Observation> history;
  for (int i = 0; i < 4; ++i) {
    history.push_back(obs(60.0 * i, 5e6, 20e6 + 1e6 * i, 0.0));
  }
  EXPECT_FALSE(
      predictor.predict(history, Query{.time = 300.0, .file_size = kMB})
          .has_value());
  history.push_back(obs(240.0, 5e6, 26e6, 0.0));
  EXPECT_TRUE(
      predictor.predict(history, Query{.time = 300.0, .file_size = kMB})
          .has_value());
}

// ---------------------------------------------------------------------------
// Battery composition

TEST(RegressionSuiteTest, ContainsExtendedAndRegressionMembers) {
  const PredictorSuite suite = regression_suite();
  for (const char* name :
       {"AVG15/fs", "EWMA0.2", "SREG", "DREG", "DREG25", "MREG", "MREG25",
        "PREG", "PREG25", "HYB", "HYB25"}) {
    EXPECT_NE(suite.find(name), nullptr) << name;
  }
}

TEST(RegressionSuiteTest, LastNWindowSeesOnlyTheTail) {
  // DREG25 over 40 observations must fit only the last 25: give the
  // head a wild slope and the tail an exact one.
  RegressionPredictor predictor("DREG25", RegressionModel::kDisk,
                                WindowSpec::last_n(25), 5);
  std::vector<Observation> history;
  for (int i = 0; i < 15; ++i) {
    history.push_back(obs(60.0 * i, 50e6, 5e6 + 1e6 * i, 0.0));  // head
  }
  for (int i = 15; i < 40; ++i) {
    const double disk = 10e6 + 2e6 * (i - 15);
    history.push_back(obs(60.0 * i, 2e6 + 0.25 * disk, disk, 0.0));  // tail
  }
  const auto answer =
      predictor.predict(history, Query{.time = 3000.0, .file_size = kMB});
  ASSERT_TRUE(answer.has_value());
  EXPECT_NEAR(*answer, 2e6 + 0.25 * (10e6 + 2e6 * 24), 1e-2);
}

// ---------------------------------------------------------------------------
// SizeRegressionPredictor input hygiene (satellite)

TEST(SizeRegressionTest, ZeroSizedObservationsAreFiltered) {
  // log10(0) is -inf; zero-sized records (failed attempts) must be
  // dropped before the fit, and the floor applies to what's left.
  SizeRegressionPredictor predictor("SREG", WindowSpec::all(), 5);
  std::vector<Observation> history;
  for (int i = 0; i < 5; ++i) {
    Observation o;
    o.time = 60.0 * i;
    o.file_size = 0;  // failed attempt
    o.value = 1e3;
    history.push_back(o);
  }
  // Only 5 zero-sized: floor unmet after filtering.
  EXPECT_FALSE(
      predictor.predict(history, Query{.time = 400.0, .file_size = 10 * kMB})
          .has_value());

  // Add 5 clean samples on an exact log10(size) line.
  for (int i = 0; i < 5; ++i) {
    Observation o;
    o.time = 300.0 + 60.0 * i;
    o.file_size = static_cast<Bytes>(1) << (20 + 2 * i);
    o.value = 1e6 + 5e5 * std::log10(static_cast<double>(o.file_size));
    history.push_back(o);
  }
  const auto answer = predictor.predict(
      history, Query{.time = 700.0, .file_size = 1 << 24});
  ASSERT_TRUE(answer.has_value());
  const double expected =
      1e6 + 5e5 * std::log10(static_cast<double>(1 << 24));
  EXPECT_NEAR(*answer, expected, std::abs(expected) * 1e-9);
}

}  // namespace
}  // namespace wadp::predict
