// NWS-style forecasting over a probe series.
//
// The NWS runs a battery of simple forecasters over each sensor's
// series and reports, at every instant, the output of whichever
// forecaster has the lowest accumulated error — its "dynamic selection"
// (Wolski 1998).  The paper names adopting this as future work
// (Section 7); NwsForecaster runs predict::DynamicSelector over a probe
// series, and the same selector runs over GridFTP histories.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nws/sensor.hpp"
#include "predict/incremental.hpp"
#include "predict/suite.hpp"

namespace wadp::nws {

/// The classic NWS forecaster battery: running mean, medians and means
/// over sliding windows, and last value.
predict::PredictorSuite nws_forecaster_battery();

/// Dynamic-selection forecaster over a probe series.
class NwsForecaster {
 public:
  NwsForecaster();

  /// Feeds one probe measurement (time-ordered).
  void observe(const ProbeMeasurement& measurement);

  /// Forecast bandwidth at time `t` (non-decreasing across calls) from
  /// probes observed so far.
  std::optional<Bandwidth> forecast(SimTime t);

  /// Which battery member currently answers.
  const std::string& current_choice() const;

 private:
  predict::DynamicSelector selector_;
};

/// Hybrid GridFTP predictor (the paper's Section 7 proposal): combine
/// sporadic GridFTP measurements with regular NWS probe data.  The
/// probe series supplies the *timing signal* (how loaded is the path
/// right now relative to earlier); the GridFTP history supplies the
/// *level* (what bandwidth a tuned parallel transfer actually gets).
///
///   prediction(t) = median_i( gridftp_i / probe_level(t_i) ) * probe_level(t)
///
/// where probe_level(s) is the mean probe bandwidth in the hour before
/// s.  Falls back to nullopt when either signal is missing.  The answer
/// reads the external probe series, which may grow between queries, so
/// the streaming form keeps its GridFTP history and recomputes.
class HybridNwsPredictor final : public predict::Predictor {
 public:
  /// `probes` must outlive the predictor and its streams, and stay
  /// time-ordered (the sensor appends monotonically).
  HybridNwsPredictor(std::string name,
                     const std::vector<ProbeMeasurement>* probes,
                     std::size_t ratio_window = 10,
                     Duration probe_level_window = 3600.0);

  std::optional<Bandwidth> predict(
      std::span<const predict::Observation> history,
      const predict::Query& query) const override;
  std::unique_ptr<predict::StreamingPredictor> stream() const override;

 private:
  const std::vector<ProbeMeasurement>* probes_;
  std::size_t ratio_window_;
  Duration probe_level_window_;
};

}  // namespace wadp::nws
