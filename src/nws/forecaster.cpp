#include "nws/forecaster.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace wadp::nws {
namespace {

/// Mean probe bandwidth over [t - window, t]; only probes already
/// completed by t are visible (no lookahead).
std::optional<Bandwidth> probe_level(
    const std::vector<ProbeMeasurement>& probes, Duration window, SimTime t) {
  const auto end = std::lower_bound(
      probes.begin(), probes.end(), t,
      [](const ProbeMeasurement& m, SimTime s) { return m.time <= s; });
  double sum = 0.0;
  std::size_t n = 0;
  for (auto it = end; it != probes.begin();) {
    --it;
    if (it->time < t - window) break;
    sum += it->value;
    ++n;
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

/// The hybrid prediction at `t` from `history` (see forecaster.hpp).
std::optional<Bandwidth> hybrid_answer(
    const std::vector<ProbeMeasurement>& probes, std::size_t ratio_window,
    Duration level_window, std::span<const predict::Observation> history,
    SimTime t) {
  const auto now_level = probe_level(probes, level_window, t);
  if (!now_level || *now_level <= 0.0) return std::nullopt;

  std::vector<double> ratios;
  for (std::size_t i = history.size();
       i-- > 0 && ratios.size() < ratio_window;) {
    const auto& obs = history[i];
    const auto then_level = probe_level(probes, level_window, obs.time);
    if (then_level && *then_level > 0.0 && obs.value > 0.0) {
      ratios.push_back(obs.value / *then_level);
    }
  }
  if (ratios.empty()) return std::nullopt;
  // Median ratio: robust to the occasional GridFTP transfer that raced
  // a congestion episode the probes missed.
  return *util::median(ratios) * *now_level;
}

/// Streaming hybrid: keeps the GridFTP history and recomputes per
/// query, because a ratio's probe level can change as probes arrive.
class HybridNwsStream final : public predict::StreamingPredictor {
 public:
  HybridNwsStream(std::string name, const std::vector<ProbeMeasurement>* probes,
                  std::size_t ratio_window, Duration level_window)
      : StreamingPredictor(std::move(name)),
        probes_(probes),
        ratio_window_(ratio_window),
        level_window_(level_window) {}
  void observe(const predict::Observation& o) override {
    history_.push_back(o);
  }
  std::optional<Bandwidth> predict(const predict::Query& query) override {
    return hybrid_answer(*probes_, ratio_window_, level_window_, history_,
                         query.time);
  }

 private:
  const std::vector<ProbeMeasurement>* probes_;
  std::size_t ratio_window_;
  Duration level_window_;
  std::vector<predict::Observation> history_;
};

}  // namespace

predict::PredictorSuite nws_forecaster_battery() {
  using predict::WindowSpec;
  predict::PredictorSuite suite;
  suite.add(std::make_shared<predict::MeanPredictor>("nws.AVG",
                                                     WindowSpec::all()));
  suite.add(std::make_shared<predict::MeanPredictor>("nws.AVG10",
                                                     WindowSpec::last_n(10)));
  suite.add(std::make_shared<predict::MeanPredictor>("nws.AVG30",
                                                     WindowSpec::last_n(30)));
  suite.add(std::make_shared<predict::MedianPredictor>("nws.MED",
                                                       WindowSpec::all()));
  suite.add(std::make_shared<predict::MedianPredictor>("nws.MED10",
                                                       WindowSpec::last_n(10)));
  suite.add(std::make_shared<predict::MedianPredictor>("nws.MED30",
                                                       WindowSpec::last_n(30)));
  suite.add(std::make_shared<predict::LastValuePredictor>("nws.LV"));
  return suite;
}

NwsForecaster::NwsForecaster()
    : selector_("nws.DYN", nws_forecaster_battery().predictors()) {}

void NwsForecaster::observe(const ProbeMeasurement& measurement) {
  selector_.observe(predict::Observation{
      .time = measurement.time,
      .value = measurement.value,
      .file_size = 0,  // probes have a fixed size; classification unused
  });
}

std::optional<Bandwidth> NwsForecaster::forecast(SimTime t) {
  return selector_.predict(predict::Query{.time = t, .file_size = 0});
}

const std::string& NwsForecaster::current_choice() const {
  return selector_.current_choice();
}

HybridNwsPredictor::HybridNwsPredictor(
    std::string name, const std::vector<ProbeMeasurement>* probes,
    std::size_t ratio_window, Duration probe_level_window)
    : Predictor(std::move(name)),
      probes_(probes),
      ratio_window_(ratio_window),
      probe_level_window_(probe_level_window) {
  WADP_CHECK(probes_ != nullptr);
  WADP_CHECK(ratio_window_ >= 1);
  WADP_CHECK(probe_level_window_ > 0.0);
}

std::optional<Bandwidth> HybridNwsPredictor::predict(
    std::span<const predict::Observation> history,
    const predict::Query& query) const {
  return hybrid_answer(*probes_, ratio_window_, probe_level_window_, history,
                       query.time);
}

std::unique_ptr<predict::StreamingPredictor> HybridNwsPredictor::stream()
    const {
  return std::make_unique<HybridNwsStream>(name(), probes_, ratio_window_,
                                           probe_level_window_);
}

}  // namespace wadp::nws
