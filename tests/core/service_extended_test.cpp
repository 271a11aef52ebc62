#include <gtest/gtest.h>

#include "core/prediction_service.hpp"

namespace wadp::core {
namespace {

using gridftp::Operation;
using gridftp::TransferRecord;

TransferRecord record(double end, double bw_mb, Bytes size) {
  TransferRecord r;
  r.host = "h.example.org";
  r.source_ip = "1.2.3.4";
  r.file_name = "/v/f";
  r.file_size = size;
  r.volume = "/v";
  const double duration = static_cast<double>(size) / (bw_mb * 1e6);
  r.start_time = end - duration;
  r.end_time = end;
  r.op = Operation::kRead;
  r.streams = 8;
  r.tcp_buffer = 1'000'000;
  return r;
}

SeriesKey key() {
  return {.host = "h.example.org", .remote_ip = "1.2.3.4",
          .op = Operation::kRead};
}

TEST(ServiceExtendedBatteryTest, ExtendedPredictorsAvailable) {
  ServiceConfig config;
  config.battery = ServiceConfig::Battery::kExtended;
  PredictionService service(config);
  EXPECT_GE(service.suite().size(), 38u);
  EXPECT_NE(service.suite().find("SREG"), nullptr);
  EXPECT_NE(service.suite().find("EWMA0.2/fs"), nullptr);

  for (int i = 0; i < 30; ++i) {
    service.ingest(record(100.0 + i * 100, 5.0, 100 * kMB));
  }
  const auto sreg = service.predict(key(), 100 * kMB, 5000.0, "SREG");
  ASSERT_TRUE(sreg.has_value());
  EXPECT_NEAR(*sreg, 5e6, 1e4);
}

TEST(ServiceExtendedBatteryTest, PaperBatteryLacksExtensions) {
  PredictionService service;  // default: paper battery
  EXPECT_EQ(service.suite().size(), 30u);
  EXPECT_EQ(service.suite().find("SREG"), nullptr);
  for (int i = 0; i < 30; ++i) {
    service.ingest(record(100.0 + i * 100, 5.0, 100 * kMB));
  }
  EXPECT_FALSE(service.predict(key(), 100 * kMB, 5000.0, "SREG").has_value());
}

TEST(ServiceExtendedBatteryTest, ExtendedDefaultPredictorWorks) {
  ServiceConfig config;
  config.battery = ServiceConfig::Battery::kExtended;
  config.default_predictor = "SREG";
  PredictionService service(config);
  for (int i = 0; i < 30; ++i) {
    service.ingest(record(100.0 + i * 100, 4.0, 100 * kMB));
  }
  const auto prediction = service.predict(key(), 100 * kMB, 5000.0);
  ASSERT_TRUE(prediction.has_value());
  EXPECT_NEAR(*prediction, 4e6, 1e4);
}

TEST(ServiceExtendedBatteryTest, EvaluateCoversExtendedBattery) {
  ServiceConfig config;
  config.battery = ServiceConfig::Battery::kExtended;
  PredictionService service(config);
  for (int i = 0; i < 50; ++i) {
    service.ingest(record(100.0 + i * 100, 4.0 + (i % 3) * 0.5, 100 * kMB));
  }
  const auto evaluation = service.evaluate(key());
  ASSERT_TRUE(evaluation.has_value());
  EXPECT_TRUE(evaluation->index_of("SREG").has_value());
  EXPECT_TRUE(evaluation->index_of("ADAPT/fs").has_value());
}

}  // namespace
}  // namespace wadp::core
