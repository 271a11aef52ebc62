#include "gridftp/record.hpp"

#include <gtest/gtest.h>

namespace wadp::gridftp {
namespace {

TransferRecord sample_record() {
  // The first row of Fig. 3.
  TransferRecord r;
  r.host = "dpsslx04.lbl.gov";
  r.source_ip = "140.221.65.69";
  r.file_name = "/home/ftp/vazhkuda/10 MB";
  r.file_size = 10'240'000;
  r.volume = "/home/ftp";
  r.start_time = 998'988'165.0;
  r.end_time = 998'988'169.0;
  r.op = Operation::kRead;
  r.streams = 8;
  r.tcp_buffer = 1'000'000;
  return r;
}

TEST(OperationTest, StringRoundTrip) {
  EXPECT_STREQ(to_string(Operation::kRead), "read");
  EXPECT_STREQ(to_string(Operation::kWrite), "write");
  EXPECT_EQ(*operation_from_string("read"), Operation::kRead);
  EXPECT_EQ(*operation_from_string("WRITE"), Operation::kWrite);
  EXPECT_FALSE(operation_from_string("append").has_value());
}

TEST(TransferRecordTest, BandwidthUsesPaperFormula) {
  // Fig. 3 row 1: 10240000 bytes / 4 s = 2560 KB/s.
  const auto r = sample_record();
  EXPECT_DOUBLE_EQ(r.total_time(), 4.0);
  EXPECT_DOUBLE_EQ(r.bandwidth_kb_per_sec(), 2560.0);
  EXPECT_DOUBLE_EQ(r.bandwidth(), 2'560'000.0);
}

TEST(TransferRecordTest, UlmRoundTrip) {
  const auto original = sample_record();
  const auto parsed = TransferRecord::from_ulm(original.to_ulm());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(TransferRecordTest, UlmCarriesFig3Fields) {
  const auto ulm = sample_record().to_ulm();
  EXPECT_EQ(*ulm.get("SOURCE"), "140.221.65.69");
  EXPECT_EQ(*ulm.get("FILE"), "/home/ftp/vazhkuda/10 MB");
  EXPECT_EQ(*ulm.get_int("SIZE"), 10'240'000);
  EXPECT_EQ(*ulm.get("VOLUME"), "/home/ftp");
  EXPECT_EQ(*ulm.get("OP"), "read");
  EXPECT_EQ(*ulm.get_int("STREAMS"), 8);
  EXPECT_EQ(*ulm.get_int("BUFFER"), 1'000'000);
  EXPECT_DOUBLE_EQ(*ulm.get_double("TIME"), 4.0);
  EXPECT_DOUBLE_EQ(*ulm.get_double("BW"), 2560.0);
}

TEST(TransferRecordTest, DiskAndProbeRoundTripWhenSampled) {
  auto r = sample_record();
  r.disk_throughput = 37'500'000.0;  // 37500.000 KB/s, exact in 3 decimals
  r.net_probe = 6'250'000.0;         // 6250.000 KB/s
  const auto ulm = r.to_ulm();
  EXPECT_DOUBLE_EQ(*ulm.get_double("DISK"), 37'500.0);
  EXPECT_DOUBLE_EQ(*ulm.get_double("PROBE"), 6'250.0);
  const auto parsed = TransferRecord::from_ulm(ulm);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
}

TEST(TransferRecordTest, UnsampledRecordsOmitDiskAndProbeKeys) {
  // Records from servers that never sampled (disk/probe 0) must log
  // byte-identically to the pre-instrumentation format: no new keys.
  const auto ulm = sample_record().to_ulm();
  EXPECT_FALSE(ulm.get("DISK").has_value());
  EXPECT_FALSE(ulm.get("PROBE").has_value());
  // And a key-free line parses with both fields defaulted.
  const auto parsed = TransferRecord::from_ulm(ulm);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->disk_throughput, 0.0);
  EXPECT_EQ(parsed->net_probe, 0.0);
}

TEST(TransferRecordTest, FromUlmRejectsCorruptDiskOrProbe) {
  {
    auto ulm = sample_record().to_ulm();
    ulm.set_double("DISK", -100.0, 3);
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
  }
  {
    auto ulm = sample_record().to_ulm();
    ulm.set("PROBE", "inf");
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
  }
  {
    auto ulm = sample_record().to_ulm();
    ulm.set("DISK", "nan");
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
  }
  {
    auto ulm = sample_record().to_ulm();
    ulm.set("DISK", "fast");  // present but unparseable
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
  }
}

TEST(TransferRecordTest, FromUlmRejectsMissingFields) {
  auto ulm = sample_record().to_ulm();
  util::UlmRecord incomplete;
  for (const auto& [k, v] : ulm.fields()) {
    if (k != "SIZE") incomplete.set(k, v);
  }
  EXPECT_FALSE(TransferRecord::from_ulm(incomplete).has_value());
}

TEST(TransferRecordTest, FromUlmRejectsInvertedTimes) {
  auto ulm = sample_record().to_ulm();
  ulm.set_double("END", sample_record().start_time - 1.0, 3);
  EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
}

/// `ulm` without its derived TIME= and BW= fields, so START/END checks
/// stand alone.
util::UlmRecord without_time(const util::UlmRecord& ulm) {
  util::UlmRecord out;
  for (const auto& [k, v] : ulm.fields()) {
    if (k != "TIME" && k != "BW") out.set(k, v);
  }
  return out;
}

TEST(TransferRecordTest, FromUlmRejectsNonFiniteTimes) {
  for (const char* key : {"START", "END"}) {
    for (const char* value : {"nan", "-inf", "inf"}) {
      auto ulm = sample_record().to_ulm();
      ulm.set(key, value);
      EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value())
          << key << "=" << value;
      EXPECT_FALSE(TransferRecord::from_ulm(without_time(ulm)).has_value())
          << key << "=" << value << " without TIME";
    }
  }
}

TEST(TransferRecordTest, FromUlmRejectsTimeDisagreeingWithStartAndEnd) {
  {
    // A START rewritten far into the past: finite and before END, so
    // only the TIME= cross-check catches it.
    auto ulm = sample_record().to_ulm();
    ulm.set("START", "-1e308");
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    EXPECT_TRUE(TransferRecord::from_ulm(without_time(ulm)).has_value());
  }
  {
    auto ulm = sample_record().to_ulm();  // END - START = 4 s
    ulm.set_double("TIME", 4.003, 3);
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    ulm.set("TIME", "nan");
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    ulm.set("TIME", "soon");  // present but unparseable
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    ulm.set_double("TIME", 4.001, 3);  // within rounding slack
    EXPECT_TRUE(TransferRecord::from_ulm(ulm).has_value());
  }
}

TEST(TransferRecordTest, FromUlmRejectsBandwidthDisagreeingWithSize) {
  {
    auto ulm = sample_record().to_ulm();  // 10,240,000 B over 4 s
    ulm.set_double("BW", 2600.0, 3);      // rewritten
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    ulm.set_double("BW", 1280.0, 3);
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    ulm.set("BW", "fast");  // present but unparseable
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
    // 2 ms of END - START slack on 4 s allows ~1.3 KB/s either way.
    ulm.set_double("BW", 2561.0, 3);
    EXPECT_TRUE(TransferRecord::from_ulm(ulm).has_value());
  }
  for (const char* value : {"nan", "inf", "-inf"}) {
    auto ulm = sample_record().to_ulm();
    ulm.set("BW", value);
    EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value()) << "BW=" << value;
  }
  {
    // A START rewritten far into the past with TIME= dropped: BW= alone
    // now catches it.
    auto ulm = sample_record().to_ulm();
    ulm.set("START", "-1e308");
    util::UlmRecord no_time;
    for (const auto& [k, v] : ulm.fields()) {
      if (k != "TIME") no_time.set(k, v);
    }
    EXPECT_FALSE(TransferRecord::from_ulm(no_time).has_value());
  }
}

TEST(TransferRecordTest, FromUlmAcceptsEveryRoundedRecord) {
  // to_ulm() rounds START, END, TIME and BW to 3 decimals independently;
  // the TIME= and BW= cross-checks must never reject what it wrote.
  // Sizes span 1 B to ~8e12 B; durations span 1.5 ms to ~13 minutes.
  TransferRecord r = sample_record();
  for (int i = 0; i < 2000; ++i) {
    r.file_size = 1 + static_cast<Bytes>(i) * i * i * 1'000;
    r.start_time = 998'988'165.0 + i * 0.0001237;
    const Duration scale = i % 3 == 0 ? 1000.0 : 1.0;
    r.end_time = r.start_time + 0.0015 + i * 0.0003851 * scale;
    const auto parsed = TransferRecord::from_ulm(r.to_ulm());
    ASSERT_TRUE(parsed.has_value()) << "record " << i;
    EXPECT_EQ(parsed->file_size, r.file_size);
  }
}

TEST(TransferRecordTest, FromUlmRejectsZeroSize) {
  auto ulm = sample_record().to_ulm();
  ulm.set_int("SIZE", 0);
  EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
}

TEST(TransferRecordTest, FromUlmRejectsBadStreams) {
  auto ulm = sample_record().to_ulm();
  ulm.set_int("STREAMS", 0);
  EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
}

TEST(TransferRecordTest, FromUlmRejectsUnknownOperation) {
  auto ulm = sample_record().to_ulm();
  ulm.set("OP", "mkdir");
  EXPECT_FALSE(TransferRecord::from_ulm(ulm).has_value());
}

}  // namespace
}  // namespace wadp::gridftp
