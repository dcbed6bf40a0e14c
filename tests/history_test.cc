#include "obs/history.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rdfql {
namespace {

HistorySample FullSample() {
  HistorySample s;
  s.unix_ms = 1700000001000;
  s.seconds = 1.5;
  s.coarse = true;
  s.counters["engine.queries"] = 42;
  s.counters["eval.nodes"] = 7;
  s.gauges["engine.graph_bytes"] = -12;
  s.histograms["engine.eval_ns"] = {{128, 3}, {256, 1}};
  return s;
}

TEST(HistorySampleTest, JsonRoundTrips) {
  HistorySample s = FullSample();
  std::string json = s.ToJson();
  HistorySample parsed;
  std::string error;
  ASSERT_TRUE(ParseHistorySample(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.unix_ms, s.unix_ms);
  EXPECT_DOUBLE_EQ(parsed.seconds, s.seconds);
  EXPECT_EQ(parsed.coarse, s.coarse);
  EXPECT_EQ(parsed.counters, s.counters);
  EXPECT_EQ(parsed.gauges, s.gauges);
  EXPECT_EQ(parsed.histograms, s.histograms);
  // Serialization is canonical: a parsed sample re-serializes identically.
  EXPECT_EQ(parsed.ToJson(), json);
}

TEST(HistorySampleTest, EmptySampleRoundTrips) {
  HistorySample s;
  s.unix_ms = 5;
  HistorySample parsed;
  std::string error;
  ASSERT_TRUE(ParseHistorySample(s.ToJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.unix_ms, 5u);
  EXPECT_TRUE(parsed.counters.empty());
  EXPECT_TRUE(parsed.gauges.empty());
  EXPECT_TRUE(parsed.histograms.empty());
}

TEST(HistorySampleTest, ParseRejectsMalformedLines) {
  // A well-formed sample whose unix_ms is 2^64: out of range, so it must
  // not wrap to 0.
  std::string overflow = FullSample().ToJson();
  overflow.replace(overflow.find("1700000001000"), 13, "18446744073709551616");
  std::vector<std::string> cases = {
      "",
      "{}",
      "not json",
      "{\"v\":2,\"unix_ms\":1}",          // unsupported version
      "{\"unix_ms\":1,\"v\":1}",          // header order is strict
      FullSample().ToJson().substr(0, 40),  // truncated
      FullSample().ToJson() + "x",          // trailing content
      overflow,
  };
  for (const std::string& line : cases) {
    HistorySample parsed;
    std::string error;
    EXPECT_FALSE(ParseHistorySample(line, &parsed, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(MetricsHistoryTest, FirstRecordIsZeroDeltaBaseline) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Inc(10);
  reg.GetGauge("g")->Set(99);
  MetricsHistory history;
  history.Record(reg.Snapshot(), 1000);
  std::vector<HistorySample> samples = history.Samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].unix_ms, 1000u);
  EXPECT_DOUBLE_EQ(samples[0].seconds, 0.0);
  // The pre-existing counter value is the baseline, not a delta.
  EXPECT_TRUE(samples[0].counters.empty());
  // Gauges are end-of-interval values, so the baseline carries them.
  ASSERT_EQ(samples[0].gauges.count("g"), 1u);
  EXPECT_EQ(samples[0].gauges.at("g"), 99);
  EXPECT_EQ(history.DeltaOver("c", 60000, 1000), 0u);
}

TEST(MetricsHistoryTest, RecordsDeltasBetweenSnapshots) {
  MetricsRegistry reg;
  MetricsHistory history;
  history.Record(reg.Snapshot(), 1000);

  reg.GetCounter("c")->Inc(5);
  reg.GetGauge("g")->Set(-3);
  Histogram* h = reg.GetHistogram("h");
  h->Observe(0);    // bucket le=1
  h->Observe(3);    // bucket le=4
  h->Observe(3);
  history.Record(reg.Snapshot(), 2000);

  reg.GetCounter("c")->Inc(2);
  h->Observe(100);  // bucket le=128
  history.Record(reg.Snapshot(), 3500);

  std::vector<HistorySample> samples = history.Samples();
  ASSERT_EQ(samples.size(), 3u);
  const HistorySample& s1 = samples[1];
  EXPECT_DOUBLE_EQ(s1.seconds, 1.0);
  EXPECT_EQ(s1.counters.at("c"), 5u);
  EXPECT_EQ(s1.gauges.at("g"), -3);
  std::vector<std::pair<uint64_t, uint64_t>> want1 = {{1, 1}, {4, 2}};
  EXPECT_EQ(s1.histograms.at("h"), want1);

  const HistorySample& s2 = samples[2];
  EXPECT_DOUBLE_EQ(s2.seconds, 1.5);
  EXPECT_EQ(s2.counters.at("c"), 2u);
  std::vector<std::pair<uint64_t, uint64_t>> want2 = {{128, 1}};
  EXPECT_EQ(s2.histograms.at("h"), want2);
}

TEST(MetricsHistoryTest, ClampsToZeroAcrossRegistryReset) {
  MetricsRegistry reg;
  MetricsHistory history;
  history.Record(reg.Snapshot(), 1000);
  reg.GetCounter("c")->Inc(10);
  reg.GetHistogram("h")->Observe(3);
  history.Record(reg.Snapshot(), 2000);

  // Reset mid-stream: the counter goes 10 -> 3, which must clamp to a zero
  // delta instead of wrapping to ~2^64.
  reg.Reset();
  reg.GetCounter("c")->Inc(3);
  history.Record(reg.Snapshot(), 3000);

  std::vector<HistorySample> samples = history.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_TRUE(samples[2].counters.empty());
  EXPECT_TRUE(samples[2].histograms.empty());
  EXPECT_EQ(history.DeltaOver("c", 60000, 3000), 10u);

  // After the clamped sample, diffing resumes from the reset baseline.
  reg.GetCounter("c")->Inc(4);
  history.Record(reg.Snapshot(), 4000);
  EXPECT_EQ(history.Samples()[3].counters.at("c"), 4u);
}

TEST(MetricsHistoryTest, WindowQueriesHonorTheCutoff) {
  MetricsRegistry reg;
  MetricsHistory history;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  history.Record(reg.Snapshot(), 1000);
  c->Inc(10);
  g->Set(1);
  history.Record(reg.Snapshot(), 2000);
  c->Inc(20);
  g->Set(2);
  history.Record(reg.Snapshot(), 3000);
  c->Inc(30);
  g->Set(3);
  history.Record(reg.Snapshot(), 4000);

  // Window covering only the last two samples (cutoff at 2500).
  EXPECT_EQ(history.DeltaOver("c", 1500, 4000), 50u);
  EXPECT_DOUBLE_EQ(history.RateOver("c", 1500, 4000), 25.0);
  // Window covering everything: 60 increments over 3 covered seconds.
  EXPECT_EQ(history.DeltaOver("c", 60000, 4000), 60u);
  EXPECT_DOUBLE_EQ(history.RateOver("c", 60000, 4000), 20.0);
  // Empty window.
  EXPECT_EQ(history.DeltaOver("c", 500, 10000), 0u);
  EXPECT_DOUBLE_EQ(history.RateOver("c", 500, 10000), 0.0);
  // Unknown counter.
  EXPECT_EQ(history.DeltaOver("nope", 60000, 4000), 0u);

  int64_t v = 0;
  ASSERT_TRUE(history.LatestGauge("g", &v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(history.LatestGauge("nope", &v));
}

TEST(MetricsHistoryTest, PercentileAndObservationsOverWindow) {
  MetricsRegistry reg;
  MetricsHistory history;
  Histogram* h = reg.GetHistogram("h");
  history.Record(reg.Snapshot(), 1000);
  h->Observe(100);
  h->Observe(100);
  history.Record(reg.Snapshot(), 2000);
  h->Observe(1000);
  h->Observe(1000);
  history.Record(reg.Snapshot(), 3000);

  EXPECT_EQ(history.ObservationsOver("h", 60000, 3000), 4u);
  // A 1s window at t=3000 cuts off at 2000 exclusive: only the last
  // sample's observations (both ~1000, bucket (512, 1024]).
  EXPECT_EQ(history.ObservationsOver("h", 1000, 3000), 2u);
  double p50_recent = history.PercentileOver("h", 0.5, 1000, 3000);
  EXPECT_GT(p50_recent, 512.0);
  EXPECT_LE(p50_recent, 1024.0);
  // Over the full window the lower half sits in the (64, 128] bucket.
  double p25_all = history.PercentileOver("h", 0.25, 60000, 3000);
  EXPECT_LE(p25_all, 128.0);
  // No observations in the window.
  EXPECT_DOUBLE_EQ(history.PercentileOver("h", 0.5, 500, 10000), 0.0);
}

TEST(MetricsHistoryTest, FoldsFineSamplesIntoCoarseBuckets) {
  HistoryOptions options;
  options.fine_retention_ms = 2000;
  options.coarse_bucket_ms = 2000;
  options.coarse_retention_ms = 60000;
  MetricsHistory history(options);
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  uint64_t t = 1000;
  history.Record(reg.Snapshot(), t);
  for (int i = 0; i < 10; ++i) {
    t += 1000;
    c->Inc(1);
    g->Set(static_cast<int64_t>(i));
    history.Record(reg.Snapshot(), t);
  }
  // Old fine samples were folded rather than dropped.
  EXPECT_GT(history.coarse_size(), 0u);
  EXPECT_LT(history.fine_size(), 11u);
  // Nothing was lost in the fold: the total delta is still every increment.
  EXPECT_EQ(history.DeltaOver("c", 60000, t), 10u);
  int64_t v = 0;
  ASSERT_TRUE(history.LatestGauge("g", &v));
  EXPECT_EQ(v, 9);

  std::vector<HistorySample> samples = history.Samples();
  ASSERT_FALSE(samples.empty());
  // Samples come back oldest first, coarse before fine, and the coarse ones
  // are flagged and span more than one tick.
  EXPECT_TRUE(samples.front().coarse);
  EXPECT_FALSE(samples.back().coarse);
  EXPECT_GT(samples.front().seconds, 1.0);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].unix_ms, samples[i - 1].unix_ms);
  }
}

TEST(MetricsHistoryTest, CoarseBucketsExpire) {
  HistoryOptions options;
  options.fine_retention_ms = 1000;
  options.coarse_bucket_ms = 1000;
  options.coarse_retention_ms = 3000;
  MetricsHistory history(options);
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  uint64_t t = 1000;
  history.Record(reg.Snapshot(), t);
  for (int i = 0; i < 60; ++i) {
    t += 1000;
    c->Inc(1);
    history.Record(reg.Snapshot(), t);
  }
  // Retention bounds the ring regardless of how long the engine runs.
  std::vector<HistorySample> samples = history.Samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_GE(samples.front().unix_ms + options.coarse_retention_ms +
                options.fine_retention_ms + options.coarse_bucket_ms,
            t);
  EXPECT_LT(history.DeltaOver("c", 600000, t), 60u);
  EXPECT_EQ(history.records(), 61u);
}

TEST(MetricsHistoryTest, PersistsJsonlEveryNRecordsAndOnDemand) {
  std::string path = ::testing::TempDir() + "/history_test_ring.jsonl";
  std::remove(path.c_str());
  HistoryOptions options;
  options.jsonl_path = path;
  options.persist_every = 2;
  MetricsHistory history(options);
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  history.Record(reg.Snapshot(), 1000);
  c->Inc(1);
  history.Record(reg.Snapshot(), 2000);  // 2nd record: rewrites the file
  c->Inc(2);
  history.Record(reg.Snapshot(), 3000);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::vector<HistorySample> from_disk;
  std::string line;
  while (std::getline(in, line)) {
    HistorySample s;
    std::string error;
    ASSERT_TRUE(ParseHistorySample(line, &s, &error)) << error;
    from_disk.push_back(s);
  }
  // persist_every=2: the file holds the ring as of the second record.
  ASSERT_EQ(from_disk.size(), 2u);
  EXPECT_EQ(from_disk[1].counters.at("c"), 1u);

  // Explicit WriteFile flushes the third sample too.
  ASSERT_TRUE(history.WriteFile());
  std::ifstream again(path);
  size_t lines = 0;
  while (std::getline(again, line)) ++lines;
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(MetricsHistoryTest, WriteFileWithoutPathFails) {
  MetricsHistory history;
  EXPECT_FALSE(history.WriteFile());
  EXPECT_FALSE(history.WriteFile("/nonexistent-dir-zzz/ring.jsonl"));
}

}  // namespace
}  // namespace rdfql
