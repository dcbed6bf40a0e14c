#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/engine.h"

namespace rdfql {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketsArePowersOfTwo) {
  Histogram h;
  h.Observe(0);     // bucket 0: [0, 1)
  h.Observe(1);     // bucket 1: [1, 2)
  h.Observe(7);     // bucket 3: [4, 8)
  h.Observe(8);     // bucket 4: [8, 16)
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 16u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.BucketCount(4), 1u);
  // Each bound is exclusive: value 8 must land above bound 8.
  EXPECT_EQ(Histogram::BucketBound(3), 8u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.BucketCount(3), 0u);
}

TEST(HistogramTest, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Observe(~uint64_t{0});
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::kNumBuckets - 1), 1u);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram h;
  for (int i = 0; i < 4; ++i) h.Observe(1);  // all in [1, 2)
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 2.0);
}

TEST(HistogramTest, PercentileBucketZeroSpansZeroToOne) {
  Histogram h;
  h.Observe(0);
  h.Observe(0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.5);
}

TEST(HistogramTest, PercentileCrossesBuckets) {
  Histogram h;
  h.Observe(1);  // two in [1, 2)
  h.Observe(1);
  h.Observe(7);  // two in [4, 8)
  h.Observe(7);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 2.0);   // rank 2 tops out bucket one
  EXPECT_DOUBLE_EQ(h.Percentile(0.75), 6.0);  // halfway into [4, 8)
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 8.0);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, PercentileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, SnapshotPercentileMatchesLiveHistogram) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h");
  for (uint64_t v : {0u, 1u, 3u, 9u, 100u, 5000u}) h->Observe(v);
  RegistrySnapshot snap = reg.Snapshot();
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.histograms.at("h").Percentile(q), h->Percentile(q))
        << "q=" << q;
  }
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("eval.join_probes");
  Counter* b = reg.GetCounter("eval.join_probes");
  EXPECT_EQ(a, b);
  a->Inc(5);
  EXPECT_EQ(reg.GetCounter("eval.join_probes")->Value(), 5u);
  EXPECT_NE(reg.GetCounter("other"), a);
}

TEST(RegistryTest, SnapshotCapturesEverything) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Inc(3);
  reg.GetGauge("g")->Set(-2);
  reg.GetHistogram("h")->Observe(100);
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -2);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").sum, 100u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("h").Mean(), 100.0);
  // Quantiles are bucket upper bounds; 100 lives in (64, 128].
  EXPECT_EQ(snap.histograms.at("h").ApproxQuantile(0.5), 128u);
}

TEST(RegistryTest, ResetZeroesButKeepsNames) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  c->Inc(9);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0u);  // the old pointer still works
  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);  // the name is still registered
}

TEST(RegistryTest, ConcurrentIncrementsDontLoseCounts) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.GetCounter("shared");
      for (int i = 0; i < kPerThread; ++i) c->Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared")->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(SnapshotTest, TextAndJsonRenderings) {
  MetricsRegistry reg;
  reg.GetCounter("eval.nodes")->Inc(7);
  reg.GetHistogram("engine.eval_ns")->Observe(1000);
  RegistrySnapshot snap = reg.Snapshot();
  std::string text = snap.ToText();
  EXPECT_NE(text.find("eval.nodes 7"), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"eval.nodes\":7"), std::string::npos);
  EXPECT_NE(json.find("\"engine.eval_ns\""), std::string::npos);
  // Balanced braces — a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  std::string out;
  AppendJsonEscaped("a\"b\\c\n\t\x01", &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(EngineMetricsTest, QueryRecordsPhaseTimingsAndOperatorWork) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\nb q c .").ok());
  engine.EnableMetrics();
  Result<MappingSet> r = engine.Query("g", "(?x p ?y) AND (?y q ?z)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("engine.queries"), 1u);
  EXPECT_EQ(snap.histograms.at("engine.parse_ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("engine.eval_ns").count, 1u);
  EXPECT_EQ(snap.counters.at("eval.nodes"), 3u);  // AND + two triples
  EXPECT_GT(snap.counters.at("eval.mappings_out"), 0u);
  engine.ResetMetrics();
  EXPECT_EQ(engine.MetricsSnapshot().counters.at("engine.queries"), 0u);
}

uint64_t HistogramCount(const RegistrySnapshot& snap, const char* name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

// engine.parse_ns is observed exactly once whenever the parse step ran,
// failed parses included, on every text entry point and with or without a
// query log — the figure the log record's parse_ns carries.
TEST(EngineMetricsTest, ParseNsObservedOnceWheneverTheParseStepRan) {
  struct Case {
    const char* name;
    bool logged;
    bool explained;
    const char* graph;
    const char* query;
  };
  const Case cases[] = {
      {"Query, parse error, logged", true, false, "g", "(?x p"},
      {"Query, parse error, unlogged", false, false, "g", "(?x p"},
      {"QueryExplained, parse error", false, true, "g", "(?x p"},
      {"QueryExplained, unknown graph", false, true, "nosuch", "(?x p ?y)"},
      {"Query, unknown graph", false, false, "nosuch", "(?x p ?y)"},
  };
  for (const Case& c : cases) {
    Engine engine;
    ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
    engine.EnableMetrics();
    QueryLog log;
    if (c.logged) engine.SetQueryLog(&log);
    bool ok = c.explained ? engine.QueryExplained(c.graph, c.query).ok()
                          : engine.Query(c.graph, c.query).ok();
    EXPECT_FALSE(ok) << c.name;
    RegistrySnapshot snap = engine.MetricsSnapshot();
    EXPECT_EQ(HistogramCount(snap, "engine.parse_ns"), 1u) << c.name;
    EXPECT_EQ(HistogramCount(snap, "engine.eval_ns"), 0u) << c.name;
    EXPECT_EQ(snap.counters["engine.queries"], 1u) << c.name;
    if (c.logged) {
      ASSERT_EQ(log.Snapshot().size(), 1u) << c.name;
      EXPECT_EQ(log.Snapshot()[0].parse_ns,
                snap.histograms.at("engine.parse_ns").sum)
          << c.name;
    }
    engine.SetQueryLog(nullptr);
  }
}

TEST(EngineMetricsTest, DisabledByDefault) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  ASSERT_TRUE(engine.Query("g", "(?x p ?y)").ok());
  RegistrySnapshot snap = engine.MetricsSnapshot();
  // Per-query instrumentation is off until EnableMetrics(); the only
  // series in a default snapshot are the ambient lock-contention ones
  // (always injected so "is it contention?" is answerable from any
  // scrape — docs/observability.md, "Profiling").
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.rfind("lock.", 0), 0u) << name << "=" << value;
  }
  for (const auto& [name, hist] : snap.histograms) {
    EXPECT_EQ(name.rfind("lock.", 0), 0u) << name;
  }
  EXPECT_EQ(snap.counters.count("lock.dictionary_contended_total"), 1u);
}

}  // namespace
}  // namespace rdfql
