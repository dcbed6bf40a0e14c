// Robustness of the JSON readers: every obs and bench file format, and the
// alert rule files, fed the truncations and byte flips a crashed writer or
// a careless edit leaves behind. A reader must accept the text or reject it
// with a message; it must never crash. The versioned JSONL records must
// also read with their keys in any order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_reporting.h"
#include "obs/alerts.h"
#include "obs/history.h"
#include "obs/json_util.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"

namespace rdfql {
namespace {

/// Parses `text`; returns false with a message in *error on bad input.
using Reader = bool (*)(const std::string& text, std::string* error);

/// Feeds `reader` every proper prefix of `full` and every single-byte
/// substitution of it from a set of JSON punctuation, a digit, a letter
/// and a space. Each call must succeed, or fail with a message.
void Sweep(const std::string& full, Reader reader) {
  std::string error;
  ASSERT_TRUE(reader(full, &error)) << error << "\n" << full;
  size_t silent = 0;
  std::string first_silent;
  auto check = [&](const std::string& text) {
    error.clear();
    if (!reader(text, &error) && error.empty()) {
      if (silent++ == 0) first_silent = text;
    }
  };
  for (size_t n = 0; n < full.size(); ++n) check(full.substr(0, n));
  for (size_t i = 0; i < full.size(); ++i) {
    for (char c : std::string("{}[]\",:9-x\\ ")) {
      if (full[i] == c) continue;
      std::string text = full;
      text[i] = c;
      check(text);
    }
  }
  EXPECT_EQ(silent, 0u) << "first failure without a message: "
                        << first_silent;
}

QueryLogRecord FullRecord() {
  QueryLogRecord r;
  r.correlation_id = 42;
  r.query_hash = StableQueryHash("q");
  r.graph = "g\"raph";
  r.query = "(?x \\ \"p\" ?y)\nline2";
  r.fragment = "SPARQL[AOF]";
  r.outcome = "resource_exhausted";
  r.error = "live mappings 1001 > 1000";
  r.unix_ms = 1754350000000ull;
  r.parse_ns = 123;
  r.optimize_ns = 456;
  r.eval_ns = 789;
  r.rows_out = 7;
  r.total_mappings = 99;
  r.peak_mappings = 55;
  r.peak_bytes = 4040;
  r.threads = 8;
  r.slow = true;
  r.cache = "result_hit";
  r.explain = "AND [rows=7]\n  triple [rows=2]";
  return r;
}

AlertTransition FullTransition() {
  AlertTransition t;
  t.unix_ms = 1700000002000;
  t.rule = "opt-p99";
  t.state = "firing";
  t.severity = "page";
  t.fragment = "SPARQL[AO]";
  t.value = 81.5e6;
  t.threshold = 1.5;
  t.windows_ms = {30000, 300000};
  return t;
}

HistorySample FullSample() {
  HistorySample s;
  s.unix_ms = 1700000001000;
  s.seconds = 1.5;
  s.coarse = true;
  s.counters["engine.queries"] = 42;
  s.gauges["engine.graph_bytes"] = -12;
  s.histograms["engine.eval_ns"] = {{128, 3}, {256, 1}};
  return s;
}

TelemetrySnapshot FullSnapshot() {
  TelemetrySnapshot s;
  s.unix_ms = 1700000003000;
  s.interval_ms = 1000;
  s.ticks = 7;
  s.queries_total = 12;
  s.rejected_total = 1;
  s.watchdog_cancelled_total = 1;
  s.queries_active = 1;
  s.qps = 2.5;
  s.rejections_per_s = 0.25;
  s.eval_p50_ns = 1536.5;
  s.eval_p99_ns = 1234567.5;
  TelemetryWindow w;
  w.end_unix_ms = 1700000003000;
  w.seconds = 1;
  w.queries = 3;
  w.rejections = 1;
  w.eval_count = 3;
  w.eval_buckets = {{1024, 2}, {2048, 1}};
  s.windows = {w};
  InflightQueryInfo q;
  q.slot = 3;
  q.generation = 9;
  q.correlation_id = 42;
  q.query_hash = 7;
  q.graph = "g";
  q.query = "(?x p ?y)";
  q.fragment = "SPARQL[A]";
  q.phase = QueryPhase::kEvaluating;
  q.start_unix_ms = 1700000002500;
  q.wall_ns = 5000;
  q.live_mappings = 10;
  q.live_bytes = 800;
  q.peak_bytes = 1600;
  q.threads = 2;
  q.watchdog_cancelled = true;
  s.inflight.unix_ms = 1700000003000;
  s.inflight.registered_total = 5;
  s.inflight.watchdog_cancelled_total = 1;
  s.inflight.queries = {q};
  s.hot_tags = {{"Eval", 12}, {"JoinHash", 5}};
  s.has_alerts = true;
  s.alerts.unix_ms = 1700000003000;
  s.alerts.firing_total = 1;
  AlertRuleStatus rule;
  rule.name = "opt-p99";
  rule.severity = "page";
  rule.state = "firing";
  rule.fragment = "SPARQL[AO]";
  rule.value = 81.5e6;
  rule.threshold = 50e6;
  rule.since_unix_ms = 1700000002000;
  rule.fires = 1;
  s.alerts.rules = {rule};
  s.build_sha = "abc1234";
  s.build_type = "Release";
  return s;
}

std::string FullBenchJson() {
  bench::BenchCase c;
  c.name = "BM_Foo/64";
  c.family = "BM_Foo";
  c.args = {64};
  c.iterations = 700;
  c.real_ns = 19648.7;
  c.cpu_ns = 2516581.3;
  c.threads = 2;
  c.counters = {{"answers", 64}, {"allocs_per_row", 0.453125}};
  c.metrics = {{"engine.eval_ns.p50", 1536.5}};
  bench::BenchCase d = c;
  d.name = "BM_Foo/256";
  d.args = {256};
  d.metrics.clear();
  return bench::RenderBenchJson("bench_foo", {c, d});
}

constexpr char kRules[] = R"({"version":1,"rules":[
  {"name":"opt-p99","agg":"p99","metric":"engine.eval_ns",
   "fragment":"SPARQL[AO]","op":">","threshold":"50ms",
   "windows":["30s",300000],"for":"10s","keep":2000,"severity":"page",
   "escalate_watchdog_wall_ms":100},
  {"name":"burn","agg":"burn_rate","metric":"engine.queries_rejected",
   "denominator":"engine.queries","objective":0.01,"op":"<",
   "threshold":2.5,"windows":["1m"]}]})";

TEST(JsonReaderSweepTest, QueryLogLine) {
  Sweep(QueryLogRecordToJson(FullRecord()),
        [](const std::string& text, std::string* error) {
          QueryLogRecord r;
          return ParseQueryLogLine(text, &r, error);
        });
}

TEST(JsonReaderSweepTest, AlertLogLine) {
  Sweep(FullTransition().ToJson(),
        [](const std::string& text, std::string* error) {
          AlertTransition t;
          return ParseAlertLogLine(text, &t, error);
        });
}

TEST(JsonReaderSweepTest, HistorySample) {
  Sweep(FullSample().ToJson(),
        [](const std::string& text, std::string* error) {
          HistorySample s;
          return ParseHistorySample(text, &s, error);
        });
}

TEST(JsonReaderSweepTest, TelemetrySnapshot) {
  Sweep(FullSnapshot().ToJson(),
        [](const std::string& text, std::string* error) {
          TelemetrySnapshot s;
          return ParseTelemetrySnapshot(text, &s, error);
        });
}

TEST(JsonReaderSweepTest, AlertRules) {
  Sweep(kRules, [](const std::string& text, std::string* error) {
    std::vector<AlertRule> rules;
    return ParseAlertRules(text, &rules, error);
  });
}

TEST(JsonReaderSweepTest, BenchJson) {
  Sweep(FullBenchJson(), [](const std::string& text, std::string* error) {
    bench::ParsedBenchDoc doc;
    return bench::ParseBenchJson(text, &doc, error);
  });
}

// Every optional part present: each writer's output reads back and writes
// the same bytes.
TEST(JsonRoundTripTest, FullDocumentsRewriteIdentically) {
  std::string error;
  QueryLogRecord record;
  std::string line = QueryLogRecordToJson(FullRecord());
  ASSERT_TRUE(ParseQueryLogLine(line, &record, &error)) << error;
  EXPECT_EQ(QueryLogRecordToJson(record), line);

  TelemetrySnapshot snap;
  std::string json = FullSnapshot().ToJson();
  ASSERT_TRUE(ParseTelemetrySnapshot(json, &snap, &error)) << error;
  EXPECT_TRUE(snap.has_alerts);
  ASSERT_EQ(snap.hot_tags.size(), 2u);
  EXPECT_EQ(snap.hot_tags[0].tag, "Eval");
  EXPECT_EQ(snap.hot_tags[0].self, 12u);
  ASSERT_EQ(snap.inflight.queries.size(), 1u);
  EXPECT_EQ(snap.inflight.queries[0].phase, QueryPhase::kEvaluating);
  EXPECT_EQ(snap.ToJson(), json);

  bench::ParsedBenchDoc doc;
  std::string bench_json = FullBenchJson();
  ASSERT_TRUE(bench::ParseBenchJson(bench_json, &doc, &error)) << error;
  EXPECT_EQ(bench::RenderBenchJson(doc.bench, doc.cases).substr(
                bench_json.find("\"cases\"")),
            bench_json.substr(bench_json.find("\"cases\"")));
}

TEST(JsonReaderOrderTest, QueryLogKeysInAnyOrder) {
  QueryLogRecord r;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(
      R"({"explain":"AND [rows=7]\n  triple [rows=2]","slow":true,)"
      R"("cache":"result_hit","threads":8,"peak_bytes":4040,)"
      R"("peak_mappings":55,"total_mappings":99,"rows_out":7,"eval_ns":789,)"
      R"("optimize_ns":456,"parse_ns":123,)"
      R"("error":"live mappings 1001 > 1000","outcome":"resource_exhausted",)"
      R"("fragment":"SPARQL[AOF]","query":"(?x \\ \"p\" ?y)\nline2",)"
      R"("graph":"g\"raph","unix_ms":1754350000000,)"
      R"("hash":12638204792741693372,"id":42,"v":1})",
      &r, &error))
      << error;
  EXPECT_EQ(QueryLogRecordToJson(r), QueryLogRecordToJson(FullRecord()));
}

TEST(JsonReaderOrderTest, AlertLogKeysInAnyOrder) {
  AlertTransition t;
  std::string error;
  ASSERT_TRUE(ParseAlertLogLine(
      R"({"windows_ms":[30000,300000],"threshold":1.5,"value":81500000,)"
      R"("fragment":"SPARQL[AO]","severity":"page","state":"firing",)"
      R"("rule":"opt-p99","unix_ms":1700000002000,"v":1})",
      &t, &error))
      << error;
  EXPECT_EQ(t.ToJson(), FullTransition().ToJson());
}

TEST(JsonReaderOrderTest, HistorySampleKeysInAnyOrder) {
  HistorySample s;
  std::string error;
  ASSERT_TRUE(ParseHistorySample(
      R"({"histograms":{"engine.eval_ns":[[128,3],[256,1]]},)"
      R"("gauges":{"engine.graph_bytes":-12},)"
      R"("counters":{"engine.queries":42},"coarse":true,"seconds":1.5,)"
      R"("unix_ms":1700000001000,"v":1})",
      &s, &error))
      << error;
  EXPECT_EQ(s.ToJson(), FullSample().ToJson());
}

TEST(JsonReaderTest, RejectsUnknownDuplicateAndMissingKeys) {
  std::string line = FullTransition().ToJson();
  for (const std::string& bad : {
           "{\"extra\":1," + line.substr(1),       // unknown key
           "{\"rule\":\"x\"," + line.substr(1),    // duplicate key
           line.substr(0, line.find(",\"rule\"")) + "}",  // missing keys
           "{\"v\":2" + line.substr(line.find(',')),      // wrong version
       }) {
    AlertTransition t;
    std::string error;
    EXPECT_FALSE(ParseAlertLogLine(bad, &t, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Integers must fit their field: `threads` is an int.
  QueryLogRecord r;
  std::string error;
  EXPECT_FALSE(ParseQueryLogLine(
      R"({"v":1,"outcome":"ok","threads":4294967296})", &r, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonWriterTest, DoublesPrintAsIntegersWhenIntegral) {
  auto number = [](double v) {
    std::string out;
    jsonutil::AppendNumber(v, &out);
    return out;
  };
  EXPECT_EQ(number(0), "0");
  EXPECT_EQ(number(81.5e6), "81500000");
  EXPECT_EQ(number(-12), "-12");
  EXPECT_EQ(number(1.5), "1.5");
  EXPECT_EQ(number(0.453125), "0.453125");
  EXPECT_EQ(number(19648.7), "19648.7");
  // Six significant digits: the rounding of a larger value is integral,
  // so it prints as that integer and reads back to the same bytes.
  EXPECT_EQ(number(2516581.3), "2516580");
  // At and beyond 2^63 no int64_t holds the value: no cast, %g form.
  EXPECT_EQ(number(1e19), "1e+19");
  EXPECT_EQ(number(-1e300), "-1e+300");
}

TEST(BenchJsonTest, DeepNestingIsATypedError) {
  bench::ParsedBenchDoc doc;
  std::string error;
  EXPECT_FALSE(bench::ParseBenchJson(std::string(200000, '['), &doc, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchJsonTest, ChecksSchemaStampAndPositivity) {
  std::string good = FullBenchJson();
  auto replaced = [&good](const std::string& from, const std::string& to) {
    std::string out = good;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  std::string unstamped = good;
  size_t stamp = unstamped.find(",\"git_sha\"");
  unstamped.erase(stamp, unstamped.find(",\"cases\"") - stamp);
  for (const std::string& bad : {
           replaced("rdfql-bench-v3", "rdfql-bench-v9"),
           unstamped,  // v3 requires the provenance stamp
           replaced("\"iterations\":700", "\"iterations\":0"),
           replaced("\"real_ns\":19648.7", "\"real_ns\":-1"),
           replaced("\"threads\":2", "\"threads\":0"),
           replaced("\"name\":\"BM_Foo/64\"", "\"name\":\"\""),
       }) {
    bench::ParsedBenchDoc doc;
    std::string error;
    EXPECT_FALSE(bench::ParseBenchJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // A v2 document has no stamp and still reads.
  std::string v2 = unstamped;
  v2.replace(v2.find("rdfql-bench-v3"), 14, "rdfql-bench-v2");
  bench::ParsedBenchDoc doc;
  std::string error;
  EXPECT_TRUE(bench::ParseBenchJson(v2, &doc, &error)) << error << "\n" << v2;
  EXPECT_EQ(doc.cases.size(), 2u);
}

}  // namespace
}  // namespace rdfql
