#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/thread_pool.h"

namespace rdfql {
namespace {

// Same blowup shape as limits_test: n disjoint p-edges cross-joined into
// n^2 live mappings — cheap wall time and memory on demand.
std::string EdgeGraph(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "s" + std::to_string(i) + " p o" + std::to_string(i) + " .\n";
  }
  return out;
}

constexpr char kBlowupQuery[] = "(?a p ?b) AND (?c p ?d)";

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> FileLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(StableQueryHashTest, StableAcrossProcessesAndInputs) {
  // FNV-1a 64 with the standard offset/prime; pinned so a log written on
  // one machine aggregates with one written on another.
  EXPECT_EQ(StableQueryHash(""), 14695981039346656037ull);
  EXPECT_EQ(StableQueryHash("a"), 12638187200555641996ull);
  EXPECT_EQ(StableQueryHash("(?x p ?y)"), StableQueryHash("(?x p ?y)"));
  EXPECT_NE(StableQueryHash("(?x p ?y)"), StableQueryHash("(?x p ?z)"));
}

TEST(QueryLogRecordTest, JsonRoundTripPreservesEveryField) {
  QueryLogRecord r;
  r.correlation_id = 42;
  r.query_hash = StableQueryHash("q");
  r.graph = "g\"raph";  // escaping must survive the round trip
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

  std::string line = QueryLogRecordToJson(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record, one line
  // The on-disk bytes are a format: readers of older logs depend on them.
  EXPECT_EQ(line,
            R"({"v":1,"id":42,"hash":12638204792741693372,)"
            R"("unix_ms":1754350000000,"graph":"g\"raph",)"
            R"("query":"(?x \\ \"p\" ?y)\nline2","fragment":"SPARQL[AOF]",)"
            R"("outcome":"resource_exhausted",)"
            R"("error":"live mappings 1001 > 1000","parse_ns":123,)"
            R"("optimize_ns":456,"eval_ns":789,"rows_out":7,)"
            R"("total_mappings":99,"peak_mappings":55,"peak_bytes":4040,)"
            R"("threads":8,"cache":"result_hit","slow":true,)"
            R"("explain":"AND [rows=7]\n  triple [rows=2]"})");

  QueryLogRecord back;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(line, &back, &error)) << error;
  EXPECT_EQ(back.correlation_id, r.correlation_id);
  EXPECT_EQ(back.query_hash, r.query_hash);
  EXPECT_EQ(back.graph, r.graph);
  EXPECT_EQ(back.query, r.query);
  EXPECT_EQ(back.fragment, r.fragment);
  EXPECT_EQ(back.outcome, r.outcome);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.unix_ms, r.unix_ms);
  EXPECT_EQ(back.parse_ns, r.parse_ns);
  EXPECT_EQ(back.optimize_ns, r.optimize_ns);
  EXPECT_EQ(back.eval_ns, r.eval_ns);
  EXPECT_EQ(back.rows_out, r.rows_out);
  EXPECT_EQ(back.total_mappings, r.total_mappings);
  EXPECT_EQ(back.peak_mappings, r.peak_mappings);
  EXPECT_EQ(back.peak_bytes, r.peak_bytes);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(back.slow, r.slow);
  EXPECT_EQ(back.cache, r.cache);
  EXPECT_EQ(back.explain, r.explain);
}

TEST(QueryLogRecordTest, EmptyCacheFieldIsOmittedFromJson) {
  QueryLogRecord r;
  r.outcome = "ok";
  EXPECT_EQ(QueryLogRecordToJson(r).find("\"cache\""), std::string::npos);
  r.cache = "bypass";
  std::string line = QueryLogRecordToJson(r);
  EXPECT_NE(line.find("\"cache\":\"bypass\""), std::string::npos);
  QueryLogRecord back;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(line, &back, &error)) << error;
  EXPECT_EQ(back.cache, "bypass");
}

TEST(QueryLogRecordTest, QueryHashIsCanonicalized) {
  // The logged hash keys the *canonical* text, so the same query logged
  // with different formatting aggregates under one hash.
  EXPECT_EQ(StableQueryHash("  (?x \t p ?y) # c"),
            StableQueryHash("(?x p ?y)"));
}

TEST(QueryLogAggregatorTest, TopHashesRanksRepeatedQueries) {
  QueryLogAggregator agg;
  auto add = [&](const char* query, uint64_t eval_ns) {
    QueryLogRecord r;
    r.query = query;
    r.query_hash = StableQueryHash(query);
    r.eval_ns = eval_ns;
    r.outcome = "ok";
    agg.Add(r);
  };
  for (int i = 0; i < 5; ++i) add("(?x p ?y)", 1000);
  for (int i = 0; i < 3; ++i) add("(?x q ?y)", 2000);
  add("(?x r ?y)", 3000);
  std::string text = agg.TopHashesText(2);
  // Ranked by count, truncated to N, with the example query text shown.
  size_t first = text.find("(?x p ?y)");
  size_t second = text.find("(?x q ?y)");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(text.find("(?x r ?y)"), std::string::npos);
  std::string json = agg.TopHashesJson(2);
  EXPECT_NE(json.find("\"distinct_hashes\":3"), std::string::npos);
  EXPECT_NE(json.find("\"count\":5"), std::string::npos);
}

TEST(QueryLogAggregatorTest, CacheOutcomesAggregate) {
  QueryLogAggregator agg;
  for (const char* outcome :
       {"result_hit", "result_hit", "miss", "bypass"}) {
    QueryLogRecord r;
    r.outcome = "ok";
    r.cache = outcome;
    agg.Add(r);
  }
  QueryLogRecord plain;  // pre-cache record: no cache field at all
  plain.outcome = "ok";
  agg.Add(plain);
  EXPECT_EQ(agg.cache_outcomes().at("result_hit"), 2u);
  EXPECT_EQ(agg.cache_outcomes().at("miss"), 1u);
  EXPECT_EQ(agg.cache_outcomes().at("bypass"), 1u);
  EXPECT_EQ(agg.cache_outcomes().count(""), 0u);
  std::string text = agg.ToText();
  EXPECT_NE(text.find("cache"), std::string::npos);
  EXPECT_NE(agg.ToJson().find("\"cache\""), std::string::npos);
}

TEST(QueryLogRecordTest, MalformedLinesAreRejected) {
  QueryLogRecord out;
  std::string error;
  for (const char* bad : {
           "",                          // empty
           "not json",                  // no object
           "{}",                        // missing version tag
           "{\"v\":2,\"outcome\":\"ok\"}",  // future version
           "{\"v\":1,\"outcome\":\"ok\"} trailing",  // bytes after object
           "{\"v\":1,\"outcome\":\"ok\"",            // unterminated
           "{\"v\":1,\"outcome\":\"ok\",\"eval_ns\":\"abc\"}",  // bad number
           // 2^64: out of range, must not saturate or wrap.
           "{\"v\":1,\"outcome\":\"ok\",\"eval_ns\":18446744073709551616}",
       }) {
    error.clear();
    EXPECT_FALSE(ParseQueryLogLine(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(QueryLogRecordTest, UnknownKeysAreSkippedForForwardCompat) {
  QueryLogRecord out;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(
      "{\"v\":1,\"outcome\":\"ok\",\"future_field\":\"x\",\"rows_out\":3}",
      &out, &error))
      << error;
  EXPECT_EQ(out.rows_out, 3u);
}

TEST(QueryLogTest, RingBufferKeepsNewestOldestFirst) {
  QueryLogOptions options;
  options.ring_capacity = 4;
  QueryLog log(options);
  for (uint64_t i = 1; i <= 10; ++i) {
    QueryLogRecord r;
    r.correlation_id = i;
    log.Record(std::move(r));
  }
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].correlation_id, 7 + i);
  }
  EXPECT_EQ(log.records_seen(), 10u);
  EXPECT_EQ(log.records_logged(), 10u);  // ring eviction is not sampling
}

TEST(QueryLogTest, SamplingDropsOkButKeepsSlowAndFailed) {
  QueryLogOptions options;
  options.sample_every = 3;
  QueryLog log(options);
  auto submit = [&log](const char* outcome, bool slow) {
    QueryLogRecord r;
    r.outcome = outcome;
    r.slow = slow;
    log.Record(std::move(r));
  };
  for (int i = 0; i < 9; ++i) submit("ok", false);
  EXPECT_EQ(log.records_logged(), 3u);
  EXPECT_EQ(log.records_sampled_out(), 6u);
  submit("resource_exhausted", false);  // failed: always kept
  submit("ok", true);                   // slow: always kept
  EXPECT_EQ(log.records_logged(), 5u);
  EXPECT_EQ(log.records_sampled_out(), 6u);
  EXPECT_EQ(log.slow_queries(), 1u);
}

TEST(QueryLogTest, FileWriterEmitsOneParsableLinePerRecord) {
  std::string path = TempPath("query_log_file_test.jsonl");
  std::remove(path.c_str());
  {
    QueryLogOptions options;
    options.path = path;
    QueryLog log(options);
    ASSERT_TRUE(log.ok()) << log.error();
    for (uint64_t i = 1; i <= 5; ++i) {
      QueryLogRecord r;
      r.correlation_id = i;
      r.query = "q" + std::to_string(i);
      log.Record(std::move(r));
    }
  }  // destructor closes the file
  std::vector<std::string> lines = FileLines(path);
  ASSERT_EQ(lines.size(), 5u);
  for (size_t i = 0; i < lines.size(); ++i) {
    QueryLogRecord back;
    std::string error;
    ASSERT_TRUE(ParseQueryLogLine(lines[i], &back, &error)) << error;
    EXPECT_EQ(back.correlation_id, i + 1);
  }
  std::remove(path.c_str());
}

TEST(QueryLogTest, UnopenableFileReportsErrorButRingStillWorks) {
  QueryLogOptions options;
  options.path = "/nonexistent-dir-for-rdfql-test/q.jsonl";
  QueryLog log(options);
  EXPECT_FALSE(log.ok());
  EXPECT_FALSE(log.error().empty());
  QueryLogRecord r;
  r.correlation_id = 1;
  log.Record(std::move(r));
  EXPECT_EQ(log.Snapshot().size(), 1u);
}

TEST(QueryLogTest, QueryTextTruncatedToMaxBytes) {
  QueryLogOptions options;
  options.max_query_bytes = 16;
  QueryLog log(options);
  QueryLogRecord r;
  r.query = std::string(1000, 'x');
  log.Record(std::move(r));
  EXPECT_EQ(log.Snapshot()[0].query.size(), 16u);
}

// --- Engine integration: one record per query, typed outcomes ---

TEST(EngineQueryLogTest, OkQueryProducesOneFullRecord) {
  Engine engine;
  ASSERT_TRUE(
      engine.LoadGraphText("g", "a p b .\nb q c .\na p c .").ok());
  QueryLog log;
  engine.SetQueryLog(&log);
  const std::string query = "(?x p ?y) AND (?y q ?z)";
  Result<MappingSet> r = engine.Query("g", query);
  ASSERT_TRUE(r.ok());
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const QueryLogRecord& rec = snap[0];
  EXPECT_EQ(rec.correlation_id, 1u);
  EXPECT_EQ(rec.query_hash, StableQueryHash(query));
  EXPECT_EQ(rec.graph, "g");
  EXPECT_EQ(rec.query, query);
  EXPECT_EQ(rec.fragment, "SPARQL[A]");
  EXPECT_EQ(rec.outcome, "ok");
  EXPECT_EQ(rec.rows_out, r->size());
  EXPECT_GT(rec.parse_ns, 0u);
  EXPECT_GT(rec.eval_ns, 0u);
  EXPECT_GT(rec.unix_ms, 0u);
  EXPECT_GT(rec.total_mappings, 0u);
  EXPECT_GT(rec.peak_mappings, 0u);
  EXPECT_GT(rec.peak_bytes, 0u);
  EXPECT_FALSE(rec.slow);
  engine.SetQueryLog(nullptr);
}

TEST(EngineQueryLogTest, DetachedLogReceivesNothing) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  QueryLog log;
  engine.SetQueryLog(&log);
  engine.SetQueryLog(nullptr);
  ASSERT_TRUE(engine.Query("g", "(?x p ?y)").ok());
  EXPECT_EQ(log.records_seen(), 0u);
}

TEST(EngineQueryLogTest, PerQueryOverrideWinsOverEngineDefault) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  QueryLog default_log;
  QueryLog override_log;
  engine.SetQueryLog(&default_log);
  EvalOptions options;
  options.query_log = &override_log;
  ASSERT_TRUE(engine.Query("g", "(?x p ?y)", options).ok());
  EXPECT_EQ(default_log.records_seen(), 0u);
  EXPECT_EQ(override_log.records_seen(), 1u);
  engine.SetQueryLog(nullptr);
}

TEST(EngineQueryLogTest, TypedOutcomesAreRecorded) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  QueryLog log;
  engine.SetQueryLog(&log);

  EXPECT_FALSE(engine.Query("g", "(?x p").ok());  // parse_error
  EXPECT_FALSE(engine.Query("nosuch", "(?x p ?y)").ok());  // not_found
  {
    EvalOptions options;
    options.limits.max_live_mappings = 1000;
    EXPECT_FALSE(engine.Query("g", kBlowupQuery, options).ok());
  }
  {
    EvalOptions options;
    options.deadline = Deadline::AfterMs(0);
    EXPECT_FALSE(engine.Query("g", kBlowupQuery, options).ok());
  }
  {
    CancellationToken token;
    token.Cancel(Status::Cancelled("caller aborted"));
    EvalOptions options;
    options.cancel = &token;
    EXPECT_FALSE(engine.Query("g", kBlowupQuery, options).ok());
  }

  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap[0].outcome, "parse_error");
  EXPECT_TRUE(snap[0].fragment.empty());
  EXPECT_FALSE(snap[0].error.empty());
  EXPECT_EQ(snap[1].outcome, "not_found");
  EXPECT_EQ(snap[2].outcome, "resource_exhausted");
  EXPECT_EQ(snap[3].outcome, "deadline_exceeded");
  EXPECT_EQ(snap[4].outcome, "cancelled");
  // Rejected queries still carry identity and classification.
  EXPECT_EQ(snap[2].fragment, "SPARQL[A]");
  EXPECT_EQ(snap[2].query_hash, StableQueryHash(kBlowupQuery));
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].correlation_id, i + 1);
  }
  engine.SetQueryLog(nullptr);
}

TEST(EngineQueryLogTest, SlowQueryCapturesExplainAnalyze) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(300)).ok());
  QueryLogOptions options;
  options.slow_ms = 1;  // the 300x300 cross product takes well over 1ms
  QueryLog log(options);
  engine.SetQueryLog(&log);
  ASSERT_TRUE(engine.Query("g", kBlowupQuery).ok());
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].slow);
  EXPECT_EQ(log.slow_queries(), 1u);
  ASSERT_FALSE(snap[0].explain.empty());
  EXPECT_NE(snap[0].explain.find("AND"), std::string::npos);
  engine.SetQueryLog(nullptr);
}

TEST(EngineQueryLogTest, SlowExplainCaptureCanBeDisabled) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(300)).ok());
  QueryLogOptions options;
  options.slow_ms = 1;
  options.explain_slow = false;
  QueryLog log(options);
  engine.SetQueryLog(&log);
  ASSERT_TRUE(engine.Query("g", kBlowupQuery).ok());
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].slow);
  EXPECT_TRUE(snap[0].explain.empty());
  engine.SetQueryLog(nullptr);
}

TEST(EngineQueryLogTest, QueryExplainedLogsAndStampsCorrelationId) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\nb q c .").ok());
  QueryLog log;
  engine.SetQueryLog(&log);
  Result<QueryExplanation> out = engine.QueryExplained("g", "(?x p ?y)");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::vector<QueryLogRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(out->correlation_id, snap[0].correlation_id);
  // The id rides on the plan root, so a log record joins with its trace.
  ASSERT_NE(out->explanation.plan, nullptr);
  bool found = false;
  for (const auto& [name, value] : out->explanation.plan->counters) {
    if (name == "correlation_id") {
      EXPECT_EQ(value, out->correlation_id);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  engine.SetQueryLog(nullptr);
}

// --- Concurrency: bytes from concurrent writers never interleave ---

TEST(QueryLogTest, ConcurrentWritersProduceExactlyOneLinePerRecord) {
  for (int threads : {2, 4, 8}) {
    std::string path = TempPath("query_log_concurrent_" +
                                std::to_string(threads) + ".jsonl");
    std::remove(path.c_str());
    constexpr size_t kPerThread = 200;
    const size_t total = static_cast<size_t>(threads) * kPerThread;
    {
      QueryLogOptions options;
      options.path = path;
      options.ring_capacity = total;
      QueryLog log(options);
      ASSERT_TRUE(log.ok()) << log.error();
      ThreadPool pool(threads);
      pool.ParallelFor(total, [&log](size_t i) {
        QueryLogRecord r;
        r.correlation_id = i + 1;
        r.query = "(?x p" + std::to_string(i) + " ?y)";
        r.fragment = "SPARQL[triple]";
        r.eval_ns = i;
        log.Record(std::move(r));
      });
      EXPECT_EQ(log.records_seen(), total);
      EXPECT_EQ(log.records_logged(), total);
    }
    std::vector<std::string> lines = FileLines(path);
    ASSERT_EQ(lines.size(), total) << "threads=" << threads;
    uint64_t id_sum = 0;
    for (const std::string& line : lines) {
      QueryLogRecord back;
      std::string error;
      ASSERT_TRUE(ParseQueryLogLine(line, &back, &error))
          << "threads=" << threads << ": " << error;
      id_sum += back.correlation_id;
    }
    // Every record present exactly once (ids are a permutation of 1..N).
    EXPECT_EQ(id_sum, static_cast<uint64_t>(total) * (total + 1) / 2);
    std::remove(path.c_str());
  }
}

// --- The workload criterion: N queries -> N records, and the offline
// aggregator reproduces the engine's own latency percentiles ---

TEST(EngineQueryLogTest, ThousandQueriesYieldThousandRecords) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(
      "g", "Juan was_born_in Chile .\nAna was_born_in Chile .\n"
           "Juan email juan@x .").ok());
  std::string path = TempPath("query_log_thousand.jsonl");
  std::remove(path.c_str());
  QueryLogOptions options;
  options.path = path;
  options.ring_capacity = 1000;
  QueryLog log(options);
  ASSERT_TRUE(log.ok()) << log.error();
  engine.SetQueryLog(&log);
  engine.EnableMetrics();
  const std::string queries[] = {
      "(?x was_born_in ?c)",
      "(?x was_born_in ?c) OPT (?x email ?e)",
  };
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine.Query("g", queries[i % 2]).ok());
  }
  EXPECT_EQ(log.records_seen(), 1000u);
  EXPECT_EQ(log.records_logged(), 1000u);

  std::vector<std::string> lines = FileLines(path);
  ASSERT_EQ(lines.size(), 1000u);
  QueryLogAggregator agg;
  for (const std::string& line : lines) {
    QueryLogRecord back;
    std::string error;
    ASSERT_TRUE(ParseQueryLogLine(line, &back, &error)) << error;
    agg.Add(back);
  }
  EXPECT_EQ(agg.records(), 1000u);
  EXPECT_EQ(agg.outcomes().at("ok"), 1000u);
  EXPECT_EQ(agg.FragmentCount(QueryLogAggregator::kAllFragments), 1000u);
  EXPECT_EQ(agg.FragmentCount("SPARQL[triple]"), 500u);
  EXPECT_EQ(agg.FragmentCount("SPARQL[O]"), 500u);

  // The offline aggregator and the engine's own histogram were fed the
  // same 1000 eval_ns figures, so the percentiles must match exactly.
  RegistrySnapshot snap = engine.MetricsSnapshot();
  const RegistrySnapshot::HistogramData& hist =
      snap.histograms.at("engine.eval_ns");
  ASSERT_EQ(hist.count, 1000u);
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(
        agg.FragmentPercentile(QueryLogAggregator::kAllFragments, q),
        hist.Percentile(q))
        << "q=" << q;
  }
  engine.SetQueryLog(nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfql
