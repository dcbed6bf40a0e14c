// One query, one record: every entry point runs the same lifecycle, so with
// every sink attached (metrics, a query log, live monitoring and a
// result-caching QueryCache) each call leaves exactly one trace in each.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"

namespace rdfql {
namespace {

constexpr char kGraphText[] = "a p b .\nb q c .\nd p e .\nf p b .";
constexpr char kQuery[] = "(?x p ?y) OPT (?y q ?z)";

// The five text entry points LifecycleRig::Call runs.
enum class Entry { kQuery, kJson, kCsv, kAsk, kExplained };
constexpr Entry kEntries[] = {Entry::kQuery, Entry::kJson, Entry::kCsv,
                              Entry::kAsk, Entry::kExplained};

class LifecycleRig {
 public:
  explicit LifecycleRig(size_t log_capacity)
      : log_(LogOptions(log_capacity)) {
    EXPECT_TRUE(engine_.LoadGraphText("g", kGraphText).ok());
    engine_.EnableMetrics();
    engine_.SetQueryLog(&log_);
    engine_.EnableLiveMonitoring(true);
    engine_.SetQueryCache(&cache_);
  }
  ~LifecycleRig() {
    engine_.SetQueryLog(nullptr);
    engine_.SetQueryCache(nullptr);
  }

  // Runs `kQuery` through one entry point; false on any error.
  bool Call(Entry entry) {
    switch (entry) {
      case Entry::kQuery:
        return engine_.Query("g", kQuery).ok();
      case Entry::kJson:
        return engine_.QueryJson("g", kQuery).ok();
      case Entry::kCsv:
        return engine_.QueryCsv("g", kQuery).ok();
      case Entry::kAsk: {
        Result<bool> r = engine_.Ask("g", kQuery);
        return r.ok() && *r;
      }
      case Entry::kExplained:
        return engine_.QueryExplained("g", kQuery).ok();
    }
    return false;
  }

  uint64_t Queries() {
    return engine_.MetricsSnapshot().counters["engine.queries"];
  }
  uint64_t EvalObservations() {
    RegistrySnapshot snap = engine_.MetricsSnapshot();
    auto it = snap.histograms.find("engine.eval_ns");
    return it == snap.histograms.end() ? 0 : it->second.count;
  }
  uint64_t Registrations() { return engine_.inflight()->registered_total(); }

  Engine& engine() { return engine_; }
  QueryLog& log() { return log_; }

 private:
  static QueryLogOptions LogOptions(size_t capacity) {
    QueryLogOptions options;  // ring only: no path
    options.ring_capacity = capacity;
    return options;
  }

  Engine engine_;
  QueryLog log_;
  QueryCache cache_{QueryCacheOptions{}};
};

TEST(QueryLifecycleTest, EveryEntryPointLeavesOneRecordInEverySink) {
  LifecycleRig rig(64);
  // The cache token each entry point records today: the first call misses
  // and stores, the three readers after it hit the stored answer, and
  // EXPLAIN (which always evaluates) reuses only the cached plan.
  const char* want_cache[] = {"miss", "result_hit", "result_hit",
                              "result_hit", "plan_hit"};
  for (size_t i = 0; i < std::size(kEntries); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    ASSERT_TRUE(rig.Call(kEntries[i]));
    EXPECT_EQ(rig.log().Snapshot().size(), i + 1);
    EXPECT_EQ(rig.Queries(), i + 1);
    EXPECT_EQ(rig.EvalObservations(), i + 1);
    EXPECT_EQ(rig.Registrations(), i + 1);
  }
  std::vector<QueryLogRecord> records = rig.log().Snapshot();
  ASSERT_EQ(records.size(), std::size(kEntries));
  for (size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(records[i].outcome, "ok");
    EXPECT_EQ(records[i].query_hash, StableQueryHash(kQuery));
    EXPECT_EQ(records[i].fragment, "SPARQL[O]");
    EXPECT_EQ(records[i].rows_out, 3u);
    EXPECT_EQ(records[i].cache, want_cache[i]);
    EXPECT_EQ(records[i].correlation_id, i + 1);
  }
  EXPECT_TRUE(rig.engine().InflightSnapshot().queries.empty());

  // Eval(pattern) registers and is timed, but writes no record and counts
  // no engine.queries: it has no query text to identify.
  Result<PatternPtr> pattern = rig.engine().Parse(kQuery);
  ASSERT_TRUE(pattern.ok());
  Result<MappingSet> evaluated = rig.engine().Eval("g", *pattern);
  ASSERT_TRUE(evaluated.ok());
  EXPECT_EQ(evaluated->size(), 3u);
  EXPECT_EQ(rig.log().Snapshot().size(), std::size(kEntries));
  EXPECT_EQ(rig.Queries(), std::size(kEntries));
  EXPECT_EQ(rig.EvalObservations(), std::size(kEntries) + 1);
  EXPECT_EQ(rig.Registrations(), std::size(kEntries) + 1);
}

class QueryLifecycleThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryLifecycleThreadsTest, TotalsMatchTheCallsMade) {
  const int threads = GetParam();
  constexpr int kRounds = 20;
  const size_t calls =
      static_cast<size_t>(threads) * kRounds * std::size(kEntries);
  LifecycleRig rig(calls);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&rig, &failures, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < std::size(kEntries); ++i) {
          // Rotate the order per thread so the entry points interleave.
          Entry entry = kEntries[(i + static_cast<size_t>(t)) %
                                 std::size(kEntries)];
          if (!rig.Call(entry)) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rig.log().records_seen(), calls);
  EXPECT_EQ(rig.Queries(), calls);
  EXPECT_EQ(rig.EvalObservations(), calls);
  EXPECT_EQ(rig.Registrations(), calls);
  EXPECT_TRUE(rig.engine().InflightSnapshot().queries.empty());
  for (const QueryLogRecord& r : rig.log().Snapshot()) {
    EXPECT_EQ(r.outcome, "ok");
    EXPECT_EQ(r.query_hash, StableQueryHash(kQuery));
    EXPECT_EQ(r.fragment, "SPARQL[O]");
    EXPECT_EQ(r.rows_out, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, QueryLifecycleThreadsTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace rdfql
