// The query cache's correctness contract: canonicalization and hash
// stability, sharded-LRU bookkeeping, byte budgets, and — the part that
// matters — bit-for-bit equality of cached and uncached evaluation across
// join strategies, epoch invalidation after graph mutation, and sanity
// under concurrent hit/miss/eviction races (run under TSan by
// scripts/tsan_check.sh).

#include "core/query_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/result_io.h"
#include "core/engine.h"
#include "obs/openmetrics.h"
#include "obs/query_log.h"

namespace rdfql {
namespace {

// --- Canonicalization (the keying contract of docs/observability.md) ---

TEST(CanonicalizeTest, IdentityOnAlreadyCanonicalText) {
  EXPECT_EQ(CanonicalizeQueryText("(?x p ?y)"), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText(""), "");
  EXPECT_EQ(CanonicalizeQueryText("a"), "a");
}

TEST(CanonicalizeTest, CollapsesWhitespaceRuns) {
  EXPECT_EQ(CanonicalizeQueryText("(?x   p \t ?y)"), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText("(?x p\n?y)"), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText("  (?x p ?y)  "), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText("\t\n"), "");
}

TEST(CanonicalizeTest, StripsComments) {
  EXPECT_EQ(CanonicalizeQueryText("(?x p ?y) # trailing"), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText("# leading\n(?x p ?y)"), "(?x p ?y)");
  EXPECT_EQ(CanonicalizeQueryText("(?x p ?y)\n# only a comment"),
            "(?x p ?y)");
}

TEST(CanonicalizeTest, PreservesIriAndStringSpans) {
  // Inside <...> and "..." every byte is significant: two IRIs (or two
  // literals) differing only in internal spacing are different queries.
  EXPECT_EQ(CanonicalizeQueryText("(?x <http://e/a  b> ?y)"),
            "(?x <http://e/a  b> ?y)");
  EXPECT_EQ(CanonicalizeQueryText("(?x p \"a  #b\")"), "(?x p \"a  #b\")");
  EXPECT_NE(CanonicalizeQueryText("(?x p \"a b\")"),
            CanonicalizeQueryText("(?x p \"a  b\")"));
}

TEST(CanonicalizeTest, Idempotent) {
  for (const char* text :
       {"  (?x   p ?y) # c", "(?x <i  ri> \"l  it\")", "", "   # c\n"}) {
    std::string once = CanonicalizeQueryText(text);
    EXPECT_EQ(CanonicalizeQueryText(once), once) << text;
  }
}

TEST(StableQueryHashTest, InvariantUnderReformatting) {
  uint64_t want = StableQueryHash("(?x p ?y)");
  EXPECT_EQ(StableQueryHash("  (?x \t p \n ?y)  "), want);
  EXPECT_EQ(StableQueryHash("(?x p ?y) # comment"), want);
  EXPECT_NE(StableQueryHash("(?x p ?z)"), want);
}

TEST(StableQueryHashTest, ExactValueRegression) {
  // The hash-stability contract (docs/observability.md): these values are
  // frozen — query logs, baselines and dashboards key on them.
  EXPECT_EQ(StableQueryHash(""), 14695981039346656037ull);
  EXPECT_EQ(StableQueryHash("a"), 12638187200555641996ull);
  EXPECT_EQ(StableQueryHash("   a  "), 12638187200555641996ull);
}

// --- QueryCache unit behavior ---

CachedPlanPtr MakePlan(const std::string& canonical) {
  auto plan = std::make_shared<CachedPlan>();
  plan->canonical_query = canonical;
  return plan;
}

TEST(QueryCacheTest, PlanMissThenHit) {
  QueryCache cache{QueryCacheOptions{}};
  EXPECT_EQ(cache.GetPlan(1, "q"), nullptr);
  cache.PutPlan(1, MakePlan("q"));
  CachedPlanPtr hit = cache.GetPlan(1, "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->canonical_query, "q");
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.plan_entries, 1u);
}

TEST(QueryCacheTest, HashCollisionIsAMissNeverAWrongAnswer) {
  QueryCache cache{QueryCacheOptions{}};
  cache.PutPlan(7, MakePlan("the real query"));
  // Same hash, different canonical text: the stored text disagrees, so the
  // lookup must refuse to serve it.
  EXPECT_EQ(cache.GetPlan(7, "a colliding query"), nullptr);
  EXPECT_EQ(cache.Stats().plan_misses, 1u);
}

TEST(QueryCacheTest, PlanLruEvictsColdEntriesKeepsHotOnes) {
  QueryCacheOptions options;
  options.plan_capacity = 32;  // 2 per shard
  QueryCache cache(options);
  const uint64_t kHot = 999'999;
  cache.PutPlan(kHot, MakePlan("hot"));
  for (uint64_t h = 0; h < 64; ++h) {
    cache.PutPlan(h, MakePlan("q" + std::to_string(h)));
    // Touching the hot entry after every insert keeps it at its shard's
    // MRU end, so whatever the flood evicts, it is never the hot one.
    ASSERT_NE(cache.GetPlan(kHot, "hot"), nullptr) << "after insert " << h;
  }
  QueryCacheStats s = cache.Stats();
  EXPECT_GT(s.plan_evictions, 0u);
  EXPECT_LE(s.plan_entries, 32u);
}

MappingSet SmallResult() {
  Engine engine;
  EXPECT_TRUE(engine.LoadGraphText("g", "a p b .\nc p d .").ok());
  Result<MappingSet> r = engine.Query("g", "(?x p ?y)");
  EXPECT_TRUE(r.ok());
  return std::move(r.value());
}

ResultCacheKey KeyFor(uint64_t hash) {
  return ResultCacheKey{hash, "g", 1, 0};
}

std::shared_ptr<const MappingSet> Shared(const MappingSet& result) {
  return std::make_shared<const MappingSet>(result);
}

TEST(QueryCacheTest, ResultMissStoreHitRoundTrip) {
  QueryCache cache{QueryCacheOptions{}};
  MappingSet result = SmallResult();
  EXPECT_EQ(cache.GetResult(KeyFor(1), "q"), nullptr);
  cache.PutResult(KeyFor(1), "q", Shared(result));
  std::shared_ptr<const MappingSet> hit = cache.GetResult(KeyFor(1), "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, result);
  EXPECT_EQ(hit->mappings(), result.mappings());  // insertion order too
}

TEST(QueryCacheTest, ResultKeyFieldsAllMatter) {
  QueryCache cache{QueryCacheOptions{}};
  MappingSet result = SmallResult();
  cache.PutResult(ResultCacheKey{1, "g", 1, 0}, "q", Shared(result));
  EXPECT_EQ(cache.GetResult(ResultCacheKey{2, "g", 1, 0}, "q"), nullptr);
  EXPECT_EQ(cache.GetResult(ResultCacheKey{1, "h", 1, 0}, "q"), nullptr);
  EXPECT_EQ(cache.GetResult(ResultCacheKey{1, "g", 2, 0}, "q"), nullptr);
  EXPECT_EQ(cache.GetResult(ResultCacheKey{1, "g", 1, 9}, "q"), nullptr);
  EXPECT_NE(cache.GetResult(ResultCacheKey{1, "g", 1, 0}, "q"), nullptr);
}

// Every write moves the graph's epoch and supersedes every answer cached
// for it, so a query keeps one slot: each newer answer replaces the last
// instead of waiting for the LRU to push it out.
TEST(QueryCacheTest, NewerEpochReplacesTheSlotInPlace) {
  MappingSet result = SmallResult();
  QueryCache cache{QueryCacheOptions{}};
  for (uint64_t epoch = 1; epoch <= 100; ++epoch) {
    cache.PutResult(ResultCacheKey{1, "g", epoch, 0}, "q", Shared(result));
  }
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_entries, 1u);
  EXPECT_EQ(s.result_evictions, 0u);
  EXPECT_EQ(s.result_bytes, result.ApproxBytes());
  EXPECT_EQ(cache.GetResult(ResultCacheKey{1, "g", 99, 0}, "q"), nullptr);
  EXPECT_NE(cache.GetResult(ResultCacheKey{1, "g", 100, 0}, "q"), nullptr);
}

TEST(QueryCacheTest, ResultByteBudgetEvicts) {
  MappingSet result = SmallResult();
  size_t entry_bytes = result.ApproxBytes();
  ASSERT_GT(entry_bytes, 0u);
  QueryCacheOptions options;
  // Room for ~2 entries per shard; flooding one hash-spread of keys must
  // stay under the total budget by evicting.
  options.result_max_bytes = entry_bytes * 2 * kQueryCacheShards;
  options.result_entry_max_bytes = entry_bytes;
  QueryCache cache(options);
  for (uint64_t h = 0; h < 128; ++h) {
    cache.PutResult(KeyFor(h), "q" + std::to_string(h), Shared(result));
  }
  QueryCacheStats s = cache.Stats();
  EXPECT_GT(s.result_evictions, 0u);
  EXPECT_LE(s.result_bytes, options.result_max_bytes);
  EXPECT_EQ(s.result_oversize, 0u);
}

TEST(QueryCacheTest, OversizeResultIsRejectedNotStored) {
  MappingSet result = SmallResult();
  QueryCacheOptions options;
  options.result_entry_max_bytes = 1;  // everything real is oversize
  QueryCache cache(options);
  cache.PutResult(KeyFor(1), "q", Shared(result));
  EXPECT_EQ(cache.GetResult(KeyFor(1), "q"), nullptr);
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_oversize, 1u);
  EXPECT_EQ(s.result_entries, 0u);
}

TEST(QueryCacheTest, ClearDropsEntriesKeepsCounters) {
  QueryCache cache{QueryCacheOptions{}};
  cache.PutPlan(1, MakePlan("q"));
  cache.PutResult(KeyFor(1), "q", Shared(SmallResult()));
  ASSERT_NE(cache.GetPlan(1, "q"), nullptr);
  cache.Clear();
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.plan_entries, 0u);
  EXPECT_EQ(s.result_entries, 0u);
  EXPECT_EQ(s.result_bytes, 0u);
  EXPECT_EQ(s.plan_hits, 1u);  // history survives Clear()
  EXPECT_EQ(cache.GetPlan(1, "q"), nullptr);
}

// --- Engine integration ---

constexpr char kGraphText[] =
    "juan born chile .\njuan email jp .\nana born chile .\n"
    "ana knows juan .\npedro born peru .";
constexpr char kQuery[] = "(?x born chile) OPT (?x email ?e)";

TEST(EngineCacheTest, MissThenHitServesIdenticalResult) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  Result<MappingSet> first = engine.Query("g", kQuery);
  ASSERT_TRUE(first.ok());
  Result<MappingSet> second = engine.Query("g", kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->mappings(), second->mappings());
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_misses, 1u);
  EXPECT_EQ(s.result_hits, 1u);
}

TEST(EngineCacheTest, WhitespaceVariantsShareOneEntry) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  ASSERT_TRUE(engine.Query("g", "(?x born chile)").ok());
  ASSERT_TRUE(engine.Query("g", "  (?x   born\tchile) # same").ok());
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_misses, 1u);
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_entries, 1u);
}

TEST(EngineCacheTest, PerQueryOffBypassesWholesale) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  EvalOptions off;
  off.use_plan_cache = CacheMode::kOff;
  off.use_result_cache = CacheMode::kOff;
  ASSERT_TRUE(engine.Query("g", kQuery, off).ok());
  ASSERT_TRUE(engine.Query("g", kQuery, off).ok());
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.bypasses, 2u);
  EXPECT_EQ(s.plan_entries, 0u);
  EXPECT_EQ(s.result_entries, 0u);
  EXPECT_EQ(s.hits() + s.misses(), 0u);
}

TEST(EngineCacheTest, PlanOnlyCacheSkipsReparseOnly) {
  Engine engine;
  QueryCacheOptions options;
  options.result_max_bytes = 0;  // plan side only
  QueryCache cache(options);
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  Result<MappingSet> first = engine.Query("g", kQuery);
  Result<MappingSet> second = engine.Query("g", kQuery);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->mappings(), second->mappings());
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.result_hits + s.result_misses, 0u);
}

void ExpectSamePlan(const PlanNode& want, const PlanNode& got,
                    const std::string& path) {
  EXPECT_EQ(want.label, got.label) << "at " << path;
  EXPECT_EQ(want.cardinality, got.cardinality) << "at " << path;
  ASSERT_EQ(want.counters.size(), got.counters.size()) << "at " << path;
  for (size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(want.counters[i], got.counters[i]) << "at " << path;
  }
  ASSERT_EQ(want.children.size(), got.children.size()) << "at " << path;
  for (size_t i = 0; i < want.children.size(); ++i) {
    ExpectSamePlan(*want.children[i], *got.children[i],
                   path + "/" + std::to_string(i));
  }
}

// The headline acceptance criterion: for every join strategy, evaluating
// with the cache (cold store, then warm hit) is bit-for-bit the evaluation
// without it — same mappings in the same insertion order, and EXPLAIN
// reports the same instrumented plan.
TEST(EngineCacheTest, CachedEqualsUncachedAcrossJoinStrategies) {
  for (EvalOptions::Join join :
       {EvalOptions::Join::kHash, EvalOptions::Join::kNestedLoop,
        EvalOptions::Join::kIndexNestedLoop}) {
    Engine uncached;
    ASSERT_TRUE(uncached.LoadGraphText("g", kGraphText).ok());
    Engine cached;
    QueryCache cache{QueryCacheOptions{}};
    cached.SetQueryCache(&cache);
    ASSERT_TRUE(cached.LoadGraphText("g", kGraphText).ok());
    EvalOptions options;
    options.join = join;
    Result<MappingSet> want = uncached.Query("g", kQuery, options);
    ASSERT_TRUE(want.ok());
    Result<MappingSet> cold = cached.Query("g", kQuery, options);
    Result<MappingSet> warm = cached.Query("g", kQuery, options);
    ASSERT_TRUE(cold.ok() && warm.ok());
    EXPECT_EQ(want->mappings(), cold->mappings());
    EXPECT_EQ(want->mappings(), warm->mappings());
    EXPECT_EQ(cache.Stats().result_hits, 1u);
    // EXPLAIN always evaluates live (it reports work, and a cache hit does
    // none), so its plan must match the uncached engine's exactly.
    Result<QueryExplanation> ewant =
        uncached.QueryExplained("g", kQuery, options);
    Result<QueryExplanation> egot =
        cached.QueryExplained("g", kQuery, options);
    ASSERT_TRUE(ewant.ok() && egot.ok());
    EXPECT_EQ(ewant->result().mappings(), egot->result().mappings());
    ASSERT_TRUE(ewant->explanation.plan != nullptr &&
                egot->explanation.plan != nullptr);
    ExpectSamePlan(*ewant->explanation.plan, *egot->explanation.plan,
                   "join");
  }
}

TEST(EngineCacheTest, GraphMutationInvalidatesViaEpoch) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", "a born chile .").ok());
  Result<MappingSet> before = engine.Query("g", "(?x born chile)");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 1u);
  ASSERT_TRUE(engine.Query("g", "(?x born chile)").ok());  // warm hit
  EXPECT_EQ(cache.Stats().result_hits, 1u);
  // Mutation bumps the epoch: the cached entry is silently stale-keyed and
  // the next evaluation must see the new triple.
  ASSERT_TRUE(engine.LoadGraphText("g", "b born chile .").ok());
  Result<MappingSet> after = engine.Query("g", "(?x born chile)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_hits, 1u);  // no stale hit after the insert
  EXPECT_EQ(s.result_misses, 2u);
  // The re-stored entry under the new epoch serves hits again.
  ASSERT_TRUE(engine.Query("g", "(?x born chile)").ok());
  EXPECT_EQ(cache.Stats().result_hits, 2u);
}

// Non-monotone operators are the reason the epoch keys the WHOLE graph
// state: under NS/MINUS an *insert* can shrink the answer, so serving any
// pre-mutation entry would be wrong in both directions.
TEST(EngineCacheTest, EpochInvalidationCoversNonMonotoneNs) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", "juan born chile .").ok());
  const char* ns_query =
      "NS((?x born chile) UNION ((?x born chile) AND (?x email ?e)))";
  Result<MappingSet> before = engine.Query("g", ns_query);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 1u);  // {?x=juan}, no email binding
  ASSERT_TRUE(engine.LoadGraphText("g", "juan email jp .").ok());
  Result<MappingSet> after = engine.Query("g", ns_query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  // The NS answer changed shape: the subsuming {?x, ?e} mapping replaced
  // the bare {?x} one. A stale cache hit would have returned `before`.
  EXPECT_NE(before->mappings(), after->mappings());
  EXPECT_EQ(after->mappings()[0].size(), 2u);
}

TEST(EngineCacheTest, ExplainStampsCacheNote) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  Result<QueryExplanation> no_cache = engine.QueryExplained("g", kQuery);
  ASSERT_TRUE(no_cache.ok());
  EXPECT_TRUE(no_cache->cache_note.empty());
  engine.SetQueryCache(&cache);
  Result<QueryExplanation> cold = engine.QueryExplained("g", kQuery);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->cache_note, "plan=miss result=live");
  EXPECT_NE(cold->ToString().find("cache: plan=miss result=live"),
            std::string::npos);
  Result<QueryExplanation> warm = engine.QueryExplained("g", kQuery);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_note, "plan=hit result=live");
  EvalOptions off;
  off.use_plan_cache = CacheMode::kOff;
  off.use_result_cache = CacheMode::kOff;
  Result<QueryExplanation> bypass = engine.QueryExplained("g", kQuery, off);
  ASSERT_TRUE(bypass.ok());
  EXPECT_EQ(bypass->cache_note, "bypass");
}

TEST(EngineCacheTest, QueryLogRecordsCacheOutcome) {
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  QueryLog log;  // ring only
  engine.SetQueryCache(&cache);
  engine.SetQueryLog(&log);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  ASSERT_TRUE(engine.Query("g", kQuery).ok());
  ASSERT_TRUE(engine.Query("g", kQuery).ok());
  EvalOptions off;
  off.use_plan_cache = CacheMode::kOff;
  off.use_result_cache = CacheMode::kOff;
  ASSERT_TRUE(engine.Query("g", kQuery, off).ok());
  std::vector<QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].cache, "miss");
  EXPECT_EQ(records[1].cache, "result_hit");
  EXPECT_EQ(records[2].cache, "bypass");
  engine.SetQueryLog(nullptr);
}

TEST(EngineCacheTest, MetricsExposeCacheCountersAndGauges) {
  Engine engine;
  engine.EnableMetrics();
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  EvalOptions off;
  off.use_plan_cache = CacheMode::kOff;
  off.use_result_cache = CacheMode::kOff;
  ASSERT_TRUE(engine.Query("g", kQuery).ok());
  ASSERT_TRUE(engine.Query("g", kQuery).ok());
  ASSERT_TRUE(engine.Query("g", kQuery, off).ok());
  RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.counters["engine.cache_hit"], 1u);
  // Cold run: one plan miss + one result miss fold into the shared
  // miss counter.
  EXPECT_EQ(snap.counters["engine.cache_miss"], 2u);
  EXPECT_EQ(snap.counters["engine.cache_bypass"], 1u);
  EXPECT_EQ(snap.gauges["engine.cache_plan_entries"], 1);
  EXPECT_EQ(snap.gauges["engine.cache_result_entries"], 1);
  EXPECT_GT(snap.gauges["engine.cache_result_bytes"], 0);
  std::string text = RenderOpenMetrics(snap);
  EXPECT_NE(text.find("engine_cache_hit_total 1"), std::string::npos);
  EXPECT_NE(text.find("engine_cache_bypass_total 1"), std::string::npos);
  EXPECT_NE(text.find("engine_cache_result_entries"), std::string::npos);
  std::string error;
  EXPECT_TRUE(LintOpenMetrics(text, &error)) << error;
}

// --- Concurrency: hit/miss/eviction races must neither crash nor ever
// serve a wrong answer. A tiny cache forces evictions mid-race. ---

class CacheRaceTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheRaceTest, ConcurrentMixedWorkloadStaysCorrect) {
  const int kThreads = GetParam();
  Engine engine;
  QueryCacheOptions options;
  options.plan_capacity = 16;  // 1 per shard: constant churn
  options.result_max_bytes = 1 << 16;
  QueryCache cache(options);
  ASSERT_TRUE(engine.LoadGraphText("g", kGraphText).ok());
  // Serial references, computed on the SAME engine before the cache is
  // attached (a second engine would intern TermIds in a different order,
  // and mapping equality is by id).
  const std::vector<std::string> repeated = {
      "(?x born chile)", kQuery, "(?x born ?c)", "(?x knows ?y)"};
  std::vector<MappingSet> want;
  for (const std::string& q : repeated) {
    Result<MappingSet> r = engine.Query("g", q);
    ASSERT_TRUE(r.ok());
    want.push_back(std::move(r.value()));
  }
  engine.SetQueryCache(&cache);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        // Repeat-heavy with a unique-query side channel: hits, misses and
        // evictions all race on the same shards.
        size_t qi = static_cast<size_t>(i) % repeated.size();
        Result<MappingSet> r = engine.Query("g", repeated[qi]);
        if (!r.ok() || r->mappings() != want[qi].mappings()) {
          failures.fetch_add(1);
        }
        Result<MappingSet> u = engine.Query(
            "g", "(?x unique_t" + std::to_string(t) + "_i" +
                     std::to_string(i) + " ?y)");
        if (!u.ok() || u->size() != 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  QueryCacheStats s = cache.Stats();
  // Every lookup resolved to a hit or a miss; nothing was double-counted.
  EXPECT_GT(s.result_hits, 0u);
  EXPECT_GT(s.plan_evictions, 0u);
  EXPECT_LE(s.plan_entries, 16u);
}

TEST_P(CacheRaceTest, EpochInvalidationBetweenConcurrentRounds) {
  // Engine queries are reads-only concurrent (the graph must not mutate
  // under in-flight evaluations), so inserts interleave BETWEEN rounds of
  // concurrent readers: every round races hit/miss/store on the cache, and
  // every round boundary forces an epoch invalidation the next round must
  // observe — a stale hit would report the previous round's size.
  const int kThreads = GetParam();
  Engine engine;
  QueryCache cache{QueryCacheOptions{}};
  engine.SetQueryCache(&cache);
  constexpr int kRounds = 4;
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(
        engine
            .LoadGraphText("g", "s" + std::to_string(round) + " p o" +
                                    std::to_string(round) + " .")
            .ok());
    const size_t want_size = static_cast<size_t>(round) + 1;
    // The serial answer as JSON, evaluated outside the engine and its
    // cache.
    Result<PatternPtr> pattern = engine.Parse("(?x p ?y)");
    ASSERT_TRUE(pattern.ok());
    const std::string want_json = WriteResultsJson(
        EvalPattern(**engine.GetGraph("g"), *pattern), *engine.dict());
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&] {
        // QueryJson serializes the shared cached set in place, racing the
        // other readers and the slot replacement of the round's first
        // store.
        for (int i = 0; i < 20; ++i) {
          if (i % 2 == 0) {
            Result<MappingSet> r = engine.Query("g", "(?x p ?y)");
            if (!r.ok() || r->size() != want_size) bad.fetch_add(1);
          } else {
            Result<std::string> r = engine.QueryJson("g", "(?x p ?y)");
            if (!r.ok() || *r != want_json) bad.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& r : readers) r.join();
  }
  EXPECT_EQ(bad.load(), 0);
  QueryCacheStats s = cache.Stats();
  // Each round's answer replaced the previous round's in the one slot.
  EXPECT_EQ(s.result_entries, 1u);
  // At least one miss per epoch (several threads may miss concurrently
  // before the first store lands — that's the race under test), and every
  // lookup resolved to exactly one of hit or miss.
  const uint64_t lookups = static_cast<uint64_t>(kRounds) * kThreads * 20;
  EXPECT_GE(s.result_misses, static_cast<uint64_t>(kRounds));
  EXPECT_GT(s.result_hits, 0u);
  EXPECT_EQ(s.result_hits + s.result_misses, lookups);
}

INSTANTIATE_TEST_SUITE_P(Threads, CacheRaceTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace rdfql
