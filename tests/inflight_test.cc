#include "obs/inflight.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "obs/query_log.h"
#include "util/status.h"

namespace rdfql {
namespace {

TEST(InflightRegistryTest, RegisterSnapshotUnregister) {
  InflightRegistry reg;
  InflightSlot* slot = reg.Register("g", "(?x p ?y)", 42);
  ASSERT_NE(slot, nullptr);
  slot->SetCorrelationId(7);
  slot->SetPhase(QueryPhase::kEvaluating);
  slot->SetFragment("SPARQL[A]");
  slot->SetThreads(4);

  InflightSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.queries.size(), 1u);
  const InflightQueryInfo& q = snap.queries[0];
  EXPECT_EQ(q.graph, "g");
  EXPECT_EQ(q.query, "(?x p ?y)");
  EXPECT_EQ(q.query_hash, 42u);
  EXPECT_EQ(q.correlation_id, 7u);
  EXPECT_EQ(q.phase, QueryPhase::kEvaluating);
  EXPECT_EQ(q.fragment, "SPARQL[A]");
  EXPECT_EQ(q.threads, 4);
  EXPECT_FALSE(q.watchdog_cancelled);
  EXPECT_EQ(reg.active(), 1u);
  EXPECT_EQ(reg.registered_total(), 1u);

  reg.Unregister(slot);
  EXPECT_EQ(reg.active(), 0u);
  EXPECT_TRUE(reg.Snapshot().queries.empty());
  // The cumulative total survives the unregistration.
  EXPECT_EQ(reg.registered_total(), 1u);

  // The table renders headers only when queries are in flight.
  EXPECT_NE(reg.Snapshot().ToText().find("in-flight: 0"), std::string::npos);
}

TEST(InflightRegistryTest, TruncatesStoredQueryText) {
  InflightRegistry reg;
  std::string longer(InflightRegistry::kMaxStoredQueryBytes + 100, 'x');
  InflightSlot* slot = reg.Register("g", longer, 1);
  ASSERT_NE(slot, nullptr);
  InflightSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.queries.size(), 1u);
  EXPECT_EQ(snap.queries[0].query.size(),
            InflightRegistry::kMaxStoredQueryBytes);
  reg.Unregister(slot);
}

TEST(InflightRegistryTest, WatchdogCancelRespectsGenerations) {
  InflightRegistry reg;
  InflightSlot* slot = reg.Register("g", "q1", 1);
  ASSERT_NE(slot, nullptr);
  InflightSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.queries.size(), 1u);
  size_t index = snap.queries[0].slot;
  uint64_t generation = snap.queries[0].generation;
  reg.Unregister(slot);

  // Stale (slot index, generation) from before the unregistration: the
  // cancel must refuse rather than hit whatever runs there now.
  EXPECT_FALSE(reg.WatchdogCancel(index, generation,
                                  Status::Cancelled("stale")));
  EXPECT_EQ(reg.watchdog_cancelled_total(), 0u);

  // Fresh registration: a matching generation cancels exactly once.
  InflightSlot* slot2 = reg.Register("g", "q2", 2);
  ASSERT_NE(slot2, nullptr);
  snap = reg.Snapshot();
  ASSERT_EQ(snap.queries.size(), 1u);
  EXPECT_TRUE(reg.WatchdogCancel(snap.queries[0].slot,
                                 snap.queries[0].generation,
                                 Status::Cancelled("too slow")));
  EXPECT_TRUE(slot2->watchdog_cancelled());
  ASSERT_NE(slot2->token(), nullptr);
  EXPECT_TRUE(slot2->token()->cancelled());
  EXPECT_EQ(slot2->token()->status().code(), StatusCode::kCancelled);
  // Idempotence: the second cancel of the same registration is a no-op.
  EXPECT_FALSE(reg.WatchdogCancel(snap.queries[0].slot,
                                  snap.queries[0].generation,
                                  Status::Cancelled("again")));
  EXPECT_EQ(reg.watchdog_cancelled_total(), 1u);
  reg.Unregister(slot2);
}

TEST(InflightRegistryTest, FullRegistryReturnsNull) {
  InflightRegistry reg;
  std::vector<InflightSlot*> slots;
  for (size_t i = 0; i < InflightRegistry::kMaxSlots; ++i) {
    InflightSlot* slot = reg.Register("g", "q", i);
    ASSERT_NE(slot, nullptr);
    slots.push_back(slot);
  }
  // Observability, not admission control: the overflow query runs
  // unmonitored instead of being refused.
  EXPECT_EQ(reg.Register("g", "overflow", 999), nullptr);
  EXPECT_EQ(reg.active(), InflightRegistry::kMaxSlots);
  for (InflightSlot* slot : slots) reg.Unregister(slot);
  EXPECT_EQ(reg.active(), 0u);
  EXPECT_NE(reg.Register("g", "q", 0), nullptr);
}

TEST(InflightScopeTest, NullRegistryIsANoOp) {
  InflightScope scope(nullptr, "g", "q", 1);
  EXPECT_EQ(scope.slot(), nullptr);
}

// --- Engine integration ---

class EngineInflightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string triples;
    for (int i = 0; i < 40; ++i) {
      triples += "s" + std::to_string(i) + " p o" + std::to_string(i) + " .\n";
    }
    ASSERT_TRUE(engine_.LoadGraphText("g", triples).ok());
  }

  Engine engine_;
};

TEST_F(EngineInflightTest, MonitoredResultsAreBitIdentical) {
  const std::string queries[] = {
      "(?x p ?y)",
      "((?x p ?y) AND (?a p ?b))",
      "(?x p ?y) OPT (?x p ?z)",
      "NS((?x p ?y) UNION ((?x p ?y) AND (?x p ?z)))",
  };
  for (const std::string& q : queries) {
    engine_.EnableLiveMonitoring(false);
    Result<MappingSet> off = engine_.Query("g", q);
    engine_.EnableLiveMonitoring(true);
    Result<MappingSet> on = engine_.Query("g", q);
    ASSERT_TRUE(off.ok()) << q;
    ASSERT_TRUE(on.ok()) << q;
    EXPECT_TRUE(*off == *on) << q;
  }
  EXPECT_EQ(engine_.inflight()->registered_total(), 4u);
  // Nothing left registered once the queries returned.
  EXPECT_TRUE(engine_.InflightSnapshot().queries.empty());
}

TEST_F(EngineInflightTest, EvalAndExplainedRegisterToo) {
  engine_.EnableLiveMonitoring(true);
  Result<PatternPtr> p = engine_.Parse("(?x p ?y)");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(engine_.Eval("g", *p).ok());
  ASSERT_TRUE(engine_.QueryExplained("g", "(?x p ?y)").ok());
  EXPECT_EQ(engine_.inflight()->registered_total(), 2u);
  EXPECT_TRUE(engine_.InflightSnapshot().queries.empty());
}

TEST_F(EngineInflightTest, ActiveGaugeAppearsInMetricsSnapshot) {
  engine_.EnableLiveMonitoring(true);
  ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  RegistrySnapshot snap = engine_.MetricsSnapshot();
  ASSERT_TRUE(snap.gauges.count("engine.queries_active"));
  EXPECT_EQ(snap.gauges.at("engine.queries_active"), 0);
  EXPECT_TRUE(snap.gauges.count("inflight.live_bytes"));
  EXPECT_TRUE(snap.gauges.count("inflight.live_mappings"));
}

// A query that cross-products enough rows to run for seconds: the watchdog
// (or the test) has ample time to observe and cancel it.
constexpr char kSlowQuery[] =
    "((?a p ?x) AND ((?b p ?y) AND ((?c p ?z) AND ((?d p ?w) AND "
    "(?e p ?v)))))";

TEST_F(EngineInflightTest, WatchdogCancelsARunningQuery) {
  QueryLog log;
  engine_.SetQueryLog(&log);
  engine_.EnableMetrics();
  engine_.EnableLiveMonitoring(true);

  Result<MappingSet> result = Status::Internal("not run");
  std::thread worker([&] { result = engine_.Query("g", kSlowQuery); });

  // Wait until the query is visibly evaluating, then cancel it the way the
  // watchdog does: by (slot, generation) through the registry.
  bool cancelled = false;
  for (int i = 0; i < 2000 && !cancelled; ++i) {
    InflightSnapshot snap = engine_.InflightSnapshot();
    for (const InflightQueryInfo& q : snap.queries) {
      if (q.phase != QueryPhase::kEvaluating) continue;
      cancelled = engine_.inflight()->WatchdogCancel(
          q.slot, q.generation, Status::Cancelled("watchdog: test budget"));
    }
    if (!cancelled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  worker.join();
  ASSERT_TRUE(cancelled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // The log shows the typed outcome, the registry and metrics both count it.
  std::vector<QueryLogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, "watchdog_cancelled");
  EXPECT_EQ(engine_.inflight()->watchdog_cancelled_total(), 1u);
  RegistrySnapshot snap = engine_.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("engine.queries_watchdog_cancelled"), 1u);
  EXPECT_EQ(snap.counters.at("engine.queries_cancelled"), 1u);
  engine_.SetQueryLog(nullptr);
}

class EngineInflightConcurrencyTest
    : public EngineInflightTest,
      public ::testing::WithParamInterface<int> {};

TEST_P(EngineInflightConcurrencyTest, SnapshotsStayConsistentUnderLoad) {
  const int kThreads = GetParam();
  engine_.EnableLiveMonitoring(true);
  MappingSet expected;
  {
    engine_.EnableLiveMonitoring(false);
    Result<MappingSet> r = engine_.Query("g", "((?x p ?y) AND (?a p ?b))");
    ASSERT_TRUE(r.ok());
    expected = std::move(r).value();
    engine_.EnableLiveMonitoring(true);
  }

  std::atomic<bool> failed{false};
  std::mutex reason_mu;
  std::string reason;
  auto fail = [&](const std::string& why) {
    failed.store(true);
    std::lock_guard<std::mutex> lock(reason_mu);
    if (reason.empty()) reason = why;
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Staggered starts so registrations and unregistrations overlap.
      std::this_thread::sleep_for(std::chrono::milliseconds(t));
      for (int i = 0; i < 20; ++i) {
        Result<MappingSet> r =
            engine_.Query("g", "((?x p ?y) AND (?a p ?b))");
        if (!r.ok()) {
          fail("query failed: " + r.status().ToString());
        } else if (!(*r == expected)) {
          fail("result mismatch");
        }
      }
    });
  }
  // Snapshot continuously while the workers churn: every row must be
  // internally consistent regardless of timing.
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      // The instantaneous occupancy is bounded by the worker count; the
      // snapshot's row count is not (the sweep is per-slot consistent, not
      // a barrier — a worker can re-register into a later slot mid-sweep).
      if (engine_.inflight()->active() > static_cast<size_t>(kThreads)) {
        fail("active() above worker count");
      }
      InflightSnapshot snap = engine_.InflightSnapshot();
      std::set<std::pair<size_t, uint64_t>> seen;
      for (const InflightQueryInfo& q : snap.queries) {
        if (!seen.insert({q.slot, q.generation}).second) {
          fail("duplicate (slot, generation) in one snapshot");
        }
        if (q.graph != "g") fail("bad graph: " + q.graph);
        if (q.query.empty()) fail("empty query text");
        if (q.generation == 0) fail("zero generation");
        if (q.phase > QueryPhase::kFinishing) fail("out-of-range phase");
      }
    }
  });
  for (std::thread& w : workers) w.join();
  done.store(true);
  observer.join();
  EXPECT_FALSE(failed.load()) << reason;
  // No policy tripped: every query must have completed, none cancelled.
  EXPECT_EQ(engine_.inflight()->watchdog_cancelled_total(), 0u);
  EXPECT_EQ(engine_.inflight()->active(), 0u);
  EXPECT_EQ(engine_.inflight()->registered_total(),
            static_cast<uint64_t>(kThreads) * 20);
}

TEST_P(EngineInflightConcurrencyTest, WatchdogCancelsOnlyOffenders) {
  const int kThreads = GetParam();
  QueryLog log;
  engine_.SetQueryLog(&log);
  engine_.EnableLiveMonitoring(true);

  // One offender (unbounded cross product) among well-behaved queries.
  Result<MappingSet> slow_result = Status::Internal("not run");
  std::thread offender([&] { slow_result = engine_.Query("g", kSlowQuery); });
  std::atomic<int> fast_failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        Result<MappingSet> r = engine_.Query("g", "(?x p ?y)");
        if (!r.ok()) fast_failures.fetch_add(1);
      }
    });
  }

  // Cancel only registrations that have been evaluating for >= 50ms: the
  // fast queries never qualify.
  bool cancelled = false;
  for (int i = 0; i < 2000 && !cancelled; ++i) {
    for (const InflightQueryInfo& q : engine_.InflightSnapshot().queries) {
      if (q.phase == QueryPhase::kEvaluating && q.wall_ns >= 50'000'000) {
        cancelled = engine_.inflight()->WatchdogCancel(
            q.slot, q.generation, Status::Cancelled("watchdog: offender"));
      }
    }
    if (!cancelled) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  offender.join();
  for (std::thread& w : workers) w.join();

  ASSERT_TRUE(cancelled);
  EXPECT_EQ(fast_failures.load(), 0);
  ASSERT_FALSE(slow_result.ok());
  EXPECT_EQ(slow_result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine_.inflight()->watchdog_cancelled_total(), 1u);
  size_t watchdog_outcomes = 0;
  for (const QueryLogRecord& r : log.Snapshot()) {
    if (r.outcome == "watchdog_cancelled") ++watchdog_outcomes;
  }
  EXPECT_EQ(watchdog_outcomes, 1u);
  engine_.SetQueryLog(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineInflightConcurrencyTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace rdfql
