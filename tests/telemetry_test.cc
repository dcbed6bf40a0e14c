#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "obs/query_log.h"
#include "util/status.h"

namespace rdfql {
namespace {

TEST(WatchdogPolicyTest, DisabledByDefault) {
  WatchdogPolicy policy;
  EXPECT_FALSE(policy.Enabled());
  EXPECT_FALSE(policy.For("SPARQL[A]").Enforced());
}

TEST(WatchdogPolicyTest, PerFragmentOverridesBeatDefaults) {
  WatchdogPolicy policy;
  policy.defaults.max_wall_ms = 5000;
  policy.per_fragment["NS-SPARQL"].max_wall_ms = 100;
  policy.per_fragment["NS-SPARQL"].max_live_bytes = 1 << 20;
  EXPECT_TRUE(policy.Enabled());
  EXPECT_EQ(policy.For("SPARQL[A]").max_wall_ms, 5000u);
  EXPECT_EQ(policy.For("SPARQL[A]").max_live_bytes, 0u);
  EXPECT_EQ(policy.For("NS-SPARQL").max_wall_ms, 100u);
  EXPECT_EQ(policy.For("NS-SPARQL").max_live_bytes, 1u << 20);
}

TEST(WatchdogPolicyTest, OverridesAloneEnableThePolicy) {
  WatchdogPolicy policy;
  policy.per_fragment["NS-SPARQL"].max_wall_ms = 100;
  EXPECT_TRUE(policy.Enabled());
  // Fragments without an override fall back to the (unenforced) defaults.
  EXPECT_FALSE(policy.For("SPARQL[A]").Enforced());
}

class TelemetryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string triples;
    for (int i = 0; i < 20; ++i) {
      triples += "s" + std::to_string(i) + " p o" + std::to_string(i) + " .\n";
    }
    ASSERT_TRUE(engine_.LoadGraphText("g", triples).ok());
    engine_.EnableMetrics();
  }

  Engine engine_;
};

TEST_F(TelemetryEngineTest, ManualTicksDiffCountersIntoWindows) {
  TelemetryOptions options;
  options.interval_ms = 0;  // no thread: the test drives every tick
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  EXPECT_TRUE(engine_.live_monitoring_enabled());
  ASSERT_NE(engine_.telemetry(), nullptr);

  // Second StartTelemetry while running must refuse.
  EXPECT_EQ(engine_.StartTelemetry(options).code(),
            StatusCode::kInvalidArgument);

  engine_.telemetry()->TickNow();  // idle window: diffs against creation
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  }
  engine_.telemetry()->TickNow();

  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  EXPECT_EQ(snap.ticks, 2u);
  EXPECT_EQ(snap.queries_total, 3u);
  EXPECT_EQ(snap.rejected_total, 0u);
  ASSERT_EQ(snap.windows.size(), 2u);
  EXPECT_EQ(snap.windows.front().queries, 0u);
  EXPECT_EQ(snap.windows.back().queries, 3u);
  EXPECT_EQ(snap.windows.back().eval_count, 3u);
  EXPECT_FALSE(snap.windows.back().eval_buckets.empty());
  EXPECT_GT(snap.eval_p50_ns, 0.0);
  EXPECT_GE(snap.eval_p99_ns, snap.eval_p50_ns);

  // Windows slide: only the newest kTelemetryWindows survive.
  for (size_t i = 0; i < kTelemetryWindows; ++i) {
    engine_.telemetry()->TickNow();
  }
  snap = engine_.telemetry()->Snapshot();
  EXPECT_EQ(snap.windows.size(), kTelemetryWindows);
  // The later (idle) windows saw no queries; the cumulative total stands.
  EXPECT_EQ(snap.windows.back().queries, 0u);
  EXPECT_EQ(snap.queries_total, 3u);

  engine_.StopTelemetry();
  EXPECT_EQ(engine_.telemetry(), nullptr);
  // Restarting after a stop is allowed.
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  engine_.StopTelemetry();
}

// Without alert rules the engine still hands the sampler a ring, sized
// from the tick alone, and drops it with the sampler.
TEST_F(TelemetryEngineTest, TelemetryOnlyEngineGetsARing) {
  EXPECT_EQ(engine_.history(), nullptr);
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  ASSERT_NE(engine_.history(), nullptr);
  const HistoryOptions& ring = engine_.history()->options();
  EXPECT_EQ(ring.fine_retention_ms, 2 * kTelemetryWindows * 1000);
  EXPECT_EQ(ring.coarse_retention_ms, 0u);
  EXPECT_TRUE(ring.jsonl_path.empty());
  engine_.telemetry()->TickNow();
  // The start baseline plus one sample per tick.
  EXPECT_EQ(engine_.history()->records(), 2u);
  engine_.StopTelemetry();
  EXPECT_EQ(engine_.history(), nullptr);

  options.interval_ms = 100;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  ASSERT_NE(engine_.history(), nullptr);
  EXPECT_EQ(engine_.history()->options().fine_retention_ms,
            2 * kTelemetryWindows * 100);
  engine_.StopTelemetry();

  // With rules installed, the sampler records into the rules' ring, which
  // outlives it.
  ASSERT_TRUE(engine_
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"q","agg":"delta",
                          "metric":"engine.queries","op":">","threshold":0,
                          "windows":["10s"]}]})")
                  .ok());
  MetricsHistory* rules_ring = engine_.history();
  ASSERT_NE(rules_ring, nullptr);
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  EXPECT_EQ(engine_.history(), rules_ring);
  engine_.StopTelemetry();
  EXPECT_EQ(engine_.history(), rules_ring);
}

// A snapshot's windows are the ring's newest samples, field for field.
TEST_F(TelemetryEngineTest, WindowsAreTheRingsNewestSamples) {
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  EvalOptions capped;
  capped.limits.max_live_mappings = 1;
  const size_t kTicks = 5;
  for (size_t i = 0; i < kTicks; ++i) {
    for (size_t q = 0; q < i; ++q) {
      ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
    }
    EXPECT_EQ(engine_.Query("g", "(?x p ?y)", capped).status().code(),
              StatusCode::kResourceExhausted);
    engine_.telemetry()->TickNow();
  }
  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  std::vector<HistorySample> samples = engine_.history()->Samples();
  ASSERT_EQ(snap.windows.size(), kTicks);
  ASSERT_GE(samples.size(), kTicks);
  samples.erase(samples.begin(), samples.end() - kTicks);
  auto counter = [](const HistorySample& s, const char* name) -> uint64_t {
    auto it = s.counters.find(name);
    return it != s.counters.end() ? it->second : 0;
  };
  for (size_t i = 0; i < kTicks; ++i) {
    const TelemetryWindow& w = snap.windows[i];
    const HistorySample& s = samples[i];
    EXPECT_EQ(w.end_unix_ms, s.unix_ms) << i;
    EXPECT_EQ(w.seconds, s.seconds) << i;
    EXPECT_EQ(w.queries, counter(s, "engine.queries")) << i;
    EXPECT_EQ(w.queries, i + 1) << i;
    EXPECT_EQ(w.rejections, counter(s, "engine.queries_rejected") +
                                counter(s, "engine.queries_deadline_exceeded") +
                                counter(s, "engine.queries_cancelled"))
        << i;
    EXPECT_EQ(w.rejections, 1u) << i;
    EXPECT_EQ(w.watchdog_cancels,
              counter(s, "engine.queries_watchdog_cancelled"))
        << i;
    auto hist = s.histograms.find("engine.eval_ns");
    std::vector<std::pair<uint64_t, uint64_t>> buckets;
    if (hist != s.histograms.end()) buckets = hist->second;
    EXPECT_EQ(w.eval_buckets, buckets) << i;
    uint64_t evals = 0;
    for (const auto& [bound, n] : buckets) evals += n;
    EXPECT_EQ(w.eval_count, evals) << i;
    EXPECT_EQ(w.eval_count, i + 1) << i;
  }
  EXPECT_EQ(snap.unix_ms, samples.back().unix_ms);
  engine_.StopTelemetry();
}

TEST_F(TelemetryEngineTest, SnapshotJsonRoundTrips) {
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  engine_.telemetry()->TickNow();
  ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  engine_.telemetry()->TickNow();

  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  std::string json = snap.ToJson();
  TelemetrySnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseTelemetrySnapshot(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.unix_ms, snap.unix_ms);
  EXPECT_EQ(parsed.ticks, snap.ticks);
  EXPECT_EQ(parsed.queries_total, snap.queries_total);
  EXPECT_EQ(parsed.rejected_total, snap.rejected_total);
  EXPECT_EQ(parsed.watchdog_cancelled_total, snap.watchdog_cancelled_total);
  EXPECT_EQ(parsed.queries_active, snap.queries_active);
  // Doubles travel as %.6g: six significant digits survive, not the full
  // mantissa.
  EXPECT_NEAR(parsed.qps, snap.qps, snap.qps * 1e-5 + 1e-9);
  EXPECT_NEAR(parsed.eval_p50_ns, snap.eval_p50_ns,
              snap.eval_p50_ns * 1e-5 + 1e-9);
  ASSERT_EQ(parsed.windows.size(), snap.windows.size());
  for (size_t i = 0; i < snap.windows.size(); ++i) {
    EXPECT_EQ(parsed.windows[i].queries, snap.windows[i].queries);
    EXPECT_EQ(parsed.windows[i].eval_buckets, snap.windows[i].eval_buckets);
  }
  EXPECT_EQ(parsed.inflight.registered_total, snap.inflight.registered_total);

  // The round-tripped snapshot re-serializes identically.
  EXPECT_EQ(parsed.ToJson(), json);

  std::string garbage_error;
  EXPECT_FALSE(ParseTelemetrySnapshot("{not json", &parsed, &garbage_error));
  EXPECT_FALSE(garbage_error.empty());
  engine_.StopTelemetry();
}

TEST_F(TelemetryEngineTest, SnapshotFileIsRewrittenEachTick) {
  std::string path = ::testing::TempDir() + "/rdfql_telemetry_test.json";
  std::remove(path.c_str());
  TelemetryOptions options;
  options.interval_ms = 0;
  options.snapshot_path = path;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  engine_.telemetry()->TickNow();
  ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  engine_.telemetry()->TickNow();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  TelemetrySnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseTelemetrySnapshot(buffer.str(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.queries_total, 1u);
  EXPECT_EQ(parsed.ticks, 2u);
  engine_.StopTelemetry();
  std::remove(path.c_str());
}

TEST_F(TelemetryEngineTest, BackgroundSamplerTicksOnItsOwn) {
  TelemetryOptions options;
  options.interval_ms = 5;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  uint64_t seen = 0;
  for (int i = 0; i < 2000 && seen < 3; ++i) {
    seen = engine_.telemetry()->ticks();
    if (seen < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GE(seen, 3u);
  engine_.StopTelemetry();
}

// The full watchdog loop, driven deterministically: a zero-interval sampler
// whose policy budgets wall time, a long cross-product query on a worker
// thread, and manual ticks until the sweep cancels it.
TEST_F(TelemetryEngineTest, WatchdogSweepCancelsOverBudgetQueries) {
  QueryLog log;
  engine_.SetQueryLog(&log);

  TelemetryOptions options;
  options.interval_ms = 0;
  options.watchdog.defaults.max_wall_ms = 30;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());

  Result<MappingSet> slow = Status::Internal("not run");
  std::thread worker([&] {
    slow = engine_.Query(
        "g",
        "((?a p ?x) AND ((?b p ?y) AND ((?c p ?z) AND ((?d p ?w) AND "
        "(?e p ?v)))))");
  });

  // Fast queries interleaved with the sweep stay under budget untouched.
  for (int i = 0; i < 200 && engine_.inflight()->watchdog_cancelled_total() == 0;
       ++i) {
    ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
    engine_.telemetry()->TickNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worker.join();

  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kCancelled);
  // The reason names the budget, so logs explain themselves.
  EXPECT_NE(slow.status().message().find("max_wall_ms"), std::string::npos)
      << slow.status().ToString();
  EXPECT_EQ(engine_.inflight()->watchdog_cancelled_total(), 1u);

  size_t watchdog_outcomes = 0;
  size_t ok_outcomes = 0;
  for (const QueryLogRecord& r : log.Snapshot()) {
    if (r.outcome == "watchdog_cancelled") ++watchdog_outcomes;
    if (r.outcome == "ok") ++ok_outcomes;
  }
  EXPECT_EQ(watchdog_outcomes, 1u);
  EXPECT_GE(ok_outcomes, 1u);

  // The cancellation shows up in the telemetry aggregates too.
  engine_.telemetry()->TickNow();
  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  EXPECT_EQ(snap.watchdog_cancelled_total, 1u);
  EXPECT_EQ(engine_.MetricsSnapshot().counters.at(
                "engine.queries_watchdog_cancelled"),
            1u);
  engine_.StopTelemetry();
  engine_.SetQueryLog(nullptr);
}

// A per-fragment live-bytes budget cancels on memory, not time, and only
// for the fragment it names.
TEST_F(TelemetryEngineTest, WatchdogHonorsPerFragmentByteBudgets) {
  TelemetryOptions options;
  options.interval_ms = 0;
  // Budget only SPARQL[A] (the AND-only fragment of the cross product);
  // 64KiB of live mappings trips long before the product completes.
  options.watchdog.per_fragment["SPARQL[A]"].max_live_bytes = 64 * 1024;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());

  Result<MappingSet> slow = Status::Internal("not run");
  std::thread worker([&] {
    slow = engine_.Query(
        "g",
        "((?a p ?x) AND ((?b p ?y) AND ((?c p ?z) AND ((?d p ?w) AND "
        "(?e p ?v)))))");
  });
  for (int i = 0;
       i < 2000 && engine_.inflight()->watchdog_cancelled_total() == 0; ++i) {
    engine_.telemetry()->TickNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.join();

  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kCancelled);
  EXPECT_NE(slow.status().message().find("max_live_bytes"), std::string::npos)
      << slow.status().ToString();

  // A query in a different fragment is untouched by the override.
  Result<MappingSet> other =
      engine_.Query("g", "(?x p ?y) OPT (?x p ?z)");
  EXPECT_TRUE(other.ok());
  engine_.StopTelemetry();
}

// A MetricsRegistry::Reset between ticks makes every cumulative counter go
// backwards. The sampler's window diffing must clamp those deltas to zero —
// not wrap to ~2^64 — and resume normal diffing from the reset baseline.
TEST_F(TelemetryEngineTest, WindowDiffingClampsAcrossMidStreamReset) {
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  engine_.telemetry()->TickNow();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  }
  engine_.telemetry()->TickNow();
  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  EXPECT_EQ(snap.windows.back().queries, 3u);

  // One more query, then the rug-pull: counters drop below the window base.
  ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  engine_.ResetMetrics();
  engine_.telemetry()->TickNow();
  snap = engine_.telemetry()->Snapshot();
  // Clamped: a sane zero-delta window, no underflow anywhere.
  EXPECT_EQ(snap.windows.back().queries, 0u);
  EXPECT_EQ(snap.windows.back().eval_count, 0u);
  EXPECT_LT(snap.queries_total, 1000u);
  EXPECT_GE(snap.qps, 0.0);
  EXPECT_LT(snap.qps, 1e6);

  // Diffing resumes from the reset baseline, not the stale one.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  }
  engine_.telemetry()->TickNow();
  snap = engine_.telemetry()->Snapshot();
  EXPECT_EQ(snap.windows.back().queries, 2u);
  engine_.StopTelemetry();
}

// Snapshot JSON with the optional alert and build tails present: the parser
// must round-trip them exactly, and rdfql_top's panel data must survive.
TEST_F(TelemetryEngineTest, SnapshotJsonRoundTripsWithAlertTail) {
  ASSERT_TRUE(engine_
                  .SetAlertRules(
                      R"({"version":1,"rules":[{"name":"any-query",
                          "agg":"delta","metric":"engine.queries","op":">",
                          "threshold":0,"windows":["10s"]}]})")
                  .ok());
  TelemetryOptions options;
  options.interval_ms = 0;
  ASSERT_TRUE(engine_.StartTelemetry(options).ok());
  engine_.telemetry()->TickNow();
  ASSERT_TRUE(engine_.Query("g", "(?x p ?y)").ok());
  engine_.telemetry()->TickNow();

  TelemetrySnapshot snap = engine_.telemetry()->Snapshot();
  ASSERT_TRUE(snap.has_alerts);
  EXPECT_FALSE(snap.build_sha.empty());
  std::string json = snap.ToJson();
  TelemetrySnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseTelemetrySnapshot(json, &parsed, &error)) << error;
  EXPECT_TRUE(parsed.has_alerts);
  ASSERT_EQ(parsed.alerts.rules.size(), 1u);
  EXPECT_EQ(parsed.alerts.rules[0].name, "any-query");
  EXPECT_EQ(parsed.alerts.rules[0].state, "firing");
  EXPECT_EQ(parsed.build_sha, snap.build_sha);
  EXPECT_EQ(parsed.build_type, snap.build_type);
  // Canonical: parse -> re-serialize is byte-identical.
  EXPECT_EQ(parsed.ToJson(), json);
  engine_.StopTelemetry();
}

}  // namespace
}  // namespace rdfql
