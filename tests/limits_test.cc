#include "util/limits.h"

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "obs/accounting.h"
#include "obs/metrics.h"

namespace rdfql {
namespace {

// A graph of n disjoint p-edges: (?a p ?b) AND (?c p ?d) cross-joins them
// into n^2 live mappings — the cheap way to blow past a mapping budget.
std::string EdgeGraph(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "s" + std::to_string(i) + " p o" + std::to_string(i) + " .\n";
  }
  return out;
}

// n p-edges into one hub and n q-edges out of it: joining on the hub
// variable puts every row of both sides under one key, so the hashed
// kernels (not the pairwise scan) build the n^2 product.
std::string HubGraph(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += "s" + std::to_string(i) + " p hub .\n";
    out += "hub q o" + std::to_string(i) + " .\n";
  }
  return out;
}

constexpr char kBlowupQuery[] = "(?a p ?b) AND (?c p ?d)";
// The same cross product built by ⟕: the sides share no variable.
constexpr char kOptBlowupQuery[] = "(?a p ?b) OPT (?c p ?d)";

TEST(DeadlineTest, InfiniteByDefault) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, AfterZeroMsIsExpired) {
  EXPECT_TRUE(Deadline::AfterMs(0).Expired());
  EXPECT_FALSE(Deadline::AfterMs(60'000).Expired());
}

TEST(CancellationTokenTest, FirstReasonLatches) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
  token.Cancel(Status::Cancelled("first"));
  token.Cancel(Status::ResourceExhausted("second"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.status().message(), "first");
}

TEST(CancellationTokenTest, CheckTripsOnExpiredDeadline) {
  CancellationToken token;
  EXPECT_TRUE(token.Check());
  token.ArmDeadline(Deadline::AfterMs(0));
  EXPECT_FALSE(token.Check());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, CooperativeCheckpointIsTrueWhenUninstalled) {
  EXPECT_EQ(CancellationToken::Current(), nullptr);
  EXPECT_TRUE(CooperativeCheckpoint());
  CancellationToken token;
  {
    ScopedCancellation install(&token);
    EXPECT_EQ(CancellationToken::Current(), &token);
    token.Cancel(Status::Cancelled("stop"));
    EXPECT_FALSE(CooperativeCheckpoint());
  }
  EXPECT_EQ(CancellationToken::Current(), nullptr);
}

// ISSUE criterion (a): the blowup query trips kResourceExhausted at every
// thread count — the caps ride on the shared accountant, so pool workers
// trip the same token the coordinator polls.
TEST(LimitsTest, MemoryCapTripsAcrossThreadCounts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  // The OPT form blows up inside the ⟕ kernel's pairwise path instead.
  for (const char* query : {kBlowupQuery, kOptBlowupQuery}) {
    for (int threads : {1, 2, 8}) {
      EvalOptions options;
      options.threads = threads;
      options.limits.max_live_mappings = 1000;
      Result<MappingSet> r = engine.Query("g", query, options);
      ASSERT_FALSE(r.ok()) << query << " threads=" << threads;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << query << " threads=" << threads << ": "
          << r.status().ToString();
    }
  }
}

// A capped cross product stops soon after the cap instead of being built
// in full and rejected afterwards: ⟕'s pairwise scan charges each row as it
// emits it at every thread count, so the probes it runs before the trip
// stay far below the 200 × 200 pairs.
TEST(LimitsTest, OptCrossProductStopsNearTheCap) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  for (int threads : {1, 2, 8}) {
    MetricsRegistry metrics;
    EvalOptions options;
    options.threads = threads;
    options.metrics = &metrics;
    options.limits.max_live_mappings = 1000;
    Result<MappingSet> r = engine.Query("g", kOptBlowupQuery, options);
    ASSERT_FALSE(r.ok()) << "threads=" << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads << ": " << r.status().ToString();
    EXPECT_LT(metrics.GetCounter("eval.join_probes")->Value(),
              200u * 200u / 10)
        << "threads=" << threads;
  }
}

// The same for a one-key ⋈ and ⟕ on the hashed path: every row the kernel
// emits is charged as it is inserted, and the probe loop polls the tripped
// token every 1,024 rows or probes, so neither the probes run nor the
// accountant's peak get near the 200 × 200 rows, at any thread count.
TEST(LimitsTest, OneKeyJoinStopsNearTheCap) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", HubGraph(200)).ok());
  for (const char* query : {"(?a p ?h) AND (?h q ?b)",
                            "(?a p ?h) OPT (?h q ?b)"}) {
    for (int threads : {1, 2, 8}) {
      MetricsRegistry metrics;
      ResourceAccountant acct;
      EvalOptions options;
      options.threads = threads;
      options.metrics = &metrics;
      options.accountant = &acct;
      options.limits.max_live_mappings = 1000;
      Result<MappingSet> r = engine.Query("g", query, options);
      ASSERT_FALSE(r.ok()) << query << " threads=" << threads;
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << query << " threads=" << threads << ": "
          << r.status().ToString();
      EXPECT_LT(metrics.GetCounter("eval.join_probes")->Value(), 4000u)
          << query << " threads=" << threads;
      EXPECT_LT(acct.peak_mappings(), 4000u)
          << query << " threads=" << threads;
    }
  }
}

TEST(LimitsTest, ByteCapTrips) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  EvalOptions options;
  options.limits.max_bytes = 16 * 1024;
  Result<MappingSet> r = engine.Query("g", kBlowupQuery, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ISSUE criterion (b): when no limit trips, governed results are
// bit-identical to the ungoverned run at every thread count.
TEST(LimitsTest, ResultsIdenticalWhenLimitsNotHit) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText(
      "g",
      "Juan was_born_in Chile .\nAna was_born_in Chile .\n"
      "Juan email juan@x .\nPedro was_born_in Peru .").ok());
  const std::string queries[] = {
      "(?x was_born_in ?c) OPT (?x email ?e)",
      "NS((?x was_born_in Chile) UNION ((?x was_born_in Chile) AND "
      "(?x email ?e)))",
      "((?x was_born_in ?c) AND (?y was_born_in ?c)) FILTER ?x != ?y",
  };
  for (const std::string& q : queries) {
    Result<MappingSet> expected = engine.Query("g", q);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int threads : {1, 2, 8}) {
      EvalOptions options;
      options.threads = threads;
      options.limits.max_wall_ms = 60'000;
      options.limits.max_live_mappings = 1'000'000;
      options.limits.max_bytes = 1ull << 30;
      Result<MappingSet> governed = engine.Query("g", q, options);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      EXPECT_TRUE(*governed == *expected)
          << q << " differed at threads=" << threads;
    }
  }
}

// ISSUE criterion (c): on a successful run the accountant's peak is within
// the configured cap — a trip would otherwise have failed the query.
TEST(LimitsTest, PeakStaysWithinCapOnSuccess) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(20)).ok());
  constexpr uint64_t kCap = 1'000'000;
  ResourceAccountant acct;
  EvalOptions options;
  options.accountant = &acct;
  options.limits.max_live_mappings = kCap;
  Result<MappingSet> r = engine.Query("g", kBlowupQuery, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 400u);
  EXPECT_GT(acct.peak_mappings(), 0u);
  EXPECT_LE(acct.peak_mappings(), kCap);
}

TEST(LimitsTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(4)).ok());
  EvalOptions options;
  options.deadline = Deadline::AfterMs(0);
  Result<MappingSet> r = engine.Query("g", kBlowupQuery, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(LimitsTest, PreCancelledTokenReturnsCancelled) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(4)).ok());
  CancellationToken token;
  token.Cancel(Status::Cancelled("caller aborted"));
  EvalOptions options;
  options.cancel = &token;
  Result<MappingSet> r = engine.Query("g", kBlowupQuery, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(LimitsTest, EngineDefaultLimitsApplyAndPerQueryOverrideWins) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  ResourceLimits defaults;
  defaults.max_live_mappings = 1000;
  engine.SetDefaultLimits(defaults);
  EXPECT_EQ(engine.default_limits().max_live_mappings, 1000u);

  // The default governs plain queries...
  Result<MappingSet> r = engine.Query("g", kBlowupQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  // ...and a per-query limit replaces it wholesale.
  EvalOptions generous;
  generous.limits.max_live_mappings = 1'000'000;
  Result<MappingSet> ok = engine.Query("g", kBlowupQuery, generous);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 40'000u);
}

TEST(LimitsTest, RejectionsAreCountedInMetrics) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());

  EvalOptions capped;
  capped.limits.max_live_mappings = 1000;
  ASSERT_FALSE(engine.Query("g", kBlowupQuery, capped).ok());

  EvalOptions expired;
  expired.deadline = Deadline::AfterMs(0);
  ASSERT_FALSE(engine.Query("g", kBlowupQuery, expired).ok());

  CancellationToken token;
  token.Cancel(Status::Cancelled("caller aborted"));
  EvalOptions cancelled;
  cancelled.cancel = &token;
  ASSERT_FALSE(engine.Query("g", kBlowupQuery, cancelled).ok());

  RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("engine.queries_rejected"), 1u);
  EXPECT_EQ(snap.counters.at("engine.queries_deadline_exceeded"), 1u);
  EXPECT_EQ(snap.counters.at("engine.queries_cancelled"), 1u);
}

TEST(LimitsTest, ExplainAnalyzeShowsLimitsLine) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(4)).ok());

  // Ungoverned queries report "limits: none".
  Result<QueryExplanation> plain = engine.QueryExplained("g", "(?a p ?b)");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_NE(plain->ToString().find("limits: none"), std::string::npos)
      << plain->ToString();

  EvalOptions options;
  options.limits.max_wall_ms = 60'000;
  options.limits.max_live_mappings = 50'000;
  Result<QueryExplanation> governed =
      engine.QueryExplained("g", kBlowupQuery, options);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  std::string text = governed->ToString();
  EXPECT_NE(text.find("limits: wall=60000ms live_mappings=50000"),
            std::string::npos)
      << text;
}

TEST(LimitsTest, QueryExplainedEnforcesLimitsToo) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", EdgeGraph(200)).ok());
  EvalOptions options;
  options.limits.max_live_mappings = 1000;
  Result<QueryExplanation> r =
      engine.QueryExplained("g", kBlowupQuery, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// The translation pipeline refuses to materialize a blown-up AST, naming
// the offending stage in the error.
TEST(LimitsTest, TranslationRefusesExponentialAst) {
  Engine engine;
  // k nested OPTs under NS: fixed-domain UNF produces 2^k disjuncts and
  // NS-elimination squares them (Thm 5.1).
  std::string query =
      "NS(((((?x a ?a) OPT (?x b ?b)) OPT (?x c ?c)) OPT (?x d ?d)) "
      "OPT (?x e ?e))";
  TranslateOptions options;
  options.resources.max_ast_nodes = 40;
  Result<TranslationExplanation> r = engine.TranslateExplained(query, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_ast_nodes=40"), std::string::npos)
      << r.status().ToString();

  // A generous budget lets the same query through.
  TranslateOptions generous;
  generous.resources.max_ast_nodes = 10'000'000;
  EXPECT_TRUE(engine.TranslateExplained(query, generous).ok());
}

TEST(LimitsTest, TranslationHonorsPreCancelledToken) {
  Engine engine;
  CancellationToken token;
  token.Cancel(Status::Cancelled("caller aborted"));
  TranslateOptions options;
  options.cancel = &token;
  Result<TranslationExplanation> r = engine.TranslateExplained(
      "NS((?x a ?a) OPT (?x b ?b))", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace rdfql
