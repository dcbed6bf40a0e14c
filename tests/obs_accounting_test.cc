// Tests for the per-query resource accountant: exact counters on
// hand-computed joins, agreement across thread counts, kernel outputs
// charged in full when returned, and the epoch mechanism that keeps Reset()
// safe while old sets are still alive.

#include "obs/accounting.h"

#include <gtest/gtest.h>

#include <vector>

#include "algebra/mapping.h"
#include "algebra/mapping_set.h"
#include "core/engine.h"
#include "eval/evaluator.h"
#include "eval/ns.h"

namespace rdfql {
namespace {

TEST(ResourceAccountantTest, RawAddRemovePeaks) {
  ResourceAccountant acct;
  acct.OnAdd(3, 300);
  acct.OnAdd(2, 200);
  EXPECT_EQ(acct.live_mappings(), 5u);
  EXPECT_EQ(acct.live_bytes(), 500u);
  EXPECT_EQ(acct.peak_mappings(), 5u);
  EXPECT_EQ(acct.peak_bytes(), 500u);
  acct.OnRemove(2, 200);
  EXPECT_EQ(acct.live_mappings(), 3u);
  EXPECT_EQ(acct.peak_mappings(), 5u);  // peaks never fall
  acct.OnAdd(1, 100);
  EXPECT_EQ(acct.peak_mappings(), 5u);  // 4 live < old peak
  EXPECT_EQ(acct.total_mappings(), 6u);
  EXPECT_EQ(acct.total_bytes(), 600u);
}

TEST(ResourceAccountantTest, MappingSetReportsExactBytes) {
  ResourceAccountant acct;
  Mapping m1;
  m1.Set(0, 1);
  Mapping m2;
  m2.Set(0, 2);
  m2.Set(1, 3);
  const uint64_t expected = m1.ApproxBytes() + m2.ApproxBytes();
  {
    ScopedAccounting install(&acct);
    MappingSet s;
    s.Add(m1);
    s.Add(m2);
    s.Add(m1);  // duplicate: rejected, must not be accounted
    s.FlushAccounting();
    EXPECT_EQ(acct.live_mappings(), 2u);
    EXPECT_EQ(acct.live_bytes(), expected);
  }
  // The set died inside the installed scope: everything released.
  EXPECT_EQ(acct.live_mappings(), 0u);
  EXPECT_EQ(acct.live_bytes(), 0u);
  EXPECT_EQ(acct.peak_mappings(), 2u);
  EXPECT_EQ(acct.peak_bytes(), expected);
  EXPECT_EQ(acct.total_mappings(), 2u);
}

TEST(ResourceAccountantTest, CopyAndMoveTransferAccounting) {
  ResourceAccountant acct;
  {
    ScopedAccounting install(&acct);
    Mapping m;
    m.Set(0, 1);
    MappingSet a;
    a.Add(m);
    a.FlushAccounting();
    EXPECT_EQ(acct.live_mappings(), 1u);
    MappingSet b = a;  // copy re-accounts
    EXPECT_EQ(acct.live_mappings(), 2u);
    MappingSet c = std::move(a);  // move steals a's accounting
    EXPECT_EQ(acct.live_mappings(), 2u);
  }
  EXPECT_EQ(acct.live_mappings(), 0u);
  EXPECT_EQ(acct.peak_mappings(), 2u);
}

// The hand-computed join: G = {(a p b), (a p c), (b q d)} and
// P = (?x p ?y) AND (?y q ?z).
//   ⟦(?x p ?y)⟧G = {x→a,y→b}, {x→a,y→c}      (2 mappings, 2 bindings each)
//   ⟦(?y q ?z)⟧G = {y→b,z→d}                 (1 mapping, 2 bindings)
//   join          = {x→a,y→b,z→d}            (1 mapping, 3 bindings)
// All three sets are alive when the join output completes, so
// peak = total = 4 mappings; bytes follow Mapping::ApproxBytes exactly.
class JoinAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        engine_.LoadGraphText("g", "a p b .\nb q d .\na p c .\n").ok());
    pattern_ = engine_.Parse("(?x p ?y) AND (?y q ?z)").value();
  }

  uint64_t TwoBindingBytes() {
    Mapping m;
    m.Set(0, 1);
    m.Set(1, 2);
    return m.ApproxBytes();
  }
  uint64_t ThreeBindingBytes() {
    Mapping m;
    m.Set(0, 1);
    m.Set(1, 2);
    m.Set(2, 3);
    return m.ApproxBytes();
  }

  Engine engine_;
  PatternPtr pattern_;
};

TEST_F(JoinAccountingTest, ExactPeakOnHandComputedJoin) {
  ResourceAccountant acct;
  EvalOptions options;
  options.accountant = &acct;
  Result<MappingSet> r = engine_.Eval("g", pattern_, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);

  EXPECT_EQ(acct.total_mappings(), 4u);
  EXPECT_EQ(acct.peak_mappings(), 4u);
  const uint64_t expected_peak = 3 * TwoBindingBytes() + ThreeBindingBytes();
  EXPECT_EQ(acct.peak_bytes(), expected_peak);
  EXPECT_EQ(acct.total_bytes(), expected_peak);
  // The result set was detached before escaping: nothing is live anymore,
  // and destroying the result later must not underflow the counters.
  EXPECT_EQ(acct.live_mappings(), 0u);
  EXPECT_EQ(acct.live_bytes(), 0u);
}

TEST_F(JoinAccountingTest, FiguresAgreeAcrossThreadCounts) {
  uint64_t totals[2], peaks[2], bytes[2];
  int idx = 0;
  for (int threads : {1, 4}) {
    ResourceAccountant acct;
    EvalOptions options;
    options.threads = threads;
    options.accountant = &acct;
    Result<MappingSet> r = engine_.Eval("g", pattern_, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().size(), 1u);
    EXPECT_EQ(acct.live_mappings(), 0u) << "threads=" << threads;
    EXPECT_GE(acct.peak_mappings(), r.value().size());
    EXPECT_LE(acct.peak_mappings(), acct.total_mappings());
    totals[idx] = acct.total_mappings();
    peaks[idx] = acct.peak_mappings();
    bytes[idx] = acct.total_bytes();
    ++idx;
  }
  // Deterministic merges: the parallel path materializes the same
  // mappings, so the accountant sees identical totals and peaks.
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(peaks[0], peaks[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST_F(JoinAccountingTest, CleanResetBetweenQueries) {
  ResourceAccountant acct;
  EvalOptions options;
  options.accountant = &acct;
  ASSERT_TRUE(engine_.Eval("g", pattern_, options).ok());
  EXPECT_EQ(acct.peak_mappings(), 4u);

  acct.Reset();
  EXPECT_EQ(acct.live_mappings(), 0u);
  EXPECT_EQ(acct.peak_mappings(), 0u);
  EXPECT_EQ(acct.total_mappings(), 0u);
  EXPECT_EQ(acct.total_bytes(), 0u);

  // Second query against the reset accountant: figures are per-query, not
  // cumulative across the reset.
  ASSERT_TRUE(engine_.Eval("g", pattern_, options).ok());
  EXPECT_EQ(acct.total_mappings(), 4u);
  EXPECT_EQ(acct.peak_mappings(), 4u);
}

TEST(ResourceAccountantTest, StaleSetsSkipDecrementAfterReset) {
  ResourceAccountant acct;
  ScopedAccounting install(&acct);
  Mapping m;
  m.Set(0, 1);
  {
    MappingSet s;
    s.Add(m);
    s.FlushAccounting();
    EXPECT_EQ(acct.live_mappings(), 1u);
    acct.Reset();
    EXPECT_EQ(acct.live_mappings(), 0u);
    // s dies here holding a pre-reset epoch: it must not decrement counts
    // it no longer owns (underflow would wrap the unsigned gauge).
  }
  EXPECT_EQ(acct.live_mappings(), 0u);
  // And a set from the current epoch still accounts normally.
  {
    MappingSet s;
    s.Add(m);
    s.FlushAccounting();
    EXPECT_EQ(acct.live_mappings(), 1u);
  }
  EXPECT_EQ(acct.live_mappings(), 0u);
}

// Sets charge their accountant in batches, so every kernel must report its
// output before returning it. Right after each call, with no flush by the
// caller, the live figures are the sums over the sets still alive. Every
// size here is off a multiple of the batch, so a kernel that forgets its
// flush leaves rows uncharged and fails.
TEST(ResourceAccountantTest, KernelOutputsAreChargedWhenReturned) {
  ResourceAccountant acct;
  ScopedAccounting install(&acct);
  // Ω1: 300 rows over {?0, ?1}; Ω2: rows over {?0} and {?0, ?2}, where
  // every {?0} row is subsumed by a wider one.
  std::vector<Mapping> left_rows;
  for (int i = 0; i < 300; ++i) {
    Mapping m;
    m.Set(0, i % 100);
    m.Set(1, 1000 + i);
    left_rows.push_back(m);
  }
  std::vector<Mapping> right_rows;
  for (int i = 0; i < 250; ++i) {
    Mapping m;
    m.Set(0, 25 + i % 50);
    if (i % 3 != 0) m.Set(2, 2000 + i);
    right_rows.push_back(m);
  }
  std::vector<const MappingSet*> alive;
  auto expect_charged = [&](const char* op, const MappingSet& out) {
    alive.push_back(&out);
    ASSERT_NE(out.size() % MappingSet::kAccountingBatch, 0u) << op;
    uint64_t mappings = 0;
    uint64_t bytes = 0;
    for (const MappingSet* s : alive) {
      mappings += s->size();
      bytes += s->ApproxBytes();
    }
    EXPECT_EQ(acct.live_mappings(), mappings) << op;
    EXPECT_EQ(acct.live_bytes(), bytes) << op;
  };
  const MappingSet a = MappingSet::FromList(left_rows);
  expect_charged("FromList", a);
  const MappingSet b = MappingSet::FromList(right_rows);
  expect_charged("FromList", b);
  const MappingSet join = MappingSet::Join(a, b);
  expect_charged("Join", join);
  const MappingSet nested = MappingSet::JoinNestedLoop(a, b);
  expect_charged("JoinNestedLoop", nested);
  const MappingSet minus = MappingSet::Minus(a, b);
  expect_charged("Minus", minus);
  const MappingSet outer = MappingSet::LeftOuterJoin(a, b);
  expect_charged("LeftOuterJoin", outer);
  const MappingSet both = MappingSet::UnionSets(a, b);
  expect_charged("UnionSets", both);
  const MappingSet naive = RemoveSubsumedNaive(b);
  expect_charged("RemoveSubsumedNaive", naive);
  const MappingSet bucketed = RemoveSubsumedBucketed(b);
  expect_charged("RemoveSubsumedBucketed", bucketed);
  EXPECT_LT(naive.size(), b.size());

  // A set filled by hand lags by fewer than a batch until it flushes.
  const uint64_t before = acct.live_mappings();
  const uint64_t before_bytes = acct.live_bytes();
  MappingSet by_hand;
  for (int i = 0; i < 100; ++i) {
    Mapping m;
    m.Set(3, i);
    by_hand.Add(m);
  }
  const uint64_t charged = acct.live_mappings() - before;
  EXPECT_LE(charged, 100u);
  EXPECT_LT(100u - charged, MappingSet::kAccountingBatch);
  by_hand.FlushAccounting();
  EXPECT_EQ(acct.live_mappings(), before + 100);
  EXPECT_EQ(acct.live_bytes(), before_bytes + by_hand.ApproxBytes());
}

TEST(ResourceAccountantTest, ScopedInstallRestoresOuterAccountant) {
  ResourceAccountant outer;
  ResourceAccountant inner;
  EXPECT_EQ(ResourceAccountant::Current(), nullptr);
  {
    ScopedAccounting a(&outer);
    EXPECT_EQ(ResourceAccountant::Current(), &outer);
    {
      ScopedAccounting b(&inner);
      EXPECT_EQ(ResourceAccountant::Current(), &inner);
    }
    EXPECT_EQ(ResourceAccountant::Current(), &outer);
  }
  EXPECT_EQ(ResourceAccountant::Current(), nullptr);
}

TEST(ResourceAccountantTest, ExplainAnalyzeCarriesMemoryFigures) {
  Engine engine;
  ASSERT_TRUE(
      engine.LoadGraphText("g", "a p b .\nb q d .\na p c .\n").ok());
  Result<QueryExplanation> ex =
      engine.QueryExplained("g", "(?x p ?y) AND (?y q ?z)");
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex.value().peak_mappings, 4u);
  EXPECT_EQ(ex.value().total_mappings, 4u);
  EXPECT_GT(ex.value().peak_bytes, 0u);
  // The rendered header carries the figures.
  EXPECT_NE(ex.value().ToString().find("mem: peak 4 mappings"),
            std::string::npos);
}

TEST(ResourceAccountantTest, EngineMetricsRecordPeaks) {
  Engine engine;
  engine.EnableMetrics();
  ASSERT_TRUE(
      engine.LoadGraphText("g", "a p b .\nb q d .\na p c .\n").ok());
  ASSERT_TRUE(engine.Query("g", "(?x p ?y) AND (?y q ?z)").ok());
  RegistrySnapshot snap = engine.MetricsSnapshot();
  EXPECT_EQ(snap.gauges.at("engine.peak_mappings"), 4);
  EXPECT_GT(snap.gauges.at("engine.peak_bytes"), 0);
  EXPECT_EQ(snap.counters.at("engine.total_mappings"), 4u);
  EXPECT_EQ(snap.histograms.at("engine.peak_mappings_per_query").count, 1u);
  // Graph gauges updated on load.
  EXPECT_EQ(snap.gauges.at("engine.graph_triples"), 3);
  EXPECT_GT(snap.gauges.at("engine.graph_bytes"), 0);
}

}  // namespace
}  // namespace rdfql
