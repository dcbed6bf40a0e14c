#include "optimize/optimizer.h"

#include <gtest/gtest.h>

#include "algebra/pattern_printer.h"
#include "eval/evaluator.h"
#include "parser/parser.h"
#include "rdf/ntriples.h"
#include "util/random.h"
#include "workload/graph_generator.h"
#include "workload/pattern_generator.h"

namespace rdfql {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  PatternPtr Parse(const std::string& text) {
    Result<PatternPtr> r = ParsePattern(text, &dict_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }
  Dictionary dict_;
};

TEST(GraphStatsTest, CollectsPredicateStatistics) {
  Dictionary dict;
  Graph g;
  ASSERT_TRUE(ParseNTriples("a p b .\na p c .\nd p b .\na q b .", &dict, &g)
                  .ok());
  GraphStats stats = GraphStats::Collect(g);
  TermId p = dict.FindIri("p");
  TermId q = dict.FindIri("q");
  EXPECT_EQ(stats.total_triples(), 4u);
  EXPECT_EQ(stats.PredicateCount(p), 3u);
  EXPECT_EQ(stats.PredicateCount(q), 1u);
  EXPECT_EQ(stats.DistinctSubjects(p), 2u);
  EXPECT_EQ(stats.DistinctObjects(p), 2u);
  EXPECT_EQ(stats.PredicateCount(dict.InternIri("zzz")), 0u);
}

TEST(GraphStatsTest, EstimatesRespectBoundPositions) {
  Dictionary dict;
  Graph g;
  for (int i = 0; i < 100; ++i) {
    g.Insert(dict.InternIri("s" + std::to_string(i % 10)),
             dict.InternIri("p"), dict.InternIri("o" + std::to_string(i)));
  }
  GraphStats stats = GraphStats::Collect(g);
  Term var_s = Term::Var(dict.InternVar("s"));
  Term var_o = Term::Var(dict.InternVar("o"));
  Term p = Term::Iri(dict.FindIri("p"));
  double all = stats.EstimateCardinality(TriplePattern(var_s, p, var_o));
  double by_subject = stats.EstimateCardinality(
      TriplePattern(Term::Iri(dict.FindIri("s0")), p, var_o));
  EXPECT_GT(all, by_subject);
  EXPECT_NEAR(all, 100.0, 1.0);
  EXPECT_NEAR(by_subject, 10.0, 1.0);
}

TEST_F(OptimizerTest, MergesAndPushesFilters) {
  Graph g;
  GraphStats stats = GraphStats::Collect(g);
  Optimizer opt(&stats);
  PatternPtr p = Parse(
      "(((?x a ?y) AND (?z b ?w)) FILTER ?x = c) FILTER ?z = d");
  PatternPtr q = opt.Optimize(p);
  // Both conditions should now sit directly on their triples.
  ASSERT_EQ(q->kind(), PatternKind::kAnd);
  EXPECT_EQ(q->left()->kind(), PatternKind::kFilter);
  EXPECT_EQ(q->right()->kind(), PatternKind::kFilter);
}

TEST_F(OptimizerTest, DoesNotPushUnsafeBoundFilters) {
  Graph g;
  GraphStats stats = GraphStats::Collect(g);
  Optimizer opt(&stats);
  // !bound(?e) over an OPT: ?e is optional, so the filter must stay put.
  PatternPtr p = Parse("((?x a ?y) OPT (?x b ?e)) FILTER !bound(?e)");
  PatternPtr q = opt.Optimize(p);
  EXPECT_EQ(q->kind(), PatternKind::kFilter);
}

TEST_F(OptimizerTest, PrunesUnsatisfiableUnionBranches) {
  Graph g;
  GraphStats stats = GraphStats::Collect(g);
  Optimizer opt(&stats);
  PatternPtr p = Parse("((?x a ?y) FILTER false) UNION (?x b ?y)");
  PatternPtr q = opt.Optimize(p);
  EXPECT_EQ(q->kind(), PatternKind::kTriple);

  // Along a spine: each dead disjunct goes, and a UNION of two dead sides
  // is itself dead.
  MetricsRegistry metrics;
  OptimizerOptions counted;
  counted.metrics = &metrics;
  Optimizer counting(&stats, counted);
  q = counting.Optimize(Parse(
      "((?x a ?y) FILTER false) UNION (?x b ?y) UNION "
      "((?x c ?y) FILTER false) UNION (?x d ?y)"));
  EXPECT_EQ(PatternToString(q, dict_), "((?x b ?y) UNION (?x d ?y))");
  q = counting.Optimize(Parse(
      "(((?x a ?y) FILTER false) UNION ((?x c ?y) FILTER false)) UNION "
      "(?x b ?y)"));
  EXPECT_EQ(PatternToString(q, dict_), "(?x b ?y)");
  EXPECT_EQ(metrics.Snapshot().counters.at("optimizer.union_branches_pruned"),
            3u);
}

TEST_F(OptimizerTest, ReordersJoinsBySelectivity) {
  Dictionary& dict = dict_;
  Graph g;
  // `rare` has 1 triple, `common` has 100.
  g.Insert(dict.InternIri("s0"), dict.InternIri("rare"),
           dict.InternIri("o0"));
  for (int i = 0; i < 100; ++i) {
    g.Insert(dict.InternIri("s" + std::to_string(i)),
             dict.InternIri("common"), dict.InternIri("t"));
  }
  GraphStats stats = GraphStats::Collect(g);
  Optimizer opt(&stats);
  PatternPtr p = Parse("(?x common ?y) AND (?z common ?w) AND (?x rare ?v)");
  PatternPtr q = opt.Optimize(p);
  // The rare triple should be evaluated first (leftmost leaf).
  const Pattern* leftmost = q.get();
  while (leftmost->kind() == PatternKind::kAnd) {
    leftmost = leftmost->left().get();
  }
  ASSERT_EQ(leftmost->kind(), PatternKind::kTriple);
  EXPECT_EQ(dict.IriName(leftmost->triple().p.iri()), "rare");
}

// The golden property: optimization never changes semantics, over random
// NS-SPARQL patterns and random graphs.
TEST_F(OptimizerTest, PreservesSemanticsOnRandomPatterns) {
  Rng rng(808);
  PatternGenSpec spec;
  spec.allow_opt = spec.allow_filter = spec.allow_select = true;
  spec.allow_minus = spec.allow_ns = true;
  spec.max_depth = 4;
  for (int i = 0; i < 80; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(16, 4, &dict_, &rng, "i");
    GraphStats stats = GraphStats::Collect(g);
    Optimizer opt(&stats);
    PatternPtr q = opt.Optimize(p);
    EXPECT_EQ(EvalPattern(g, p), EvalPattern(g, q))
        << "pattern " << i;
  }
}

// Each rewrite individually preserves semantics (ablation-style).
TEST_F(OptimizerTest, IndividualRewritesPreserveSemantics) {
  Rng rng(809);
  PatternGenSpec spec;
  spec.allow_opt = spec.allow_filter = spec.allow_select = true;
  spec.max_depth = 4;
  OptimizerOptions configs[4];
  configs[0] = {true, false, false, false};
  configs[1] = {false, true, false, false};
  configs[2] = {false, false, true, false};
  configs[3] = {false, false, false, true};
  for (int i = 0; i < 40; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "i");
    GraphStats stats = GraphStats::Collect(g);
    for (const OptimizerOptions& config : configs) {
      Optimizer opt(&stats, config);
      EXPECT_EQ(EvalPattern(g, p), EvalPattern(g, opt.Optimize(p)));
    }
  }
}

}  // namespace
}  // namespace rdfql
