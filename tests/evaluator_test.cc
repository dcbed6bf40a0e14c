#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "rdf/ntriples.h"
#include "util/random.h"
#include "workload/graph_generator.h"
#include "workload/pattern_generator.h"

namespace rdfql {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  Graph Load(const char* text) {
    Graph g;
    Status st = ParseNTriples(text, &dict_, &g);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return g;
  }

  PatternPtr Parse(const std::string& text) {
    Result<PatternPtr> r = ParsePattern(text, &dict_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  Mapping Make(std::vector<std::pair<std::string, std::string>> bindings) {
    std::vector<std::pair<VarId, TermId>> ids;
    for (const auto& [var, iri] : bindings) {
      ids.emplace_back(dict_.InternVar(var), dict_.InternIri(iri));
    }
    return Mapping::FromBindings(std::move(ids));
  }

  Dictionary dict_;
};

TEST_F(EvaluatorTest, TriplePatternMatching) {
  Graph g = Load("s p o .\ns p o2 .\ns2 p o .");
  MappingSet r = EvalPattern(g, Parse("(?x p ?y)"));
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.Contains(Make({{"x", "s"}, {"y", "o"}})));
  EXPECT_TRUE(r.Contains(Make({{"x", "s2"}, {"y", "o"}})));
}

TEST_F(EvaluatorTest, TriplePatternWithRepeatedVariable) {
  Graph g = Load("a p a .\na p b .");
  MappingSet r = EvalPattern(g, Parse("(?x p ?x)"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}})));
}

TEST_F(EvaluatorTest, GroundTriplePatternYieldsEmptyMapping) {
  Graph g = Load("a p b .");
  MappingSet r = EvalPattern(g, Parse("(a p b)"));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.mappings()[0].empty());
  EXPECT_TRUE(EvalPattern(g, Parse("(a p c)")).empty());
}

TEST_F(EvaluatorTest, AndJoins) {
  Graph g = Load("a knows b .\nb knows c .\nb age x .");
  MappingSet r = EvalPattern(g, Parse("(?x knows ?y) AND (?y age ?a)"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}, {"y", "b"}, {"a", "x"}})));
}

TEST_F(EvaluatorTest, UnionCollectsBoth) {
  Graph g = Load("a p b .\nc q d .");
  MappingSet r = EvalPattern(g, Parse("(?x p ?y) UNION (?x q ?y)"));
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(EvaluatorTest, OptExtendsWhenPossible) {
  Graph g = Load("a born chile .\nb born chile .\na email m .");
  MappingSet r = EvalPattern(g, Parse("(?x born chile) OPT (?x email ?e)"));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}, {"e", "m"}})));
  EXPECT_TRUE(r.Contains(Make({{"x", "b"}})));
}

TEST_F(EvaluatorTest, MinusKeepsIncompatibleOnly) {
  Graph g = Load("a born chile .\nb born chile .\na email m .");
  MappingSet r = EvalPattern(g, Parse("(?x born chile) MINUS (?x email ?e)"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "b"}})));
}

TEST_F(EvaluatorTest, FilterApplies) {
  Graph g = Load("a p b .\nc p d .");
  MappingSet r = EvalPattern(g, Parse("(?x p ?y) FILTER ?x = a"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}, {"y", "b"}})));
}

TEST_F(EvaluatorTest, SelectProjects) {
  Graph g = Load("a p b .\nc p b .");
  MappingSet r = EvalPattern(g, Parse("(SELECT {?y} WHERE (?x p ?y))"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"y", "b"}})));
}

TEST_F(EvaluatorTest, NsKeepsMaximalAnswers) {
  Graph g = Load("a p b .\na q c .");
  // (?x p b) UNION ((?x p b) AND (?x q ?y)) produces [x→a] and [x→a,y→c].
  MappingSet r = EvalPattern(
      g, Parse("NS((?x p b) UNION ((?x p b) AND (?x q ?y)))"));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}, {"y", "c"}})));
}

TEST_F(EvaluatorTest, OptIsJoinPlusMinus) {
  // ⟦P1 OPT P2⟧ = ⟦P1 AND P2⟧ ∪ ⟦P1 MINUS P2⟧ on random data.
  Rng rng(5);
  PatternGenSpec spec;
  spec.max_depth = 2;
  for (int i = 0; i < 30; ++i) {
    PatternPtr p1 = GenerateRandomPattern(spec, &dict_, &rng);
    PatternPtr p2 = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(12, 4, &dict_, &rng, "i");
    MappingSet opt = EvalPattern(g, Pattern::Opt(p1, p2));
    MappingSet decomposed = MappingSet::UnionSets(
        EvalPattern(g, Pattern::And(p1, p2)),
        EvalPattern(g, Pattern::Minus(p1, p2)));
    EXPECT_EQ(opt, decomposed);
  }
}

TEST_F(EvaluatorTest, JoinEnginesAgreeOnRandomPatterns) {
  Rng rng(17);
  PatternGenSpec spec;
  spec.allow_opt = spec.allow_filter = spec.allow_select = true;
  spec.allow_minus = spec.allow_ns = true;
  spec.max_depth = 3;
  EvalOptions nested;
  nested.join = EvalOptions::Join::kNestedLoop;
  nested.ns = EvalOptions::NsAlgo::kNaive;
  for (int i = 0; i < 60; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(15, 4, &dict_, &rng, "i");
    EXPECT_EQ(EvalPattern(g, p), EvalPattern(g, p, nested));
  }
}

TEST_F(EvaluatorTest, IndexNestedLoopJoinAgrees) {
  Rng rng(818);
  PatternGenSpec spec;
  spec.allow_opt = spec.allow_filter = spec.allow_select = true;
  spec.max_depth = 3;
  EvalOptions inl;
  inl.join = EvalOptions::Join::kIndexNestedLoop;
  for (int i = 0; i < 60; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(15, 4, &dict_, &rng, "inl");
    EXPECT_EQ(EvalPattern(g, p), EvalPattern(g, p, inl));
  }
}

TEST_F(EvaluatorTest, IndexNestedLoopHandlesRepeatedVars) {
  Graph g = Load("a p a .\na p b .\nb q a .");
  EvalOptions inl;
  inl.join = EvalOptions::Join::kIndexNestedLoop;
  // Right triple shares ?x twice: (?x q ?x) never matches; (?y q ?x) does.
  MappingSet r = EvalPattern(g, Parse("(?x p ?x) AND (?y q ?x)"), inl);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Make({{"x", "a"}, {"y", "b"}})));
  EXPECT_TRUE(
      EvalPattern(g, Parse("(?x p ?y) AND (?x q ?x)"), inl).empty());
}

TEST_F(EvaluatorTest, OptAgreesAcrossJoinStrategies) {
  // Promised by the kIndexNestedLoop note in evaluator.h: OPT skips the
  // index-join shortcut and runs the one-pass ⟕ kernel on a materialized
  // ⟦P2⟧G, as under kHash, while kNestedLoop keeps (P1 ⋈ P2) ∪ (P1 ∖ P2).
  // All three strategies must agree on OPT-heavy patterns — both where the
  // optional side matches and where it dangles.
  Graph g = Load("a p b .\nc p d .\nb q e .\ne r f .");
  const char* queries[] = {
      "(?x p ?y) OPT (?y q ?z)",
      "((?x p ?y) OPT (?y q ?z)) OPT (?z r ?w)",
      "((?x p ?y) AND (?y q ?z)) OPT (?z r ?w)",
      "(?x p ?y) OPT ((?y q ?z) AND (?z r ?w))",
  };
  EvalOptions hash, nested, inl;
  hash.join = EvalOptions::Join::kHash;
  nested.join = EvalOptions::Join::kNestedLoop;
  inl.join = EvalOptions::Join::kIndexNestedLoop;
  for (const char* q : queries) {
    PatternPtr p = Parse(q);
    MappingSet expected = EvalPattern(g, p, hash);
    EXPECT_EQ(expected, EvalPattern(g, p, nested)) << q;
    EXPECT_EQ(expected, EvalPattern(g, p, inl)) << q;
  }
  // And on random OPT-rich patterns.
  Rng rng(515);
  PatternGenSpec spec;
  spec.allow_opt = true;
  spec.max_depth = 4;
  for (int i = 0; i < 40; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph rg = GenerateRandomGraph(15, 4, &dict_, &rng, "opt");
    MappingSet expected = EvalPattern(rg, p, hash);
    EXPECT_EQ(expected, EvalPattern(rg, p, nested));
    EXPECT_EQ(expected, EvalPattern(rg, p, inl));
  }
}


TEST_F(EvaluatorTest, EmptyGraphYieldsNoAnswers) {
  Graph g;
  EXPECT_TRUE(EvalPattern(g, Parse("(?x p ?y) OPT (?x q ?z)")).empty());
}

}  // namespace
}  // namespace rdfql
