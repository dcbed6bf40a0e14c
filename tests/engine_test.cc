#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/pattern_printer.h"
#include "core/query_cache.h"
#include "optimize/optimizer.h"
#include "workload/scenarios.h"

namespace rdfql {
namespace {

TEST(EngineTest, LoadAndQuery) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a knows b .\nb knows c .").ok());
  Result<MappingSet> r = engine.Query("g", "(?x knows ?y)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(EngineTest, LoadAppendsToExistingGraph) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  ASSERT_TRUE(engine.LoadGraphText("g", "c p d .").ok());
  Result<const Graph*> g = engine.GetGraph("g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g)->size(), 2u);
}

TEST(EngineTest, UnknownGraphIsNotFound) {
  Engine engine;
  Result<MappingSet> r = engine.Query("missing", "(?x p ?y)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, ParseErrorsPropagate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  EXPECT_FALSE(engine.Query("g", "(?x p").ok());
}

TEST(EngineTest, PutGraphReplaces) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  Graph replacement;
  engine.PutGraph("g", replacement);
  Result<const Graph*> g = engine.GetGraph("g");
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE((*g)->empty());
}

TEST(EngineTest, ClassifyWellDesignedOpt) {
  Engine engine;
  Result<PatternPtr> p = engine.Parse(scenarios::Example31Query());
  ASSERT_TRUE(p.ok());
  PatternReport report = engine.Classify(p.value());
  EXPECT_EQ(report.fragment, "SPARQL[O]");
  EXPECT_TRUE(report.well_designed);
  EXPECT_TRUE(report.union_well_designed);
  EXPECT_FALSE(report.simple_pattern);
  EXPECT_TRUE(report.syntactically_subsumption_free);
  EXPECT_TRUE(report.looks_weakly_monotone);
  EXPECT_FALSE(report.looks_monotone);
  EXPECT_TRUE(report.looks_subsumption_free);
}

TEST(EngineTest, ClassifyExample33) {
  Engine engine;
  Result<PatternPtr> p = engine.Parse(scenarios::Example33Query());
  ASSERT_TRUE(p.ok());
  PatternReport report = engine.Classify(p.value());
  EXPECT_FALSE(report.well_designed);
  EXPECT_FALSE(report.looks_weakly_monotone);
}

TEST(EngineTest, ClassifySimplePattern) {
  Engine engine;
  Result<PatternPtr> p =
      engine.Parse("NS((?x a ?y) UNION ((?x a ?y) AND (?y b ?z)))");
  ASSERT_TRUE(p.ok());
  PatternReport report = engine.Classify(p.value());
  EXPECT_TRUE(report.simple_pattern);
  EXPECT_TRUE(report.ns_pattern);
  EXPECT_TRUE(report.looks_weakly_monotone);
  EXPECT_TRUE(report.looks_subsumption_free);
}

TEST(EngineTest, AskQueries) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .").ok());
  Result<bool> yes = engine.Ask("g", "(?x p ?y)");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Result<bool> no = engine.Ask("g", "(?x q ?y)");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  EXPECT_FALSE(engine.Ask("missing", "(?x p ?y)").ok());
}

TEST(EngineTest, CsvAndJsonSerialization) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\nc p d .").ok());
  Result<std::string> csv = engine.QueryCsv("g", "(?x p ?y)");
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(*csv, "x,y\na,b\nc,d\n");
  Result<std::string> json = engine.QueryJson("g", "(?x p ?y)");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"vars\":[\"x\",\"y\"]"), std::string::npos);
  EXPECT_NE(json->find("\"value\":\"b\""), std::string::npos);
}

TEST(EngineTest, ConstructQueryEndToEnd) {
  Engine engine;
  Graph g = scenarios::ProfessorsGraph(engine.dict());
  engine.PutGraph("profs", std::move(g));
  Result<ConstructQuery> q =
      engine.ParseConstructQuery(scenarios::Example61ConstructQuery());
  ASSERT_TRUE(q.ok());
  Result<const Graph*> input = engine.GetGraph("profs");
  ASSERT_TRUE(input.ok());
  EXPECT_EQ(q->Answer(**input).size(), 4u);
}

// (?x p o0) UNION ... UNION (?x p o{n-1}): the flat UNIONs the UNION normal
// form (Prop D.1) and the UCQ translation (Thm C.8) build.
std::string FlatUnion(int n) {
  std::string query;
  for (int i = 0; i < n; ++i) {
    if (i > 0) query += " UNION ";
    query += "(?x p o" + std::to_string(i) + ")";
  }
  return query;
}

// With metrics on, a flat UNION of 20,000 disjuncts evaluates on the
// iterative spine instead of recursing once per UNION node.
TEST(EngineTest, DeepUnionWithMetricsAnswers) {
  Engine engine;
  engine.EnableMetrics();
  ASSERT_TRUE(engine.LoadGraphText("g", "a p o19999 .").ok());
  Result<bool> r = engine.Ask("g", FlatUnion(20000));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
}

TEST(EngineTest, DeepUnionExplainsAsOneSpine) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p o19999 .").ok());
  Result<QueryExplanation> e = engine.QueryExplained("g", FlatUnion(20000));
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->result().size(), 1u);
  // One UNION node for the whole spine, its disjuncts as the children.
  const PlanNode& root = *e->explanation.plan;
  EXPECT_EQ(root.label, "UNION");
  EXPECT_EQ(root.cardinality, 1u);
  ASSERT_EQ(root.children.size(), 20000u);
  EXPECT_EQ(root.children.back()->label, "TRIPLE (?x p o19999)");
  EXPECT_EQ(root.children.back()->cardinality, 1u);
}

TEST(EngineTest, DeepUnionPrintsAndOptimizes) {
  Engine engine;
  ASSERT_TRUE(engine.LoadGraphText("g", "a p o19999 .").ok());
  Result<PatternPtr> p = engine.Parse(FlatUnion(20000));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  // The parser associates left, and every binary UNION prints in parens.
  std::string expected(19999, '(');
  expected += "(?x p o0)";
  for (int i = 1; i < 20000; ++i) {
    expected += " UNION (?x p o" + std::to_string(i) + "))";
  }
  EXPECT_EQ(PatternToString(*p, *engine.dict()), expected);

  Result<const Graph*> g = engine.GetGraph("g");
  ASSERT_TRUE(g.ok());
  GraphStats stats = GraphStats::Collect(**g);
  PatternPtr optimized = Optimizer(&stats).Optimize(*p);
  EXPECT_EQ(PatternToString(optimized, *engine.dict()), expected);
}

uint64_t CounterOf(Engine* engine, const std::string& name) {
  RegistrySnapshot snap = engine->MetricsSnapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(EngineTest, UnionDisjunctsRunAsPoolTasksWithMetrics) {
  Engine engine;
  engine.SetDefaultThreads(2);
  engine.EnableMetrics();
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\na q b .\na r b .").ok());
  uint64_t before = CounterOf(&engine, "pool.tasks_total");
  Result<MappingSet> r =
      engine.Query("g", "(?x p ?y) UNION (?x q ?y) UNION (?x r ?y)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(CounterOf(&engine, "pool.tasks_total") - before, 3u);
}

TEST(EngineTest, UnionSpineCountsEveryNodeWithMetrics) {
  Engine engine;
  engine.EnableMetrics();
  ASSERT_TRUE(engine.LoadGraphText("g", "a p b .\nc q d .").ok());
  Result<MappingSet> r = engine.Query(
      "g", "(?x p ?y) UNION (?x q ?y) UNION (?x r ?y) UNION (?x s ?y)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(CounterOf(&engine, "eval.nodes"), 7u);  // 3 UNIONs + 4 triples
}

// One writer and N readers on one engine. Every answer a reader gets must
// be the serial answer of one published version of the graph; replaying
// the writes on a private engine yields exactly those answers. Answers
// are compared by name, since the two engines intern terms in different
// orders.
class EngineCatalogTest : public ::testing::TestWithParam<int> {
 protected:
  // Non-monotone: an inserted q-edge removes answers.
  static constexpr const char* kQuery = "(?x p ?y) MINUS (?y q ?z)";
  static constexpr int kWrites = 120;

  static std::string Canonical(const MappingSet& set, const Dictionary& dict) {
    std::vector<std::string> rows;
    for (const Mapping& m : set) {
      std::string row;
      for (const auto& [var, value] : m.bindings()) {
        row += dict.VarName(var) + "=" + dict.IriName(value) + ";";
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    std::string out;
    for (const std::string& row : rows) out += row + "\n";
    return out;
  }

  static void Load(Engine* engine) {
    std::string text;
    for (int k = 0; k < 8; ++k) {
      text += "a" + std::to_string(k) + " p b" + std::to_string(k) + " .\n";
      if (k % 2 == 0) text += "b" + std::to_string(k) + " q c .\n";
    }
    ASSERT_TRUE(engine->LoadGraphText("g", text).ok());
  }

  // Write i: an inserted p-edge (one more answer), an inserted q-edge (some
  // answers fewer), or a PutGraph of a copy without its oldest triple.
  static void Write(Engine* engine, int i) {
    std::string n = std::to_string(i);
    std::string b = "b" + std::to_string(i % 16);
    if (i % 3 == 0) {
      ASSERT_TRUE(engine->LoadGraphText("g", "a" + n + "x p " + b + " .").ok());
    } else if (i % 3 == 1) {
      ASSERT_TRUE(engine->LoadGraphText("g", b + " q c" + n + " .").ok());
    } else {
      Result<const Graph*> current = engine->GetGraph("g");
      ASSERT_TRUE(current.ok());
      Graph next = **current;
      ASSERT_TRUE(next.Erase(next.triples().front()));
      engine->PutGraph("g", std::move(next));
    }
  }

  void Run(bool cached) {
    // The answer of every published version, in order: the replay.
    std::set<std::string> versions;
    std::string final_answer;
    {
      Engine serial;
      Load(&serial);
      for (int i = 0; i <= kWrites; ++i) {
        if (i > 0) Write(&serial, i - 1);
        Result<MappingSet> r = serial.Query("g", kQuery);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        final_answer = Canonical(*r, *serial.dict());
        versions.insert(final_answer);
      }
    }

    Engine engine;
    QueryCache cache{QueryCacheOptions{}};
    if (cached) engine.SetQueryCache(&cache);
    Load(&engine);
    const int readers = GetParam();
    std::atomic<int> started{0};
    std::atomic<int> reads{0};
    std::atomic<bool> done{false};
    std::vector<std::set<std::string>> seen(readers);
    std::vector<int> failures(readers, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        bool counted = false;
        do {
          Result<MappingSet> r = engine.Query("g", kQuery);
          if (!r.ok()) {
            ++failures[t];
          } else {
            seen[t].insert(Canonical(*r, *engine.dict()));
          }
          reads.fetch_add(1);
          if (!counted) {
            counted = true;
            started.fetch_add(1);
          }
        } while (!done.load());
      });
    }
    // Start writing once every reader is reading, and let at least one more
    // read finish after each write, so reads overlap the writes throughout.
    while (started.load() < readers) std::this_thread::yield();
    for (int i = 0; i < kWrites; ++i) {
      Write(&engine, i);
      const int next = reads.load() + 1;
      while (reads.load() < next) std::this_thread::yield();
    }
    done.store(true);
    for (std::thread& th : threads) th.join();

    for (int t = 0; t < readers; ++t) {
      EXPECT_EQ(failures[t], 0) << "reader " << t;
      for (const std::string& answer : seen[t]) {
        EXPECT_EQ(versions.count(answer), 1u)
            << "reader " << t << " saw an answer of no published version:\n"
            << answer;
      }
    }
    Result<MappingSet> last = engine.Query("g", kQuery);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(Canonical(*last, *engine.dict()), final_answer);
  }
};

TEST_P(EngineCatalogTest, ReadersSeeOnePublishedVersion) {
  Run(/*cached=*/false);
}

TEST_P(EngineCatalogTest, CachedReadersSeeOnePublishedVersion) {
  Run(/*cached=*/true);
}

INSTANTIATE_TEST_SUITE_P(Readers, EngineCatalogTest,
                         ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace rdfql
