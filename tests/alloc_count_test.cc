// Heap allocations per read, counted by the rdfql_alloc_counter library
// (which replaces the global operator new, so this binary runs alone), on
// the reads of the ledger's workloads (perfbench/workloads.cc), single
// threaded. A read comes after a warm-up read of the same text (which
// builds the graph's lazy indexes); it may allocate at most max(rows, 128)
// times, i.e. under one allocation per result row on every large read, plus
// a fixed allowance for parsing, planning and the operators' tables on small
// ones.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/pattern_printer.h"
#include "core/engine.h"
#include "core/query_cache.h"
#include "util/alloc_counter.h"
#include "workload/graph_generator.h"
#include "workload/university_generator.h"

namespace rdfql {
namespace {

constexpr const char* kGraph = "g";

// The optional-information query of the paper's §8 question, as OPT and
// as NS(P1 ∪ (P1 AND P2)).
constexpr const char* kOptQuery =
    "((?x was_born_in ?c) AND (?x name ?n)) OPT (?x email ?e)";
constexpr const char* kNsQuery =
    "NS(((?x was_born_in ?c) AND (?x name ?n)) UNION "
    "(((?x was_born_in ?c) AND (?x name ?n)) AND (?x email ?e)))";

struct Read {
  std::string name;
  std::string text;
};

// Runs each read once to warm up, then once counted, and checks the count.
void ExpectFewAllocations(Engine* engine, const std::vector<Read>& reads) {
  for (const Read& read : reads) {
    ASSERT_TRUE(engine->Query(kGraph, read.text).ok()) << read.name;
    const uint64_t before = AllocationCount();
    Result<MappingSet> result = engine->Query(kGraph, read.text);
    const uint64_t allocations = AllocationCount() - before;
    ASSERT_TRUE(result.ok()) << read.name;
    const uint64_t rows = result.value().size();
    EXPECT_LE(allocations, std::max<uint64_t>(rows, 128))
        << read.name << ": " << rows << " rows";
    std::printf("%-24s %6llu rows %6llu allocations\n", read.name.c_str(),
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(allocations));
  }
}

TEST(AllocCountTest, OptNsReadsAllocateUnderOnePerRow) {
  Engine engine;
  SocialGraphSpec spec;
  spec.num_people = 2048;
  spec.email_probability = 0.5;
  spec.seed = 1;
  engine.PutGraph(kGraph, GenerateSocialGraph(spec, engine.dict()));
  // Thm 5.1 alone: the paper's MINUS/UNION encoding of the NS query.
  TranslateOptions options;
  options.optimize = false;
  options.union_normal_form = false;
  Result<TranslationExplanation> rewrite =
      engine.TranslateExplained(kNsQuery, options);
  ASSERT_TRUE(rewrite.ok());
  ExpectFewAllocations(
      &engine,
      {{"opt", kOptQuery},
       {"ns", kNsQuery},
       {"rewrite", PatternToString(rewrite.value().output, *engine.dict())}});
}

TEST(AllocCountTest, UniversityMixReadsAllocateUnderOnePerRow) {
  Engine engine;
  UniversitySpec spec;
  spec.num_universities = 8;
  spec.seed = 1;
  engine.PutGraph(kGraph, GenerateUniversityGraph(spec, engine.dict()));
  std::vector<Read> reads;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    reads.push_back({q.name, q.text});
  }
  ExpectFewAllocations(&engine, reads);
}

// Churn's reads: the mix texts and a point lookup on 4 universities through
// QueryJson behind a result cache, once right after a write (a miss: plan
// hit, evaluation, rendering, caching) and once again (a hit: rendering the
// cached set).
TEST(AllocCountTest, ChurnJsonReadsAllocateUnderOnePerRow) {
  Engine engine;
  UniversitySpec spec;
  spec.num_universities = 4;
  spec.seed = 1;
  engine.PutGraph(kGraph, GenerateUniversityGraph(spec, engine.dict()));
  QueryCache cache;
  engine.SetQueryCache(&cache);
  std::vector<Read> reads;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    reads.push_back({q.name, q.text});
  }
  reads.push_back({"lookup_advisor_email",
                   "(u0_d0_stud1 advisor ?p) OPT (?p email ?e)"});
  int writes = 0;
  for (const Read& read : reads) {
    ASSERT_TRUE(engine.QueryJson(kGraph, read.text).ok()) << read.name;
    Result<MappingSet> answer = engine.Query(kGraph, read.text);
    ASSERT_TRUE(answer.ok()) << read.name;
    const uint64_t rows = answer.value().size();
    ASSERT_TRUE(engine
                    .LoadGraphText(kGraph, "new" + std::to_string(writes++) +
                                               " studies_at u0_d0 .\n")
                    .ok());
    for (const char* path : {"miss", "hit"}) {
      const uint64_t before = AllocationCount();
      Result<std::string> json = engine.QueryJson(kGraph, read.text);
      const uint64_t allocations = AllocationCount() - before;
      ASSERT_TRUE(json.ok()) << read.name;
      EXPECT_LE(allocations, std::max<uint64_t>(rows, 128))
          << read.name << " (" << path << "): " << rows << " rows";
      std::printf("%-24s %-4s %6llu rows %6llu allocations\n",
                  read.name.c_str(), path,
                  static_cast<unsigned long long>(rows),
                  static_cast<unsigned long long>(allocations));
    }
  }
}

}  // namespace
}  // namespace rdfql
