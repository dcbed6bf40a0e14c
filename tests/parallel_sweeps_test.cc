// Serial/parallel equivalence sweeps: for threads ∈ {2, 4, 8} and every
// join strategy, random patterns from every language fragment evaluate to
// the SAME MappingSet — content and insertion order — as the serial
// evaluator, and EXPLAIN ANALYZE records the same per-operator
// cardinalities and work counters. This is the determinism contract of
// EvalOptions::threads (serial kernels, concurrent subtrees writing
// per-task result slots that are combined in pattern order).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "eval/evaluator.h"
#include "eval/explain.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/graph_generator.h"
#include "workload/pattern_generator.h"

namespace rdfql {
namespace {

struct FragmentCase {
  const char* name;
  bool opt;
  bool filter;
  bool select;
  bool minus;
  bool ns;
};

constexpr FragmentCase kFragments[] = {
    {"AU", false, false, false, false, false},
    {"AUFS", false, true, true, false, false},
    {"AUOFS", true, true, true, false, false},
    {"full-NS-SPARQL", true, true, true, true, true},
};

using ParallelParam = std::tuple<int /*threads*/, EvalOptions::Join>;

class ParallelSweep : public ::testing::TestWithParam<ParallelParam> {
 protected:
  int threads() const { return std::get<0>(GetParam()); }
  EvalOptions::Join join() const { return std::get<1>(GetParam()); }

  PatternGenSpec SpecFor(const FragmentCase& fragment) const {
    PatternGenSpec spec;
    spec.allow_opt = fragment.opt;
    spec.allow_filter = fragment.filter;
    spec.allow_select = fragment.select;
    spec.allow_minus = fragment.minus;
    spec.allow_ns = fragment.ns;
    spec.max_depth = 3;
    return spec;
  }

  Dictionary dict_;
};

// Plans must match node for node: same operator labels, same result
// cardinalities, same work counters (join_probes, ns_pairs_compared, ...).
void ExpectSamePlan(const PlanNode& serial, const PlanNode& parallel,
                    const std::string& path) {
  EXPECT_EQ(serial.label, parallel.label) << "at " << path;
  EXPECT_EQ(serial.cardinality, parallel.cardinality)
      << "at " << path << " (" << serial.label << ")";
  ASSERT_EQ(serial.counters.size(), parallel.counters.size())
      << "at " << path << " (" << serial.label << ")";
  for (size_t i = 0; i < serial.counters.size(); ++i) {
    EXPECT_EQ(serial.counters[i], parallel.counters[i])
        << "at " << path << " (" << serial.label << ")";
  }
  ASSERT_EQ(serial.children.size(), parallel.children.size())
      << "at " << path << " (" << serial.label << ")";
  for (size_t i = 0; i < serial.children.size(); ++i) {
    ExpectSamePlan(*serial.children[i], *parallel.children[i],
                   path + "/" + std::to_string(i));
  }
}

TEST_P(ParallelSweep, ParallelEqualsSerialOnRandomInputs) {
  EvalOptions serial;
  serial.join = join();
  EvalOptions parallel = serial;
  parallel.threads = threads();
  for (size_t f = 0; f < std::size(kFragments); ++f) {
    PatternGenSpec spec = SpecFor(kFragments[f]);
    Rng rng(1000 * (f + 1) + threads());
    for (int i = 0; i < 10; ++i) {
      PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
      Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "par");
      MappingSet want = EvalPattern(g, p, serial);
      MappingSet got = EvalPattern(g, p, parallel);
      ASSERT_EQ(want, got) << kFragments[f].name << " iter " << i;
      // Insertion order is part of the contract, not just set equality.
      ASSERT_EQ(want.mappings(), got.mappings())
          << kFragments[f].name << " iter " << i << ": order differs";
    }
  }
}

TEST_P(ParallelSweep, ExplainRowCountsMatchSerial) {
  EvalOptions serial;
  serial.join = join();
  EvalOptions parallel = serial;
  parallel.threads = threads();
  for (size_t f = 0; f < std::size(kFragments); ++f) {
    PatternGenSpec spec = SpecFor(kFragments[f]);
    Rng rng(2000 * (f + 1) + threads());
    for (int i = 0; i < 5; ++i) {
      PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
      Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "parx");
      Explanation want = ExplainEval(g, p, dict_, serial);
      Explanation got = ExplainEval(g, p, dict_, parallel);
      ASSERT_EQ(want.result, got.result)
          << kFragments[f].name << " iter " << i;
      ASSERT_TRUE(want.plan != nullptr && got.plan != nullptr);
      ExpectSamePlan(*want.plan, *got.plan, kFragments[f].name);
    }
  }
}

TEST_P(ParallelSweep, SharedExternalPoolMatchesSerial) {
  // An externally owned pool (the Engine's usage pattern) behaves the same
  // as an evaluator-private pool.
  ThreadPool pool(threads());
  EvalOptions serial;
  serial.join = join();
  EvalOptions parallel = serial;
  parallel.threads = threads();
  parallel.pool = &pool;
  PatternGenSpec spec = SpecFor(kFragments[3]);
  Rng rng(31 + threads());
  for (int i = 0; i < 10; ++i) {
    PatternPtr p = GenerateRandomPattern(spec, &dict_, &rng);
    Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "parp");
    MappingSet want = EvalPattern(g, p, serial);
    MappingSet got = EvalPattern(g, p, parallel);
    ASSERT_EQ(want.mappings(), got.mappings()) << "iter " << i;
  }
}

std::string ParallelName(
    const ::testing::TestParamInfo<ParallelParam>& info) {
  std::string join;
  switch (std::get<1>(info.param)) {
    case EvalOptions::Join::kHash:
      join = "Hash";
      break;
    case EvalOptions::Join::kNestedLoop:
      join = "NestedLoop";
      break;
    case EvalOptions::Join::kIndexNestedLoop:
      join = "IndexNestedLoop";
      break;
  }
  return join + "_t" + std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ParallelSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(EvalOptions::Join::kHash,
                                         EvalOptions::Join::kNestedLoop,
                                         EvalOptions::Join::kIndexNestedLoop)),
    ParallelName);

}  // namespace
}  // namespace rdfql
