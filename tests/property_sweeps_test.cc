// Parameterized property sweeps: the same battery of invariants run over
// every language fragment × several random seeds. Each (fragment, seed)
// instantiation draws fresh patterns and graphs and checks:
//   1. the three join engines and the bucketed/naive NS agree,
//   2. the independent reference evaluator agrees,
//   3. the optimizer preserves semantics,
//   4. weakly-monotone-by-construction fragments are never refuted.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/monotonicity.h"
#include "eval/evaluator.h"
#include "eval/reference_evaluator.h"
#include "optimize/optimizer.h"
#include "util/random.h"
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
  /// The fragment is weakly monotone by construction (AUFS-like or
  /// simple-pattern-like shapes).
  bool weakly_monotone_by_construction;
};

constexpr FragmentCase kFragments[] = {
    {"AU", false, false, false, false, false, true},
    {"AUF", false, true, false, false, false, true},
    {"AUFS", false, true, true, false, false, true},
    {"AUOF", true, true, false, false, false, false},
    {"AUOFS", true, true, true, false, false, false},
    {"full-NS-SPARQL", true, true, true, true, true, false},
};

using SweepParam = std::tuple<int /*fragment index*/, uint64_t /*seed*/>;

class PropertySweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  PropertySweep() {
    const FragmentCase& fragment = kFragments[std::get<0>(GetParam())];
    spec_.allow_opt = fragment.opt;
    spec_.allow_filter = fragment.filter;
    spec_.allow_select = fragment.select;
    spec_.allow_minus = fragment.minus;
    spec_.allow_ns = fragment.ns;
    spec_.max_depth = 3;
  }

  const FragmentCase& fragment() const {
    return kFragments[std::get<0>(GetParam())];
  }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  Dictionary dict_;
  PatternGenSpec spec_;
};

TEST_P(PropertySweep, EnginesAgreeOnRandomInputs) {
  Rng rng(seed());
  EvalOptions nested;
  nested.join = EvalOptions::Join::kNestedLoop;
  nested.ns = EvalOptions::NsAlgo::kNaive;
  EvalOptions inl;
  inl.join = EvalOptions::Join::kIndexNestedLoop;
  for (int i = 0; i < 25; ++i) {
    PatternPtr p = GenerateRandomPattern(spec_, &dict_, &rng);
    Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "ps");
    MappingSet baseline = EvalPattern(g, p);
    EXPECT_EQ(baseline, EvalPattern(g, p, nested));
    EXPECT_EQ(baseline, EvalPattern(g, p, inl));
    EXPECT_EQ(baseline, ReferenceEval(g, p));
  }
}

TEST_P(PropertySweep, OptimizerPreservesSemantics) {
  Rng rng(seed() + 1);
  for (int i = 0; i < 20; ++i) {
    PatternPtr p = GenerateRandomPattern(spec_, &dict_, &rng);
    Graph g = GenerateRandomGraph(14, 4, &dict_, &rng, "po");
    GraphStats stats = GraphStats::Collect(g);
    Optimizer opt(&stats);
    EXPECT_EQ(EvalPattern(g, p), EvalPattern(g, opt.Optimize(p)));
  }
}

TEST_P(PropertySweep, MonotoneFragmentsAreNeverRefuted) {
  if (!fragment().weakly_monotone_by_construction) {
    GTEST_SKIP() << "fragment admits non-weakly-monotone patterns";
  }
  Rng rng(seed() + 2);
  MonotonicityOptions opts;
  opts.trials = 60;
  opts.seed = seed() + 3;
  for (int i = 0; i < 10; ++i) {
    PatternPtr p = GenerateRandomPattern(spec_, &dict_, &rng);
    EXPECT_FALSE(
        FindWeakMonotonicityCounterexample(p, &dict_, opts).has_value());
    // These fragments are in fact monotone.
    EXPECT_FALSE(
        FindMonotonicityCounterexample(p, &dict_, opts).has_value());
  }
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const FragmentCase& fragment = kFragments[std::get<0>(info.param)];
  std::string name = fragment.name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFragments, PropertySweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(uint64_t{11}, uint64_t{23},
                                         uint64_t{47})),
    SweepName);

}  // namespace
}  // namespace rdfql
