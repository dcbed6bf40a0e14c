// E13/E16 (DESIGN.md): evaluation scaling per fragment over the synthetic
// social graph, plus the join-engine ablation (indexed hash join vs the
// nested-loop reference) — data complexity is polynomial for every
// fragment; the constants differ.

#include <benchmark/benchmark.h>

#include <string>

#include "core/engine.h"
#include "eval/evaluator.h"
#include "util/check.h"
#include "workload/graph_generator.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

struct NamedQuery {
  const char* name;
  const char* text;
};

// One representative query per fragment of the paper.
constexpr NamedQuery kQueries[] = {
    {"AF", "((?x was_born_in ?c) AND (?x email ?e)) FILTER !(?c = ?e)"},
    {"AUF",
     "((?x founder ?o) UNION (?x supporter ?o)) AND (?o stands_for ?w)"},
    {"AUFS",
     "(SELECT {?x ?w} WHERE (((?x founder ?o) UNION (?x supporter ?o)) AND "
     "(?o stands_for ?w)))"},
    {"WD-AOF", "((?x was_born_in ?c) AND (?x name ?n)) OPT (?x email ?e)"},
    {"SP",
     "NS(((?x was_born_in ?c) AND (?x name ?n)) UNION "
     "(((?x was_born_in ?c) AND (?x name ?n)) AND (?x email ?e)))"},
    {"USP",
     "NS((?x founder ?o) UNION ((?x founder ?o) AND (?x email ?e))) UNION "
     "NS((?x supporter ?o) UNION ((?x supporter ?o) AND (?x email ?e)))"},
};

void RunFragmentQuery(benchmark::State& state, const char* family,
                      const NamedQuery& q, EvalOptions options) {
  Engine engine;
  SocialGraphSpec spec;
  spec.num_people = static_cast<int>(state.range(0));
  Graph g = GenerateSocialGraph(spec, engine.dict());
  Result<PatternPtr> p = engine.Parse(q.text);
  RDFQL_CHECK(p.ok());
  options.threads = bench::CliThreads();
  ResourceAccountant acct;
  options.accountant = &acct;
  size_t answers = 0;
  for (auto _ : state) {
    MappingSet r = EvalPattern(g, p.value(), options);
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["triples"] = static_cast<double>(g.size());
  state.counters["threads"] = static_cast<double>(options.threads);
  state.counters["peak_mappings"] =
      static_cast<double>(acct.peak_mappings());
  // Embed the memory figures as a per-case metrics snapshot (the --json
  // document's "metrics" object; google-benchmark's State has no name
  // accessor, so the case name is rebuilt from family + arg).
  RegistrySnapshot snap;
  snap.gauges["engine.peak_mappings"] =
      static_cast<int64_t>(acct.peak_mappings());
  snap.gauges["engine.peak_bytes"] = static_cast<int64_t>(acct.peak_bytes());
  snap.counters["engine.total_mappings"] = acct.total_mappings();
  bench::SetCaseMetrics(
      std::string(family) + "/" + std::to_string(state.range(0)), snap);
  state.SetComplexityN(state.range(0));
}

void BM_FragmentAF(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentAF", kQueries[0], {});
}
void BM_FragmentAUF(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentAUF", kQueries[1], {});
}
void BM_FragmentAUFS(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentAUFS", kQueries[2], {});
}
void BM_FragmentWdAof(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentWdAof", kQueries[3], {});
}
void BM_FragmentSP(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentSP", kQueries[4], {});
}
void BM_FragmentUSP(benchmark::State& state) {
  RunFragmentQuery(state, "BM_FragmentUSP", kQueries[5], {});
}
BENCHMARK(BM_FragmentAF)->RangeMultiplier(4)->Range(64, 4096);
BENCHMARK(BM_FragmentAUF)->RangeMultiplier(4)->Range(64, 4096);
BENCHMARK(BM_FragmentAUFS)->RangeMultiplier(4)->Range(64, 4096);
BENCHMARK(BM_FragmentWdAof)->RangeMultiplier(4)->Range(64, 4096);
BENCHMARK(BM_FragmentSP)->RangeMultiplier(4)->Range(64, 4096);
BENCHMARK(BM_FragmentUSP)->RangeMultiplier(4)->Range(64, 4096);

// Join ablation on the AUF query: it joins a UNION of two scans with one
// scan, so it makes no large×large join.
void BM_JoinHash(benchmark::State& state) {
  EvalOptions options;
  options.join = EvalOptions::Join::kHash;
  RunFragmentQuery(state, "BM_JoinHash", kQueries[1], options);
}
BENCHMARK(BM_JoinHash)->RangeMultiplier(4)->Range(64, 2048);

void BM_JoinNestedLoop(benchmark::State& state) {
  EvalOptions options;
  options.join = EvalOptions::Join::kNestedLoop;
  RunFragmentQuery(state, "BM_JoinNestedLoop", kQueries[1], options);
}
BENCHMARK(BM_JoinNestedLoop)->RangeMultiplier(4)->Range(64, 2048);

void BM_JoinIndexNestedLoop(benchmark::State& state) {
  EvalOptions options;
  options.join = EvalOptions::Join::kIndexNestedLoop;
  RunFragmentQuery(state, "BM_JoinIndexNestedLoop", kQueries[1], options);
}
BENCHMARK(BM_JoinIndexNestedLoop)->RangeMultiplier(4)->Range(64, 2048);

// Micro ablation of the Mapping kernels inside the join inner loop:
// disjoint VarId ranges take the concatenation fast path, overlapping
// ranges take the full merge walk. The delta between the two families is
// the fast path's saving at each mapping width.
void RunMappingOps(benchmark::State& state, bool disjoint) {
  const VarId width = static_cast<VarId>(state.range(0));
  Mapping a, b;
  for (VarId i = 0; i < width; ++i) a.Set(i, i + 1);
  const VarId offset = disjoint ? width : width / 2;
  for (VarId i = 0; i < width; ++i) b.Set(offset + i, offset + i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CompatibleWith(b));
    Mapping u = a.UnionWith(b);
    benchmark::DoNotOptimize(u);
  }
  state.counters["bindings_out"] =
      static_cast<double>(a.UnionWith(b).size());
  state.SetComplexityN(state.range(0));
}

void BM_MappingOpsDisjoint(benchmark::State& state) {
  RunMappingOps(state, /*disjoint=*/true);
}
BENCHMARK(BM_MappingOpsDisjoint)->RangeMultiplier(4)->Range(8, 512);

void BM_MappingOpsOverlapping(benchmark::State& state) {
  RunMappingOps(state, /*disjoint=*/false);
}
BENCHMARK(BM_MappingOpsOverlapping)->RangeMultiplier(4)->Range(8, 512);

}  // namespace
}  // namespace rdfql

RDFQL_BENCH_MAIN("bench_eval_scaling")
