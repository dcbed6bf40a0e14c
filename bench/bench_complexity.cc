// E10-E13 (DESIGN.md): the Section 7 complexity landscape, measured. For
// each fragment the combined complexity predicts worst-case exponential
// cost in the *query* and polynomial cost in the *data* for any correct
// evaluator; this bench generates reduction instances (Theorems 7.1-7.3)
// of growing size and times their evaluation, and prints the summary table
// of Section 7 alongside the measured growth.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/fragments.h"
#include "complexity/hierarchy_reductions.h"
#include "complexity/qbf.h"
#include "complexity/sat_solver.h"
#include "core/engine.h"
#include "util/check.h"
#include "util/random.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

void PrintComplexityTable() {
  std::printf(
      "== Section 7: combined complexity of Eval (paper's results) ==\n"
      "fragment                      | combined complexity\n"
      "SPARQL[AUFS]                  | NP-complete            [37]\n"
      "well-designed SPARQL[AOF]     | coNP-complete          [29]\n"
      "SP-SPARQL (simple patterns)   | DP-complete            (Thm 7.1)\n"
      "USP-SPARQL_k                  | BH_2k-complete         (Thm 7.2)\n"
      "USP-SPARQL                    | PNP||-complete         (Thm 7.3)\n"
      "CONSTRUCT[AUF]                | NP-complete            (Thm 7.4)\n"
      "wd + top SELECT               | Sigma^p_2-complete     [23]\n\n");
}

// --- E10: Theorem 7.1 (DP) — SAT-UNSAT instances, #vars sweep. ---
void BM_SatUnsatEvaluation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7100 + n);
  Dictionary dict;
  // Random pairs near the 2-SAT-ish density so both outcomes occur.
  Cnf phi = RandomCnf(n, 2 * n, 2, &rng);
  Cnf psi = RandomCnf(n, 3 * n, 2, &rng);
  EvalInstance inst = SatUnsatToSimplePattern(phi, psi, &dict, "b");
  bool expected =
      SolveSat(phi).satisfiable && !SolveSat(psi).satisfiable;
  // The work count `bench_json_check --expect-growth` asserts grows with n:
  // mappings materialized by one untimed evaluation. Deterministic, so the
  // growth check cannot fail on timing noise.
  ResourceAccountant acct;
  EvalOptions counted;
  counted.accountant = &acct;
  RDFQL_CHECK(DecideByEvaluation(inst, counted) == expected);
  for (auto _ : state) {
    bool got = DecideByEvaluation(inst);
    RDFQL_CHECK(got == expected);
    benchmark::DoNotOptimize(got);
  }
  state.counters["pattern_nodes"] =
      static_cast<double>(inst.pattern->SizeInNodes());
  state.counters[bench::kGrowthCounter] =
      static_cast<double>(acct.total_mappings());
}
BENCHMARK(BM_SatUnsatEvaluation)->DenseRange(2, 8);

// --- E11: Theorem 7.2 (BH_2k) — exact color sets, k sweep. ---
void BM_ExactColorSetEvaluation(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  Dictionary dict;
  // C5 (χ=3); color sets {3}, {3,4}, {3,4,5}, ... of width k.
  SimpleGraph c5;
  c5.n = 5;
  for (int i = 0; i < 5; ++i) c5.edges.emplace_back(i, (i + 1) % 5);
  std::vector<int> colors;
  for (int m = 3; m < 3 + k; ++m) colors.push_back(m);
  EvalInstance inst = ExactColorSetToUsp(c5, colors, &dict);
  bool expected = IsExactColorSetColorable(c5, colors);
  for (auto _ : state) {
    bool got = DecideByEvaluation(inst);
    RDFQL_CHECK(got == expected);
    benchmark::DoNotOptimize(got);
  }
  state.counters["disjuncts"] = static_cast<double>(k);
  state.counters["pattern_nodes"] =
      static_cast<double>(inst.pattern->SizeInNodes());
}
BENCHMARK(BM_ExactColorSetEvaluation)->DenseRange(1, 3);

// --- E12: Theorem 7.3 (PNP||) — MAX-ODD-SAT, #vars sweep. ---
void BM_MaxOddSatEvaluation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7300 + n);
  Dictionary dict;
  Cnf phi = RandomCnf(n, n, 2, &rng);
  EvalInstance inst = MaxOddSatToUsp(phi, &dict);
  bool expected = IsMaxOddSat(phi);
  for (auto _ : state) {
    bool got = DecideByEvaluation(inst);
    RDFQL_CHECK(got == expected);
    benchmark::DoNotOptimize(got);
  }
  state.counters["disjuncts"] =
      static_cast<double>(NsPatternWidth(inst.pattern));
}
BENCHMARK(BM_MaxOddSatEvaluation)->DenseRange(2, 5);

// --- E13 (data complexity side): a FIXED simple pattern over growing
// graphs stays polynomial — the flip side of combined hardness. ---
void BM_FixedPatternGrowingData(benchmark::State& state) {
  Rng rng(13);
  Dictionary dict;
  Cnf phi = RandomCnf(3, 5, 2, &rng);
  Cnf psi = RandomCnf(3, 7, 2, &rng);
  EvalInstance inst = SatUnsatToSimplePattern(phi, psi, &dict, "fix");
  // Pad the graph with unrelated triples.
  Graph g = inst.graph;
  for (int i = 0; i < state.range(0); ++i) {
    g.Insert(dict.InternIri("pad" + std::to_string(i)),
             dict.InternIri("padp"), dict.InternIri("pado"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPattern(g, inst.pattern));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FixedPatternGrowingData)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity(benchmark::oAuto);

// --- The PSPACE backdrop: QBF instances through full SPARQL. The
// alternation depth drives the cost — each ∀ doubles the complement
// work, which is the PSPACE-hardness showing up empirically. ---
void BM_QbfEvaluation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7400 + n);
  Dictionary dict;
  Qbf qbf = RandomQbf(n, n + 1, 2, &rng, /*start_with_forall=*/true);
  EvalInstance inst = QbfToPattern(qbf, &dict, "qbf");
  bool expected = SolveQbf(qbf);
  for (auto _ : state) {
    bool got = DecideByEvaluation(inst);
    RDFQL_CHECK(got == expected);
    benchmark::DoNotOptimize(got);
  }
  state.counters["alternations"] = static_cast<double>(n);
}
BENCHMARK(BM_QbfEvaluation)->DenseRange(2, 6);

// --- The SAT substrate itself (reference oracle cost). ---
void BM_DpllRandom3Sat(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(4242);
  std::vector<Cnf> instances;
  for (int i = 0; i < 20; ++i) {
    instances.push_back(RandomCnf(n, static_cast<int>(n * 4.26), 3, &rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveSat(instances[i % instances.size()]));
    ++i;
  }
}
BENCHMARK(BM_DpllRandom3Sat)->Arg(10)->Arg(20)->Arg(30);

}  // namespace
}  // namespace rdfql

int main(int argc, char** argv) {
  rdfql::PrintComplexityTable();
  return rdfql::bench::BenchMain(argc, argv, "bench_complexity");
}
