// E9 (DESIGN.md): the paper's Section 8 question — "what are the practical
// consequences of replacing the operator OPTIONAL by the operator NS?" —
// measured on the synthetic social workload: the same optional-information
// query expressed with OPT and with NS(P1 ∪ (P1 AND P2)), across data
// sizes and optional-data densities. Each case also records
// `allocs_per_row`: the heap allocations of one evaluation (after the timed
// ones have built the graph's indexes) per answer row, a deterministic
// count that bench/baselines/BENCH_bench_opt_vs_ns.json pins.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "core/engine.h"
#include "eval/evaluator.h"
#include "util/alloc_counter.h"
#include "util/check.h"
#include "workload/graph_generator.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

constexpr const char* kOptQuery =
    "((?x was_born_in ?c) AND (?x name ?n)) OPT (?x email ?e)";
constexpr const char* kNsQuery =
    "NS(((?x was_born_in ?c) AND (?x name ?n)) UNION "
    "(((?x was_born_in ?c) AND (?x name ?n)) AND (?x email ?e)))";

Graph MakeGraph(Engine* engine, int people, double email_probability) {
  SocialGraphSpec spec;
  spec.num_people = people;
  spec.email_probability = email_probability;
  return GenerateSocialGraph(spec, engine->dict());
}

void RunQuery(benchmark::State& state, const char* query,
              double email_probability) {
  Engine engine;
  Graph g = MakeGraph(&engine, static_cast<int>(state.range(0)),
                      email_probability);
  Result<PatternPtr> p = engine.Parse(query);
  RDFQL_CHECK(p.ok());
  size_t answers = 0;
  for (auto _ : state) {
    MappingSet r = EvalPattern(g, p.value());
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
  // Counted around EvalPattern alone: the result's own frees come after.
  const uint64_t before = AllocationCount();
  MappingSet r = EvalPattern(g, p.value());
  const uint64_t allocations = AllocationCount() - before;
  benchmark::DoNotOptimize(r);
  state.counters["allocs_per_row"] =
      static_cast<double>(allocations) /
      static_cast<double>(std::max<size_t>(r.size(), 1));
  state.SetComplexityN(state.range(0));
}

void BM_OptHalfEmails(benchmark::State& state) {
  RunQuery(state, kOptQuery, 0.5);
}
BENCHMARK(BM_OptHalfEmails)->RangeMultiplier(4)->Range(64, 4096);

void BM_NsHalfEmails(benchmark::State& state) {
  RunQuery(state, kNsQuery, 0.5);
}
BENCHMARK(BM_NsHalfEmails)->RangeMultiplier(4)->Range(64, 4096);

void BM_OptDenseEmails(benchmark::State& state) {
  RunQuery(state, kOptQuery, 1.0);
}
BENCHMARK(BM_OptDenseEmails)->RangeMultiplier(4)->Range(64, 4096);

void BM_NsDenseEmails(benchmark::State& state) {
  RunQuery(state, kNsQuery, 1.0);
}
BENCHMARK(BM_NsDenseEmails)->RangeMultiplier(4)->Range(64, 4096);

void BM_OptNoEmails(benchmark::State& state) { RunQuery(state, kOptQuery, 0.0); }
BENCHMARK(BM_OptNoEmails)->RangeMultiplier(4)->Range(64, 4096);

void BM_NsNoEmails(benchmark::State& state) { RunQuery(state, kNsQuery, 0.0); }
BENCHMARK(BM_NsNoEmails)->RangeMultiplier(4)->Range(64, 4096);

void PrintAgreementCheck() {
  Engine engine;
  Graph g = MakeGraph(&engine, 256, 0.5);
  Result<PatternPtr> opt = engine.Parse(kOptQuery);
  Result<PatternPtr> ns = engine.Parse(kNsQuery);
  RDFQL_CHECK(opt.ok() && ns.ok());
  MappingSet r_opt = EvalPattern(g, opt.value());
  MappingSet r_ns = EvalPattern(g, ns.value());
  std::printf(
      "== E9: OPT vs NS on the social workload (256 people) ==\n"
      "answers(OPT) = %zu, answers(NS) = %zu, equal = %s "
      "(well-designed OPT is subsumption-free, so the encodings agree)\n\n",
      r_opt.size(), r_ns.size(), r_opt == r_ns ? "yes" : "no");
}

}  // namespace
}  // namespace rdfql

int main(int argc, char** argv) {
  rdfql::PrintAgreementCheck();
  return rdfql::bench::BenchMain(argc, argv, "bench_opt_vs_ns");
}
