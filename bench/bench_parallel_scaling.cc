// Parallel scaling sweep: the university query mix at threads ∈ {1, 2, 4, 8}.
// The argument is the thread count, NOT a problem size, so wall time is
// expected to FALL as the argument grows on multi-core hosts (its JSON
// check therefore runs without --expect-growth). threads=1 runs the exact
// serial path and doubles as the baseline; every parallel case asserts its
// results equal that baseline before timing.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/rdfql.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/university_generator.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

// Pool shared by the timed iterations of one case (startup excluded).
std::unique_ptr<ThreadPool> MakePool(int threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

// The full university query mix at a fixed scale, threads swept.
void BM_ParallelUniversityMix(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Engine engine;
  UniversitySpec spec;
  spec.num_universities = 2;
  Graph g = GenerateUniversityGraph(spec, engine.dict());
  std::vector<PatternPtr> patterns;
  for (const NamedUniversityQuery& q : UniversityQueryMix()) {
    Result<PatternPtr> p = engine.Parse(q.text);
    RDFQL_CHECK(p.ok());
    patterns.push_back(p.value());
  }
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  EvalOptions options;
  options.threads = threads;
  options.pool = pool.get();
  // Determinism contract: parallel answers are byte-identical to serial.
  size_t answers = 0;
  for (const PatternPtr& p : patterns) {
    MappingSet parallel = EvalPattern(g, p, options);
    RDFQL_CHECK(parallel.mappings() == EvalPattern(g, p).mappings());
    answers += parallel.size();
  }
  for (auto _ : state) {
    for (const PatternPtr& p : patterns) {
      MappingSet r = EvalPattern(g, p, options);
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["triples"] = static_cast<double>(g.size());
}
BENCHMARK(BM_ParallelUniversityMix)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace rdfql

RDFQL_BENCH_MAIN("bench_parallel_scaling")
