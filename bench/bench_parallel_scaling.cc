// Parallel scaling sweep: the same workloads at threads ∈ {1, 2, 4, 8}.
// The argument is the thread count, NOT a problem size, so wall time is
// expected to FALL as the argument grows on multi-core hosts (its JSON
// check therefore runs without --expect-growth). threads=1 runs the exact
// serial path and doubles as the baseline; every parallel case asserts its
// results equal that baseline before timing.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/rdfql.h"
#include "eval/ns.h"
#include "obs/tracer.h"
#include "util/check.h"
#include "util/random.h"
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

// The NS-heavy shape from bench_ns_ablation: many mappings over a few
// distinct domains, where bucketed pruning compares projections pairwise —
// the kernel the parallel NS path partitions by bucket.
MappingSet MakeNsWorkload(int n, int num_vars, int num_domains, Rng* rng) {
  std::vector<std::vector<VarId>> domains;
  for (int d = 0; d < num_domains; ++d) {
    std::vector<VarId> dom;
    for (VarId v = 0; v < static_cast<VarId>(num_vars); ++v) {
      if (rng->NextBool(0.6)) dom.push_back(v);
    }
    if (dom.empty()) dom.push_back(0);
    domains.push_back(std::move(dom));
  }
  MappingSet out;
  while (static_cast<int>(out.size()) < n) {
    const std::vector<VarId>& dom = domains[rng->NextBelow(domains.size())];
    Mapping m;
    for (VarId v : dom) m.Set(v, static_cast<TermId>(rng->NextBelow(50)));
    out.Add(m);
  }
  return out;
}

void BM_ParallelNsPruning(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(15);
  MappingSet input = MakeNsWorkload(4096, 8, 8, &rng);
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  RDFQL_CHECK(RemoveSubsumedBucketed(input, pool.get()).mappings() ==
              RemoveSubsumedBucketed(input).mappings());
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemoveSubsumedBucketed(input, pool.get()));
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["input"] = static_cast<double>(input.size());
}
BENCHMARK(BM_ParallelNsPruning)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The partitioned hash-join probe kernel on large mapping sets. Variable 0
// is bound in every mapping, so the sides share a certain variable and the
// join partitions on it; variables 1-3 are optional (p = 0.7). cross_frac
// is join probes ÷ (|a|·|b|): a fallback to the pairwise scan shows as 1.0.
void BM_ParallelHashJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(7);
  auto random_set = [&rng](int n, int vars) {
    MappingSet s;
    while (static_cast<int>(s.size()) < n) {
      Mapping m;
      m.Set(0, static_cast<TermId>(rng.NextBelow(60)));
      for (VarId v = 1; v < static_cast<VarId>(vars); ++v) {
        if (rng.NextBool(0.7)) m.Set(v, rng.NextBelow(60));
      }
      s.Add(std::move(m));
    }
    return s;
  };
  MappingSet a = random_set(2048, 4);
  MappingSet b = random_set(2048, 4);
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  OpCounters counters;
  {
    ScopedOpCounters install(&counters);
    RDFQL_CHECK(MappingSet::Join(a, b, pool.get()).mappings() ==
                MappingSet::Join(a, b).mappings());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MappingSet::Join(a, b, pool.get()));
  }
  state.counters["threads"] = static_cast<double>(threads);
  // The checked pair above ran the join twice.
  state.counters["cross_frac"] =
      static_cast<double>(counters.join_probes / 2) /
      (static_cast<double>(a.size()) * static_cast<double>(b.size()));
}
BENCHMARK(BM_ParallelHashJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace rdfql

RDFQL_BENCH_MAIN("bench_parallel_scaling")
