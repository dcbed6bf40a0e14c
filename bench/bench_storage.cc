// Storage micro-benches: the sorted-index `Graph` on the probe shapes that
// triple-pattern evaluation uses (predicate-bound prefix scans dominate
// real queries), and on interleaved inserts and matches.

#include <benchmark/benchmark.h>

#include "core/rdfql.h"
#include "util/check.h"

#include "bench_reporting.h"

namespace rdfql {
namespace {

Graph MakeGraph(int people, Dictionary* dict) {
  SocialGraphSpec spec;
  spec.num_people = people;
  return GenerateSocialGraph(spec, dict);
}

// Visits and reads every match, so the benches time the scan itself:
// `Graph::CountMatches` only measures the prefix range, and a callback that
// just counted would inline into the same range arithmetic.
size_t ScanMatches(const Graph& g, TermId s, TermId p, TermId o) {
  size_t n = 0;
  g.Match(s, p, o, [&n](const Triple& t) {
    benchmark::DoNotOptimize(t);
    ++n;
  });
  return n;
}

void BM_GraphPrefixScan(benchmark::State& state) {
  Dictionary dict;
  Graph g = MakeGraph(static_cast<int>(state.range(0)), &dict);
  TermId born = dict.InternIri("was_born_in");
  size_t n = 0;
  for (auto _ : state) {
    n = ScanMatches(g, kInvalidTermId, born, kInvalidTermId);
    benchmark::DoNotOptimize(n);
  }
  state.counters["matches"] = static_cast<double>(n);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphPrefixScan)->RangeMultiplier(4)->Range(256, 16384);

void BM_GraphPointLookups(benchmark::State& state) {
  Dictionary dict;
  Graph g = MakeGraph(1024, &dict);
  TermId email = dict.InternIri("email");
  std::vector<TermId> subjects;
  for (int i = 0; i < 1024; ++i) {
    subjects.push_back(dict.InternIri("person_" + std::to_string(i)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScanMatches(g, subjects[i % subjects.size()], email,
                    kInvalidTermId));
    ++i;
  }
}
BENCHMARK(BM_GraphPointLookups);

// Interleaved insert/match: the workload that used to thrash the sorted
// indexes (every insert invalidated all three, so each probe after an
// insert re-sorted from scratch). With the side-buffer design the probes
// only sort the small overflow array between rebuilds.
void BM_GraphInterleavedInsertMatch(benchmark::State& state) {
  Dictionary dict;
  Graph src = MakeGraph(static_cast<int>(state.range(0)), &dict);
  TermId born = dict.InternIri("was_born_in");
  const std::vector<Triple>& triples = src.triples();
  size_t matches = 0;
  for (auto _ : state) {
    Graph g;
    size_t i = 0;
    for (const Triple& t : triples) {
      g.Insert(t);
      if (++i % 8 == 0) {
        matches = ScanMatches(g, kInvalidTermId, born, kInvalidTermId);
        benchmark::DoNotOptimize(matches);
      }
    }
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["triples"] = static_cast<double>(triples.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphInterleavedInsertMatch)
    ->RangeMultiplier(4)
    ->Range(256, 4096);

}  // namespace
}  // namespace rdfql

RDFQL_BENCH_MAIN("bench_storage")
