#include "eval/wd_evaluator.h"

#include "transform/wd_to_simple.h"
#include "util/check.h"
#include "util/limits.h"

namespace rdfql {
namespace {

// Extends every seed mapping by one triple pattern, probing the graph
// index with the seed's bindings substituted in.
MappingSet ExtendByTriple(const Graph& graph, const MappingSet& seeds,
                          const TriplePattern& t) {
  MappingSet out;
  uint64_t pairs = 0;
  uint64_t visited = 0;
  for (const Mapping& m : seeds) {
    if ((++visited & 255u) == 0 && !CooperativeCheckpoint()) break;
    auto position = [&m](Term term) -> TermId {
      if (term.is_iri()) return term.iri();
      std::optional<TermId> v = m.Get(term.var());
      return v.has_value() ? *v : kInvalidTermId;
    };
    graph.Match(position(t.s), position(t.p), position(t.o),
                [&t, &m, &out, &pairs](const Triple& match) {
                  ++pairs;
                  Mapping extended = m;
                  bool ok = true;
                  auto bind = [&extended, &ok](Term term, TermId value) {
                    if (!term.is_var() || !ok) return;
                    std::optional<TermId> existing =
                        extended.Get(term.var());
                    if (existing.has_value()) {
                      if (*existing != value) ok = false;
                    } else {
                      extended.Set(term.var(), value);
                    }
                  };
                  bind(t.s, match.s);
                  bind(t.p, match.p);
                  bind(t.o, match.o);
                  if (ok) out.Add(std::move(extended));
                });
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->index_probes += seeds.size();
    oc->join_probes += pairs;
  }
  out.FlushAccounting();
  return out;
}

// Evaluates `node`'s block seeded with `seeds`, then optionally extends
// through every child (a child with no compatible extension contributes
// nothing — OPT semantics under well-designedness).
MappingSet EvalNode(const Graph& graph, const WdTreeNode& node,
                    const MappingSet& seeds) {
  // Cooperative checkpoint at every block boundary (the recursion runs once
  // per seed mapping, so a tripped token stops the walk promptly); the
  // top-level entry point turns the trip into a typed error.
  if (!CooperativeCheckpoint()) [[unlikely]] {
    return MappingSet();
  }
  MappingSet current = seeds;
  for (const TriplePattern& t : node.triples) {
    current = ExtendByTriple(graph, current, t);
    if (current.empty()) return current;
  }
  for (const BuiltinPtr& condition : node.filters) {
    MappingSet filtered;
    for (const Mapping& m : current) {
      if (condition->Eval(m)) filtered.Add(m);
    }
    filtered.FlushAccounting();
    current = std::move(filtered);
    if (current.empty()) return current;
  }
  for (const auto& child : node.children) {
    MappingSet next;
    for (const Mapping& m : current) {
      MappingSet seed;
      seed.Add(m);
      seed.FlushAccounting();
      MappingSet extensions = EvalNode(graph, *child, seed);
      if (extensions.empty()) {
        next.Add(m);
      } else {
        for (const Mapping& e : extensions) next.Add(e);
      }
    }
    next.FlushAccounting();
    current = std::move(next);
  }
  return current;
}

}  // namespace

Result<MappingSet> EvalWellDesignedTopDown(const Graph& graph,
                                           const PatternPtr& pattern,
                                           Tracer* tracer,
                                           MetricsRegistry* metrics) {
  RDFQL_ASSIGN_OR_RETURN(std::unique_ptr<WdTreeNode> tree,
                         BuildWdTree(pattern));
  MappingSet seeds;
  seeds.Add(Mapping());
  seeds.FlushAccounting();
  if (tracer == nullptr && metrics == nullptr) {
    MappingSet result = EvalNode(graph, *tree, seeds);
    if (CancellationToken* token = CancellationToken::Current();
        token != nullptr && token->cancelled()) {
      return token->status();
    }
    return result;
  }
  ScopedSpan span(tracer, "WD-TOPDOWN");
  OpCounters counters;
  MappingSet result;
  {
    ScopedOpCounters install(&counters);
    result = EvalNode(graph, *tree, seeds);
  }
  counters.mappings_out = result.size();
  counters.AttachTo(&span);
  if (CancellationToken* token = CancellationToken::Current();
      token != nullptr && token->cancelled()) {
    return token->status();
  }
  if (metrics != nullptr) {
    metrics->GetCounter("wd_eval.evals")->Inc();
    metrics->GetCounter("wd_eval.index_probes")->Inc(counters.index_probes);
    metrics->GetCounter("wd_eval.join_probes")->Inc(counters.join_probes);
    metrics->GetCounter("wd_eval.mappings_out")->Inc(counters.mappings_out);
  }
  return result;
}

}  // namespace rdfql
