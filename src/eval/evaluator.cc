#include "eval/evaluator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "algebra/pattern_printer.h"
#include "eval/ns.h"
#include "util/check.h"

namespace rdfql {

const char* PatternOpName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kTriple:
      return "TRIPLE";
    case PatternKind::kAnd:
      return "AND";
    case PatternKind::kUnion:
      return "UNION";
    case PatternKind::kOpt:
      return "OPT";
    case PatternKind::kMinus:
      return "MINUS";
    case PatternKind::kFilter:
      return "FILTER";
    case PatternKind::kSelect:
      return "SELECT";
    case PatternKind::kNs:
      return "NS";
  }
  return "?";
}

void Evaluator::Init() {
  if (MetricsRegistry* m = options_.metrics) {
    counters_.nodes = m->GetCounter("eval.nodes");
    counters_.join_probes = m->GetCounter("eval.join_probes");
    counters_.index_probes = m->GetCounter("eval.index_probes");
    counters_.ns_pairs_compared = m->GetCounter("eval.ns_pairs_compared");
    counters_.filter_evals = m->GetCounter("eval.filter_evals");
    counters_.mappings_out = m->GetCounter("eval.mappings_out");
  }
  if (options_.threads <= 1) return;
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
    return;
  }
  owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  pool_ = owned_pool_.get();
}

MappingSet Evaluator::Eval(const PatternPtr& pattern) const {
  RDFQL_CHECK(pattern != nullptr);
  // Install only a non-null accountant: options_.accountant == nullptr must
  // not shadow one a caller put up around this evaluation.
  std::optional<ScopedAccounting> install;
  if (options_.accountant != nullptr) install.emplace(options_.accountant);
  MappingSet result = EvalNode(*pattern);
  result.DetachAccounting();
  return result;
}

MappingSet Evaluator::EvalMax(const PatternPtr& pattern) const {
  RDFQL_CHECK(pattern != nullptr);
  std::optional<ScopedAccounting> install;
  if (options_.accountant != nullptr) install.emplace(options_.accountant);
  MappingSet result = ApplyNs(EvalNode(*pattern));
  result.DetachAccounting();
  return result;
}

Result<MappingSet> Evaluator::EvalChecked(const PatternPtr& pattern) const {
  return EvalGoverned(pattern, /*max=*/false);
}

Result<MappingSet> Evaluator::EvalMaxChecked(const PatternPtr& pattern) const {
  return EvalGoverned(pattern, /*max=*/true);
}

Result<MappingSet> Evaluator::EvalGoverned(const PatternPtr& pattern,
                                           bool max) const {
  RDFQL_CHECK(pattern != nullptr);
  if (!options_.governed()) {
    // Nothing to enforce: take the plain path (no token install, so the
    // per-operator checkpoints stay a null test).
    return max ? EvalMax(pattern) : Eval(pattern);
  }
  CancellationToken local_token;
  CancellationToken* token =
      options_.cancel != nullptr ? options_.cancel : &local_token;
  if (token->cancelled()) return token->status();
  Deadline deadline = options_.deadline;
  if (options_.limits.max_wall_ms != 0) {
    Deadline budget = Deadline::AfterMs(options_.limits.max_wall_ms);
    if (budget.SoonerThan(deadline)) deadline = budget;
  }
  token->ArmDeadline(deadline);
  // Live-memory caps ride on the accountant; conjure a private one when the
  // caller wants caps but no figures.
  bool memory_caps = options_.limits.max_live_mappings != 0 ||
                     options_.limits.max_bytes != 0;
  ResourceAccountant local_acct;
  ResourceAccountant* acct = options_.accountant;
  if (acct == nullptr && memory_caps) acct = &local_acct;
  if (acct != nullptr && memory_caps) {
    acct->ArmCaps(options_.limits.max_live_mappings, options_.limits.max_bytes,
                  token);
  }
  std::optional<ScopedAccounting> install_acct;
  if (acct != nullptr) install_acct.emplace(acct);
  ScopedCancellation install_token(token);
  MappingSet result = max ? ApplyNs(EvalNode(*pattern)) : EvalNode(*pattern);
  if (acct != nullptr) acct->DisarmCaps();
  if (token->cancelled()) return token->status();
  result.DetachAccounting();
  return result;
}

MappingSet Evaluator::ApplyNs(const MappingSet& input) const {
  return options_.ns == EvalOptions::NsAlgo::kBucketed
             ? RemoveSubsumedBucketed(input)
             : RemoveSubsumedNaive(input);
}

void Evaluator::EvalBranches(const Pattern& left, const Pattern& right,
                             MappingSet* l, MappingSet* r) const {
  // Callers only reach here when ParallelSubtrees() holds; the guard is
  // kept as a safety net. Keeping the serial fallback at the call sites
  // (not here) matters for stack depth: UCQ expansions produce patterns
  // tens of thousands of nodes deep, and an extra frame per level is the
  // difference between fitting in the stack and overflowing it.
  if (pool_ == nullptr || options_.tracer != nullptr) {
    *l = EvalNode(left);
    *r = EvalNode(right);
    return;
  }
  // A branch that lands on a worker thread starts with no counter sink
  // installed there; give each branch a private sink mirroring the calling
  // thread's, and merge after the join so totals match the serial run.
  OpCounters* parent_sink = ScopedOpCounters::Current();
  OpCounters branch_counters[2];
  pool_->ParallelFor(2, [&](size_t i) {
    ScopedOpCounters install(parent_sink != nullptr ? &branch_counters[i]
                                                    : nullptr);
    if (i == 0) {
      *l = EvalNode(left);
    } else {
      *r = EvalNode(right);
    }
  });
  if (parent_sink != nullptr) {
    parent_sink->MergeFrom(branch_counters[0]);
    parent_sink->MergeFrom(branch_counters[1]);
  }
}

MappingSet Evaluator::EvalUnionSpine(const Pattern& p) const {
  // In-order leaves of the maximal UNION subtree rooted at p, collected
  // with an explicit stack (the spine can be deeper than the call stack).
  std::vector<const Pattern*> disjuncts;
  std::vector<const Pattern*> walk{&p};
  uint64_t unions = 0;
  while (!walk.empty()) {
    const Pattern* cur = walk.back();
    walk.pop_back();
    if (cur->kind() == PatternKind::kUnion) {
      ++unions;
      walk.push_back(cur->right().get());
      walk.push_back(cur->left().get());
    } else {
      disjuncts.push_back(cur);
    }
  }
  // p itself is counted by EvalNodeObserved; the folded ones are not.
  if (counters_.nodes != nullptr) counters_.nodes->Inc(unions - 1);
  std::vector<MappingSet> parts(disjuncts.size());
  if (ParallelSubtrees() && disjuncts.size() > 1) {
    OpCounters* parent_sink = ScopedOpCounters::Current();
    std::vector<OpCounters> sinks(parent_sink != nullptr ? disjuncts.size()
                                                         : 0);
    pool_->ParallelFor(disjuncts.size(), [&](size_t i) {
      ScopedOpCounters install(parent_sink != nullptr ? &sinks[i] : nullptr);
      parts[i] = EvalNode(*disjuncts[i]);
    });
    for (const OpCounters& s : sinks) parent_sink->MergeFrom(s);
  } else {
    for (size_t i = 0; i < disjuncts.size(); ++i) {
      parts[i] = EvalNode(*disjuncts[i]);
    }
  }
  // Folding left to right with the deduplicating Add reproduces exactly
  // what the recursive UnionSets nest would: first occurrence wins, in
  // disjunct order. The union holds at least its largest part; the sum of
  // the parts only bounds it, so growth past the largest is left to
  // doubling rather than reserved.
  size_t largest = 0;
  for (const MappingSet& part : parts) {
    largest = std::max(largest, part.size());
  }
  MappingSet out = std::move(parts[0]);
  out.Reserve(largest);
  for (size_t i = 1; i < parts.size(); ++i) {
    for (const Mapping& m : parts[i]) out.Add(m);
  }
  return out;
}

MappingSet Evaluator::IndexJoinWithTriple(const MappingSet& left,
                                          const TriplePattern& t) const {
  MappingSet out;
  uint64_t probes = 0;
  uint64_t pairs = 0;
  uint64_t visited = 0;
  for (const Mapping& m : left) {
    if ((++visited & 1023u) == 0 && !CooperativeCheckpoint()) break;
    // Substitute the bound variables of µ into the triple pattern and
    // probe the graph index with the resulting prefix.
    auto position = [&m](Term term) -> TermId {
      if (term.is_iri()) return term.iri();
      std::optional<TermId> v = m.Get(term.var());
      return v.has_value() ? *v : kInvalidTermId;
    };
    ++probes;
    graph_->Match(
        position(t.s), position(t.p), position(t.o),
        [&t, &m, &out, &pairs](const Triple& match) {
          ++pairs;
          Mapping extended = m;
          bool ok = true;
          auto bind = [&extended, &ok](Term term, TermId value) {
            if (!term.is_var() || !ok) return;
            std::optional<TermId> existing = extended.Get(term.var());
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
    oc->index_probes += probes;
    oc->join_probes += pairs;
  }
  return out;
}

MappingSet Evaluator::EvalTriple(const TriplePattern& t) const {
  // dom(µ) = var(t). Each variable reads the first position it occupies;
  // `slots` lists them in VarId order, so a row is built by appending, and
  // a repeated variable's later positions must agree with its first.
  const Term terms[3] = {t.s, t.p, t.o};
  struct Slot {
    VarId var;
    int pos;
  };
  Slot slots[3];
  int num_slots = 0;
  int same_as[3] = {-1, -1, -1};
  bool repeats = false;
  for (int i = 0; i < 3; ++i) {
    if (!terms[i].is_var()) continue;
    for (int j = 0; j < i && same_as[i] < 0; ++j) {
      if (terms[j] == terms[i]) same_as[i] = j;
    }
    if (same_as[i] < 0) {
      slots[num_slots++] = {terms[i].var(), i};
    } else {
      repeats = true;
    }
  }
  for (int k = 1; k < num_slots; ++k) {
    for (int j = k; j > 0 && slots[j].var < slots[j - 1].var; --j) {
      std::swap(slots[j], slots[j - 1]);
    }
  }

  auto bound = [](Term term) {
    return term.is_iri() ? term.iri() : kInvalidTermId;
  };
  Graph::Matches matches =
      graph_->Find(bound(t.s), bound(t.p), bound(t.o));
  MappingSet out;
  // Distinct matches give distinct rows, so without a repeated variable
  // (which filters matches) the match count is the exact size.
  if (!repeats) out.Reserve(matches.size());
  matches.ForEach([&](const Triple& match) {
    const TermId values[3] = {match.s, match.p, match.o};
    for (int i = 0; i < 3; ++i) {
      if (same_as[i] >= 0 && values[i] != values[same_as[i]]) return;
    }
    Mapping m;
    for (int k = 0; k < num_slots; ++k) {
      m.Append(slots[k].var, values[slots[k].pos]);
    }
    out.Add(std::move(m));
  });
  if (OpCounters* oc = ScopedOpCounters::Current()) ++oc->index_probes;
  return out;
}

MappingSet Evaluator::EvalNode(const Pattern& p) const {
  // Mirrors the span labels into the sampling profiler's tag stack, so
  // folded stacks read Engine::Query;Eval;AND;TRIPLE just like a Chrome
  // trace. With a tracer attached, ScopedSpan (EvalNodeObserved) pushes
  // the same tag instead — gating here avoids AND;AND double frames.
  ProfileFrame profile_frame(
      profiled_ && options_.tracer == nullptr ? PatternOpName(p.kind())
                                              : nullptr);
  if (!options_.observed()) [[likely]] {
    return EvalNodeImpl(p);
  }
  return EvalNodeObserved(p);
}

std::string Evaluator::NodeDetail(const Pattern& p) const {
  const Dictionary* dict = options_.trace_dict;
  if (dict == nullptr) return "";
  switch (p.kind()) {
    case PatternKind::kTriple:
      return TriplePatternToString(p.triple(), *dict);
    case PatternKind::kFilter:
      return p.condition()->ToString(*dict);
    case PatternKind::kSelect: {
      std::string vars;
      for (VarId v : p.projection()) vars += " ?" + dict->VarName(v);
      return "{" + (vars.empty() ? "" : vars.substr(1)) + "}";
    }
    default:
      return "";
  }
}

MappingSet Evaluator::EvalNodeObserved(const Pattern& p) const {
  ScopedSpan span(options_.tracer, PatternOpName(p.kind()), NodeDetail(p));
  OpCounters counters;
  MappingSet result;
  {
    // Children re-enter EvalNodeObserved and install their own sink, so
    // `counters` sees exactly this node's own work.
    ScopedOpCounters install(&counters);
    result = EvalNodeImpl(p);
  }
  counters.mappings_out = result.size();
  counters.AttachTo(&span);
  if (counters_.nodes != nullptr) {
    counters_.nodes->Inc();
    counters_.join_probes->Inc(counters.join_probes);
    counters_.index_probes->Inc(counters.index_probes);
    counters_.ns_pairs_compared->Inc(counters.ns_pairs_compared);
    counters_.filter_evals->Inc(counters.filter_evals);
    counters_.mappings_out->Inc(counters.mappings_out);
  }
  return result;
}

MappingSet Evaluator::EvalNodeImpl(const Pattern& p) const {
  // The per-operator cooperative checkpoint. Ungoverned queries pay one
  // relaxed load + null test here (bench_limits_overhead keeps it honest);
  // once a token trips, every remaining operator short-circuits to an empty
  // set and EvalChecked turns the trip into the query's error.
  if (!CooperativeCheckpoint()) [[unlikely]] {
    return MappingSet();
  }
  switch (p.kind()) {
    case PatternKind::kTriple:
      return EvalTriple(p.triple());
    case PatternKind::kAnd: {
      if (options_.join == EvalOptions::Join::kIndexNestedLoop &&
          p.right()->kind() == PatternKind::kTriple) {
        MappingSet l = EvalNode(*p.left());
        ProfileFrame join_frame(profiled_ ? "JoinIndexNested" : nullptr);
        return IndexJoinWithTriple(l, p.right()->triple());
      }
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(*p.left(), *p.right(), &l, &r);
      } else {
        l = EvalNode(*p.left());
        r = EvalNode(*p.right());
      }
      if (options_.join == EvalOptions::Join::kNestedLoop) {
        ProfileFrame join_frame(profiled_ ? "JoinNested" : nullptr);
        return MappingSet::JoinNestedLoop(l, r);
      }
      ProfileFrame join_frame(profiled_ ? "JoinHash" : nullptr);
      return MappingSet::Join(l, r);
    }
    case PatternKind::kUnion: {
      // Without a tracer the whole UNION spine is flattened (stack safety
      // on deep UCQ chains + multi-way parallel disjuncts); the traced
      // path recurses two-way so each UNION node keeps its own span.
      if (options_.tracer == nullptr) {
        return EvalUnionSpine(p);
      }
      MappingSet l = EvalNode(*p.left());
      MappingSet r = EvalNode(*p.right());
      return MappingSet::UnionSets(l, r);
    }
    case PatternKind::kOpt: {
      // ⟦P2⟧G is materialized whatever the join strategy (see the note on
      // EvalOptions::Join::kIndexNestedLoop in evaluator.h).
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(*p.left(), *p.right(), &l, &r);
      } else {
        l = EvalNode(*p.left());
        r = EvalNode(*p.right());
      }
      if (options_.join == EvalOptions::Join::kNestedLoop) {
        // The reference strategy keeps the definition ⟕ = ⋈ ∪ ∖, with the
        // pairwise join as its join half.
        ProfileFrame join_frame(profiled_ ? "JoinNested" : nullptr);
        return MappingSet::UnionSets(MappingSet::JoinNestedLoop(l, r),
                                     MappingSet::Minus(l, r));
      }
      ProfileFrame join_frame(profiled_ ? "JoinHash" : nullptr);
      return MappingSet::LeftOuterJoin(l, r);
    }
    case PatternKind::kMinus: {
      MappingSet l, r;
      if (ParallelSubtrees()) {
        EvalBranches(*p.left(), *p.right(), &l, &r);
      } else {
        l = EvalNode(*p.left());
        r = EvalNode(*p.right());
      }
      return MappingSet::Minus(l, r);
    }
    case PatternKind::kFilter: {
      MappingSet in = EvalNode(*p.child());
      MappingSet out;
      for (const Mapping& m : in) {
        if (p.condition()->Eval(m)) out.Add(m);
      }
      if (OpCounters* oc = ScopedOpCounters::Current()) {
        oc->filter_evals += in.size();
      }
      return out;
    }
    case PatternKind::kSelect: {
      MappingSet in = EvalNode(*p.child());
      MappingSet out;
      for (const Mapping& m : in) {
        out.Add(m.RestrictTo(p.projection()));
      }
      return out;
    }
    case PatternKind::kNs:
      return ApplyNs(EvalNode(*p.child()));
  }
  RDFQL_CHECK_MSG(false, "unreachable");
  return MappingSet();
}

MappingSet EvalPattern(const Graph& graph, const PatternPtr& pattern,
                       EvalOptions options) {
  return Evaluator(&graph, options).Eval(pattern);
}

}  // namespace rdfql
