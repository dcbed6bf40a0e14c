#include "optimize/optimizer.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "transform/union_normal_form.h"
#include "util/check.h"

namespace rdfql {
namespace {

// Syntactic unsatisfiability: the pattern provably has no answers on any
// graph (driven by FILTER false, which the Builtin factories produce when
// folding contradictions).
bool IsUnsatisfiable(const Pattern& p) {
  switch (p.kind()) {
    case PatternKind::kTriple:
      return false;
    case PatternKind::kFilter:
      return p.condition()->kind() == Builtin::Kind::kFalse ||
             IsUnsatisfiable(*p.child());
    case PatternKind::kAnd:
      return IsUnsatisfiable(*p.left()) || IsUnsatisfiable(*p.right());
    case PatternKind::kUnion:
      return IsUnsatisfiable(*p.left()) && IsUnsatisfiable(*p.right());
    case PatternKind::kOpt:
    case PatternKind::kMinus:
      return IsUnsatisfiable(*p.left());
    case PatternKind::kSelect:
    case PatternKind::kNs:
      return IsUnsatisfiable(*p.child());
  }
  return false;
}

void SplitConjuncts(const BuiltinPtr& cond, std::vector<BuiltinPtr>* out) {
  if (cond->kind() == Builtin::Kind::kAnd) {
    SplitConjuncts(cond->left(), out);
    SplitConjuncts(cond->right(), out);
  } else {
    out->push_back(cond);
  }
}

bool VarsCertainlyBoundIn(const BuiltinPtr& cond, const PatternPtr& p) {
  std::set<VarId> cond_vars;
  cond->CollectVars(&cond_vars);
  std::vector<VarId> certain = CertainVars(p);
  for (VarId v : cond_vars) {
    if (!std::binary_search(certain.begin(), certain.end(), v)) return false;
  }
  return true;
}

bool VarsSubsetOf(const BuiltinPtr& cond, const std::vector<VarId>& vars) {
  std::set<VarId> cond_vars;
  cond->CollectVars(&cond_vars);
  for (VarId v : cond_vars) {
    if (!std::binary_search(vars.begin(), vars.end(), v)) return false;
  }
  return true;
}

void FlattenAnd(const PatternPtr& p, std::vector<PatternPtr>* out) {
  if (p->kind() == PatternKind::kAnd) {
    FlattenAnd(p->left(), out);
    FlattenAnd(p->right(), out);
  } else {
    out->push_back(p);
  }
}

size_t SharedVarCount(const std::vector<VarId>& bound,
                      const std::vector<VarId>& vars) {
  size_t n = 0;
  for (VarId v : vars) {
    if (std::binary_search(bound.begin(), bound.end(), v)) ++n;
  }
  return n;
}

}  // namespace

void Optimizer::Count(const char* name, uint64_t n) const {
  if (options_.metrics != nullptr && n > 0) {
    options_.metrics->GetCounter(std::string("optimizer.") + name)->Inc(n);
  }
}

PatternPtr Optimizer::Optimize(const PatternPtr& pattern) const {
  RDFQL_CHECK(pattern != nullptr);
  Count("runs");
  return Rewrite(pattern);
}

PatternPtr Optimizer::Rewrite(const PatternPtr& p) const {
  switch (p->kind()) {
    case PatternKind::kTriple:
      return p;
    case PatternKind::kAnd: {
      PatternPtr node =
          Pattern::And(Rewrite(p->left()), Rewrite(p->right()));
      return options_.reorder_joins ? ReorderAnds(node) : node;
    }
    case PatternKind::kUnion:
      return RewriteUnionSpine(p);
    case PatternKind::kOpt:
      return Pattern::Opt(Rewrite(p->left()), Rewrite(p->right()));
    case PatternKind::kMinus:
      return Pattern::Minus(Rewrite(p->left()), Rewrite(p->right()));
    case PatternKind::kFilter: {
      PatternPtr child = Rewrite(p->child());
      BuiltinPtr cond = p->condition();
      if (options_.normalize_filters &&
          child->kind() == PatternKind::kFilter) {
        // (P FILTER R1) FILTER R2 ≡ P FILTER (R1 ∧ R2).
        cond = Builtin::And(child->condition(), cond);
        child = child->child();
        Count("filters_merged");
      }
      if (!options_.push_filters) return Pattern::Filter(child, cond);
      std::vector<BuiltinPtr> conjuncts;
      SplitConjuncts(cond, &conjuncts);
      PatternPtr out = child;
      for (const BuiltinPtr& r : conjuncts) out = PushFilter(out, r);
      return out;
    }
    case PatternKind::kSelect:
      return Pattern::Select(p->projection(), Rewrite(p->child()));
    case PatternKind::kNs:
      return Pattern::Ns(Rewrite(p->child()));
  }
  RDFQL_CHECK_MSG(false, "unreachable");
  return nullptr;
}

// UCQs and the UNION normal form build spines tens of thousands of nodes
// deep, so a spine is rebuilt bottom-up on explicit stacks and only its
// disjuncts recurse. Each rebuilt subtree carries whether it is
// unsatisfiable (a UNION is when both sides are), so pruning never rescans
// a subtree.
PatternPtr Optimizer::RewriteUnionSpine(const PatternPtr& p) const {
  struct Rewritten {
    PatternPtr node;
    bool dead;
  };
  // (node, whether its two sides are already on `done`)
  std::vector<std::pair<const PatternPtr*, bool>> todo{{&p, false}};
  std::vector<Rewritten> done;
  while (!todo.empty()) {
    auto [node, sides_done] = todo.back();
    todo.pop_back();
    if ((*node)->kind() != PatternKind::kUnion) {
      PatternPtr r = Rewrite(*node);
      bool dead = options_.prune_unsatisfiable && IsUnsatisfiable(*r);
      done.push_back({std::move(r), dead});
    } else if (!sides_done) {
      todo.push_back({node, true});
      todo.push_back({&(*node)->right(), false});
      todo.push_back({&(*node)->left(), false});
    } else {
      Rewritten r = std::move(done.back());
      done.pop_back();
      Rewritten l = std::move(done.back());
      done.pop_back();
      if (l.dead != r.dead) {
        // Dropping an empty branch of a UNION is always sound.
        Count("union_branches_pruned");
        done.push_back(l.dead ? std::move(r) : std::move(l));
      } else {
        done.push_back({Pattern::Union(l.node, r.node), l.dead});
      }
    }
  }
  return std::move(done.back().node);
}

// Pushes a single condition towards the leaves. Safety arguments:
//  - UNION: ⟦(P1 ∪ P2) FILTER R⟧ = ⟦P1 FILTER R⟧ ∪ ⟦P2 FILTER R⟧ always.
//  - AND / OPT / MINUS left: if every variable of R is *certainly* bound
//    by the branch, each result µ extends a branch mapping µ' that agrees
//    with µ on var(R), so µ ⊨ R ⇔ µ' ⊨ R. (Certainty matters: for an
//    optionally bound ?x, !bound(?x) could hold for µ' but not for µ.)
//  - SELECT: if var(R) ⊆ V, projection does not change R's verdict.
//  - NS: never pushed — filtering changes which answers are maximal.
PatternPtr Optimizer::PushFilter(const PatternPtr& child,
                                 BuiltinPtr condition) const {
  switch (child->kind()) {
    case PatternKind::kUnion:
      Count("filters_pushed");
      return Pattern::Union(PushFilter(child->left(), condition),
                            PushFilter(child->right(), condition));
    case PatternKind::kAnd:
      if (VarsCertainlyBoundIn(condition, child->left())) {
        Count("filters_pushed");
        return Pattern::And(PushFilter(child->left(), condition),
                            child->right());
      }
      if (VarsCertainlyBoundIn(condition, child->right())) {
        Count("filters_pushed");
        return Pattern::And(child->left(),
                            PushFilter(child->right(), condition));
      }
      return Pattern::Filter(child, condition);
    case PatternKind::kOpt:
      if (VarsCertainlyBoundIn(condition, child->left())) {
        Count("filters_pushed");
        return Pattern::Opt(PushFilter(child->left(), condition),
                            child->right());
      }
      return Pattern::Filter(child, condition);
    case PatternKind::kMinus:
      if (VarsCertainlyBoundIn(condition, child->left())) {
        Count("filters_pushed");
        return Pattern::Minus(PushFilter(child->left(), condition),
                              child->right());
      }
      return Pattern::Filter(child, condition);
    case PatternKind::kSelect:
      if (VarsSubsetOf(condition, child->projection())) {
        Count("filters_pushed");
        return Pattern::Select(child->projection(),
                               PushFilter(child->child(), condition));
      }
      return Pattern::Filter(child, condition);
    default:
      return Pattern::Filter(child, condition);
  }
}

PatternPtr Optimizer::ReorderAnds(const PatternPtr& p) const {
  std::vector<PatternPtr> conjuncts;
  FlattenAnd(p, &conjuncts);
  if (conjuncts.size() <= 2) return p;
  Count("joins_reordered");

  auto estimate = [this](const PatternPtr& q) -> double {
    if (q->kind() == PatternKind::kTriple) {
      Count("stats_estimates");
      return stats_->EstimateCardinality(q->triple());
    }
    // Non-leaf conjuncts: assume graph-sized.
    return static_cast<double>(stats_->total_triples()) + 1.0;
  };

  std::vector<bool> used(conjuncts.size(), false);
  std::vector<PatternPtr> ordered;
  std::vector<VarId> bound;

  // Seed with the cheapest conjunct; then greedily prefer connected
  // conjuncts (max shared variables), breaking ties by estimate.
  for (size_t step = 0; step < conjuncts.size(); ++step) {
    int best = -1;
    size_t best_shared = 0;
    double best_cost = 0.0;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (used[i]) continue;
      size_t shared = SharedVarCount(bound, conjuncts[i]->Vars());
      double cost = estimate(conjuncts[i]);
      bool better;
      if (best == -1) {
        better = true;
      } else if (step > 0 && shared != best_shared) {
        better = shared > best_shared;
      } else {
        better = cost < best_cost;
      }
      if (better) {
        best = static_cast<int>(i);
        best_shared = shared;
        best_cost = cost;
      }
    }
    used[best] = true;
    ordered.push_back(conjuncts[best]);
    std::vector<VarId> merged;
    std::set_union(bound.begin(), bound.end(),
                   conjuncts[best]->Vars().begin(),
                   conjuncts[best]->Vars().end(),
                   std::back_inserter(merged));
    bound.swap(merged);
  }
  return Pattern::AndAll(ordered);
}

}  // namespace rdfql
