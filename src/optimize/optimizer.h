#ifndef RDFQL_OPTIMIZE_OPTIMIZER_H_
#define RDFQL_OPTIMIZE_OPTIMIZER_H_

#include "algebra/pattern.h"
#include "obs/metrics.h"
#include "optimize/stats.h"
#include "rdf/dictionary.h"

namespace rdfql {

/// Which rewrites the optimizer applies (all semantics-preserving; each
/// can be switched off for the ablation benchmarks).
struct OptimizerOptions {
  /// Merge stacked FILTERs and split conjunctive conditions.
  bool normalize_filters = true;
  /// Push FILTERs towards the leaves — into UNION branches always, and
  /// into AND/OPT-left branches when every condition variable is certainly
  /// bound there (see the safety argument in optimizer.cc).
  bool push_filters = true;
  /// Flatten AND chains and greedily reorder the conjuncts by estimated
  /// cardinality and variable connectivity.
  bool reorder_joins = true;
  /// Remove UNION branches that are syntactically unsatisfiable
  /// (FILTER false).
  bool prune_unsatisfiable = true;
  /// When set, each applied rewrite and each statistics-estimation call is
  /// counted under `optimizer.*` (see docs/observability.md).
  MetricsRegistry* metrics = nullptr;
};

/// A statistics-driven, rule-based pattern optimizer in the spirit of the
/// static-analysis line of work the paper builds on ([23], [32]): pure
/// pattern-to-pattern rewrites validated against the reference evaluator.
class Optimizer {
 public:
  Optimizer(const GraphStats* stats, OptimizerOptions options = {})
      : stats_(stats), options_(options) {}

  /// Returns an equivalent pattern (⟦P⟧G = ⟦opt(P)⟧G on every graph).
  PatternPtr Optimize(const PatternPtr& pattern) const;

 private:
  PatternPtr Rewrite(const PatternPtr& p) const;
  /// Rewrite of a UNION, iterative over its spine.
  PatternPtr RewriteUnionSpine(const PatternPtr& p) const;
  PatternPtr ReorderAnds(const PatternPtr& p) const;
  PatternPtr PushFilter(const PatternPtr& child, BuiltinPtr condition) const;
  /// Bumps `optimizer.<name>` when options_.metrics is set.
  void Count(const char* name, uint64_t n = 1) const;

  const GraphStats* stats_;
  OptimizerOptions options_;
};

}  // namespace rdfql

#endif  // RDFQL_OPTIMIZE_OPTIMIZER_H_
