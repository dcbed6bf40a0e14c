#ifndef RDFQL_EVAL_EVALUATOR_H_
#define RDFQL_EVAL_EVALUATOR_H_

#include <memory>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rdf/graph.h"
#include "util/limits.h"
#include "util/profile_state.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rdfql {

class QueryLog;

/// Per-query use of the engine's query cache (plan or result side).
/// kDefault follows the attached cache's configuration (no cache attached,
/// or that side disabled by its sizing, means no caching); kOff bypasses
/// the cache for this query (counted as a bypass).
enum class CacheMode { kDefault, kOff };

/// Tunables for the evaluator — the pairs of algorithms back the ablation
/// benchmarks (E15/E16 in DESIGN.md) — plus the observability opt-ins.
struct EvalOptions {
  enum class Join {
    kHash,        // partition on certainly-shared variables
    kNestedLoop,  // reference pairwise join
    // For (P AND t) with t a triple pattern: probe the graph indexes once
    // per left mapping with the bound positions substituted (binding
    // propagation), instead of materializing ⟦t⟧G and joining. Falls back
    // to the hash join for non-triple right-hand sides.
    //
    // Note on OPT: the index-join shortcut is NOT taken for (P1 OPT P2),
    // even when P2 is a triple pattern. OPT runs the same kernel as under
    // kHash, MappingSet::LeftOuterJoin: one table on ⟦P2⟧G, then one
    // probe pass over ⟦P1⟧G in which a row with no compatible partner
    // passes through as it is. An index-probing ⟕ (a left row whose probe
    // finds no match passes through) would also be correct, but is not
    // implemented. kNestedLoop instead evaluates the definition
    // (P1 ⋈ P2) ∪ (P1 ∖ P2) with JoinNestedLoop as its join half, so it
    // inserts joined rows before surviving ones. evaluator_test.cc
    // (OptAgreesAcrossJoinStrategies) asserts the strategies agree on OPT
    // patterns.
    kIndexNestedLoop,
  };
  enum class NsAlgo { kBucketed, kNaive };

  Join join = Join::kHash;
  NsAlgo ns = NsAlgo::kBucketed;

  // --- Parallelism (opt-in; default is the bit-for-bit serial path) ---
  /// Number of evaluation threads. 1 (the default) is exactly the serial
  /// evaluator: no pool, no forks, byte-identical results and counters.
  /// With threads > 1 the two sides of AND/OPT/MINUS and the disjuncts of
  /// a UNION evaluate concurrently on a thread pool; the algebra kernels
  /// (⋈, ∖, ⟕, NS pruning) stay serial. Each operator combines its
  /// children's results in pattern order, so any thread count produces the
  /// same MappingSet — content and iteration order — and the same work
  /// counters as threads = 1.
  int threads = 1;
  /// Optional externally owned pool to run on (so repeated evaluations
  /// don't pay thread startup). If null and threads > 1, the Evaluator
  /// constructs a private pool of `threads` threads for its lifetime.
  /// Ignored when threads <= 1.
  ThreadPool* pool = nullptr;

  // --- Observability (all opt-in; defaults keep the hot path free) ---
  /// When set, every operator node is evaluated under an RAII span carrying
  /// its wall time and work counters; the span tree mirrors the pattern
  /// tree. The tracer must outlive the evaluation (single-threaded use).
  Tracer* tracer = nullptr;
  /// When set, per-operator work counters are also accumulated into this
  /// registry under `eval.*` names (see docs/observability.md).
  MetricsRegistry* metrics = nullptr;
  /// Dictionary for human-readable span labels ("(?x p ?y)"). Optional;
  /// without it spans carry only the operator kind.
  const Dictionary* trace_dict = nullptr;
  /// When set, the evaluation runs under this accountant: every MappingSet
  /// insert/destruction (intermediates included, on every pool thread) and
  /// the NS kernel's scratch report to it, so live/peak mapping and byte
  /// figures cover the whole query. The result set is detached before it is
  /// returned — its memory counts toward the peak but not the final live
  /// figure, and the escaping set holds no pointer to the accountant.
  ResourceAccountant* accountant = nullptr;
  /// Consumed by Engine::Query / Engine::QueryExplained (the evaluator
  /// itself never touches it): overrides the engine's default QueryLog for
  /// this query, mirroring the limits pattern — per-query value wins
  /// wholesale. The engine writes one QueryLogRecord per text query to the
  /// resolved sink; null here with no engine default writes none, and the
  /// query's lifecycle copies, hashes and times nothing for the log.
  QueryLog* query_log = nullptr;
  /// Consumed by the Engine's text-query entry points (the evaluator
  /// itself never touches them): per-query use of the engine's attached
  /// QueryCache. See CacheMode; the plan cache skips re-parsing, the
  /// result cache serves materialized answers keyed by (query hash, graph
  /// name, graph epoch, options fingerprint).
  CacheMode use_plan_cache = CacheMode::kDefault;
  CacheMode use_result_cache = CacheMode::kDefault;

  // --- Resource governance (opt-in; see docs/robustness.md) ---
  /// Budgets enforced by EvalChecked: wall clock, live mappings and
  /// approximate bytes (max_ast_nodes only concerns the translation
  /// pipeline). The plain Eval entry point ignores these fields — it
  /// cannot report an error.
  ResourceLimits limits;
  /// Absolute deadline; combined with limits.max_wall_ms (whichever fires
  /// first). Default: never.
  Deadline deadline;
  /// Optional caller-owned token: Cancel() from any thread aborts the
  /// evaluation with kCancelled at the next checkpoint. When set, it is
  /// also the token deadline/cap violations trip, so the caller can watch
  /// one object. When null, EvalChecked uses a private token.
  CancellationToken* cancel = nullptr;

  bool observed() const { return tracer != nullptr || metrics != nullptr; }
  bool governed() const {
    return cancel != nullptr || !deadline.infinite() || limits.Enforced();
  }
};

/// Bottom-up evaluator implementing ⟦P⟧G exactly as defined in Section 2.1
/// of the paper (plus NS from Section 5.1 and the derived MINUS of
/// Appendix D). The evaluator is the library's semantic ground truth: every
/// transformation and every reduction is tested against it.
class Evaluator {
 public:
  explicit Evaluator(const Graph* graph, EvalOptions options = {})
      : graph_(graph), options_(options) {
    Init();
  }

  /// ⟦P⟧G. ⟦P⟧max_G, the maximal answers of Section 5.1, is
  /// Eval(Pattern::Ns(P)).
  MappingSet Eval(const PatternPtr& pattern) const;

  /// ⟦P⟧G under the options' resource governance: enforces
  /// options.limits / options.deadline / options.cancel cooperatively and
  /// returns kDeadlineExceeded / kResourceExhausted / kCancelled instead of
  /// a truncated result. With no governance configured this is exactly
  /// Eval() wrapped in an always-OK Result. Results are bit-identical to
  /// Eval() whenever no limit trips.
  Result<MappingSet> EvalChecked(const PatternPtr& pattern) const;

 private:
  /// Resolves options_.threads/pool into pool_ (see EvalOptions::pool) and
  /// options_.metrics into counters_.
  void Init();
  MappingSet EvalNode(const Pattern& p) const;
  /// The uninstrumented operator dispatch (the hot path).
  MappingSet EvalNodeImpl(const Pattern& p) const;
  /// EvalNodeImpl wrapped in a span + per-node counter sink.
  MappingSet EvalNodeObserved(const Pattern& p) const;
  /// Whether independent subtrees may evaluate concurrently: a pool is
  /// available and no tracer is attached (the span tree is single-threaded
  /// by contract). Callers fall back to direct EvalNode calls otherwise —
  /// inline, so the serial path adds no stack frame per tree level.
  bool ParallelSubtrees() const {
    return pool_ != nullptr && options_.tracer == nullptr;
  }
  /// Evaluates two independent subtrees into *l / *r on the pool; call
  /// only when ParallelSubtrees() holds.
  void EvalBranches(const Pattern& left, const Pattern& right, MappingSet* l,
                    MappingSet* r) const;
  /// Evaluates the in-order disjuncts of a maximal UNION spine and folds
  /// them left to right — iteratively, because UCQ expansions build spines
  /// tens of thousands of nodes deep that would overflow the stack if each
  /// level recursed. Every UNION takes this path: under a tracer the spine
  /// is one UNION span with the disjuncts as its children. The inner UNION
  /// nodes it folds still count toward eval.nodes; never built, they
  /// report no mappings_out (or span) of their own.
  MappingSet EvalUnionSpine(const Pattern& p) const;
  MappingSet EvalTriple(const TriplePattern& t) const;
  MappingSet IndexJoinWithTriple(const MappingSet& left,
                                 const TriplePattern& t) const;
  /// Span label for a node ("(?x p ?y)" for triples, the condition for
  /// FILTER, ...); empty without options_.trace_dict.
  std::string NodeDetail(const Pattern& p) const;

  /// The registry's eval.* counters, looked up once per Evaluator (each
  /// lookup takes the registry mutex); all null without options_.metrics.
  struct Counters {
    Counter* nodes = nullptr;
    Counter* join_probes = nullptr;
    Counter* index_probes = nullptr;
    Counter* ns_pairs_compared = nullptr;
    Counter* filter_evals = nullptr;
    Counter* mappings_out = nullptr;
  };

  const Graph* graph_;
  EvalOptions options_;
  Counters counters_;
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Null on the serial path; the active pool when threads > 1.
  ThreadPool* pool_ = nullptr;
  /// Snapshot of ProfilingEnabled() at construction: per-node profile
  /// frames key off one member test, so with profiling off the dispatch
  /// path carries no atomic load — and a profiler starting mid-query
  /// simply sees this query's frames from the next query on.
  bool profiled_ = ProfilingEnabled();
};

/// One-shot convenience wrapper.
MappingSet EvalPattern(const Graph& graph, const PatternPtr& pattern,
                       EvalOptions options = {});

/// The operator's display name ("TRIPLE", "AND", ...), shared by spans and
/// EXPLAIN output.
const char* PatternOpName(PatternKind kind);

}  // namespace rdfql

#endif  // RDFQL_EVAL_EVALUATOR_H_
