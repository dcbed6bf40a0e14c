#ifndef RDFQL_CORE_ENGINE_H_
#define RDFQL_CORE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "analysis/monotonicity.h"
#include "construct/construct_query.h"
#include "core/query_cache.h"
#include "eval/evaluator.h"
#include "eval/explain.h"
#include "obs/accounting.h"
#include "obs/alerts.h"
#include "obs/history.h"
#include "obs/inflight.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"
#include "parser/parser.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "transform/union_normal_form.h"
#include "util/limits.h"
#include "util/status.h"

namespace rdfql {

/// EXPLAIN ANALYZE at the engine level: the per-operator plan (cardinality,
/// wall time, work counters) plus the query's phase timings.
struct QueryExplanation {
  Explanation explanation;  // result + instrumented plan tree
  uint64_t parse_ns = 0;
  uint64_t eval_ns = 0;
  /// Resource-accountant figures for this query: the high-water mark of
  /// live mappings / approximate bytes across all intermediate sets (result
  /// included), and the cumulative number of mappings materialized.
  uint64_t peak_mappings = 0;
  uint64_t peak_bytes = 0;
  uint64_t total_mappings = 0;
  /// The resource limits the query ran under (engine default or per-query
  /// override; all-zero when ungoverned).
  ResourceLimits limits;
  /// Query-log correlation id (0 when no QueryLog was attached). Also
  /// stamped on the plan root as the `correlation_id` counter, so a log
  /// record and an EXPLAIN plan can be joined after the fact.
  uint64_t correlation_id = 0;
  /// Engine-wide eval-latency percentiles (the engine.eval_ns histogram,
  /// this query included) at the time of the query. Populated when engine
  /// metrics are enabled; hist_queries stays 0 otherwise and the `time:`
  /// line is omitted.
  uint64_t hist_queries = 0;
  double eval_p50_ns = 0.0;
  double eval_p90_ns = 0.0;
  double eval_p99_ns = 0.0;
  /// Query-cache disposition, e.g. "plan=hit result=live" (EXPLAIN always
  /// evaluates — it never serves a materialized result, so its plan and
  /// counters are the uncached plan exactly). Empty — and the `cache:`
  /// line omitted — when the engine has no cache attached.
  std::string cache_note;

  const MappingSet& result() const { return explanation.result; }

  /// Phase header, limits line, cache line (with a cache attached),
  /// percentile line (with metrics enabled), then the plan tree, e.g.
  ///   parse: 3.1us  eval: 120.4us  mem: peak 42 mappings / 3.2KiB
  ///   limits: wall=100ms live_mappings=10000
  ///   cache: plan=hit result=live
  ///   time: eval p50=110.2us p90=118.9us p99=119.8us (n=12)
  ///   AND [1] (t=118.0us join_probes=4)
  ///     ...
  std::string ToString() const;
};

/// Which translation stages `Engine::TranslateExplained` runs, in pipeline
/// order: parse → optimize → select_free → wd_to_simple → ns_elimination →
/// desugar_minus → union_normal_form. Conditional stages only fire when the
/// pattern still uses the construct they remove.
struct TranslateOptions {
  bool optimize = true;
  /// Strip SELECT via Definition F.1 (when SELECT occurs).
  bool select_free = true;
  /// Prop 5.6 translation to a simple pattern; opt-in because it requires a
  /// well-designed input and changes the shape of everything downstream.
  bool wd_to_simple = false;
  /// Thm 5.1 NS-elimination (when NS occurs).
  bool eliminate_ns = true;
  /// Appendix D MINUS desugaring into OPT+FILTER; opt-in.
  bool desugar_minus = false;
  /// Prop D.1 UNION normal form (skipped while NS is still present —
  /// NS does not distribute over UNION).
  bool union_normal_form = true;
  NormalFormLimits limits;
  size_t max_subtrees = 1u << 16;
  /// Optional tracer to mirror the stages onto (one "STAGE" span each), so
  /// a translation and the following evaluation share a Chrome trace.
  Tracer* tracer = nullptr;
  /// Resource budgets for the pipeline itself: max_ast_nodes caps every
  /// stage's output (the exponential stages pre-flight it and refuse before
  /// materializing, naming the offending stage); max_wall_ms bounds the
  /// whole translation. Evaluation fields are ignored here.
  ResourceLimits resources;
  /// Optional external cancellation for the translation.
  CancellationToken* cancel = nullptr;
};

/// EXPLAIN for the translation pipeline: the input and output patterns plus
/// a per-stage PipelineReport (wall time, shape in/out, blowup ratio).
struct TranslationExplanation {
  PatternPtr input;
  PatternPtr output;
  PipelineReport report;

  std::string ToString() const { return report.ToText(); }
  std::string ToJson() const { return report.ToJson(); }
};

/// What the static and empirical analyzers say about a pattern — the
/// vocabulary of the paper in one struct.
struct PatternReport {
  std::string fragment;            // e.g. "SPARQL[AUF]", "SP-SPARQL"
  bool well_designed = false;      // Definition 3.4 (AOF)
  bool union_well_designed = false;  // Section 3.3 (AUOF)
  bool simple_pattern = false;     // Definition 5.3
  bool ns_pattern = false;         // Definition 5.7
  bool syntactically_subsumption_free = false;
  bool looks_weakly_monotone = false;   // randomized, Definition 3.2
  bool looks_monotone = false;          // randomized
  bool looks_subsumption_free = false;  // randomized, Section 5.2
};

/// The top-level façade: owns the dictionary and a set of named graphs,
/// and exposes parsing, evaluation, classification and the paper's
/// transformations behind one object. All examples and the REPL go
/// through this class; libraries embedding rdfql may also use the
/// per-module headers directly.
class Engine {
 public:
  Engine() = default;
  ~Engine();  // stops the telemetry sampler before members go away

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Dictionary* dict() { return &dict_; }

  /// Parses simplified N-Triples into (or on top of) the named graph.
  ///
  /// Graph writes may overlap queries on any thread: every query pins the
  /// version of its graph current when it starts and sees that one triple
  /// set to the end, because OPT, MINUS and NS are non-monotone and a
  /// triple added mid-query can remove answers. Writers serialize among
  /// themselves. A version no query pins is written in place (a query
  /// starting meanwhile waits for the write); a pinned one is copied, the
  /// copy written and published as the new version.
  Status LoadGraphText(const std::string& name, std::string_view ntriples);

  /// Registers/replaces a graph under `name`: `graph` becomes a new
  /// version, and the replaced one is freed when the last query pinning it
  /// finishes. Safe while queries run (see LoadGraphText).
  void PutGraph(const std::string& name, Graph graph);

  /// The current version of the named graph; fails with NotFound for
  /// unknown names. The pointer is not a pin: it stays valid until the
  /// next write to that name (LoadGraphText may change the graph under it,
  /// PutGraph may free it), so use it only where no write can intervene.
  Result<const Graph*> GetGraph(const std::string& name) const;

  /// Parses a graph pattern in the paper's syntax.
  Result<PatternPtr> Parse(std::string_view query);

  /// Parses a CONSTRUCT query.
  Result<ConstructQuery> ParseConstructQuery(std::string_view query);

  /// Parse + evaluate against a named graph. The set is the caller's own:
  /// an answer shared with the result cache (a hit, or a miss the cache
  /// stored) is copied once on the way out.
  Result<MappingSet> Query(const std::string& graph_name,
                           std::string_view query,
                           EvalOptions options = {});

  /// Parse + evaluate under a tracer: returns the results together with a
  /// per-operator EXPLAIN ANALYZE plan, phase timings and the query's peak
  /// mapping/byte figures. Honors `options`' join/NS choices (its
  /// tracer/trace_dict/accountant fields are overridden).
  Result<QueryExplanation> QueryExplained(const std::string& graph_name,
                                          std::string_view query,
                                          EvalOptions options = {});

  /// EXPLAIN for the translation pipeline: parses `query` and pushes it
  /// through the enabled transformation stages, recording wall time and
  /// size-in/size-out (AST nodes, vars, UNION width) per stage — the
  /// empirical face of the paper's blowup bounds. Fails with the first
  /// stage error (limits, non-well-designed input, parse errors).
  Result<TranslationExplanation> TranslateExplained(
      std::string_view query, const TranslateOptions& options = {});

  /// Evaluates a parsed pattern against a named graph.
  Result<MappingSet> Eval(const std::string& graph_name,
                          const PatternPtr& pattern,
                          EvalOptions options = {});

  /// ASK-style query: true iff the pattern has at least one answer.
  Result<bool> Ask(const std::string& graph_name, std::string_view query,
                   EvalOptions options = {});

  /// Query + CSV / W3C-style JSON serialization in one call. Ask, QueryCsv
  /// and QueryJson read the answer where it lies: a result-cache hit is
  /// never copied, and a miss hands its set to the cache without a copy.
  Result<std::string> QueryCsv(const std::string& graph_name,
                               std::string_view query,
                               EvalOptions options = {});
  Result<std::string> QueryJson(const std::string& graph_name,
                                std::string_view query,
                                EvalOptions options = {});

  /// Runs every classifier over the pattern (the randomized ones with
  /// `options`).
  PatternReport Classify(const PatternPtr& pattern,
                         const MonotonicityOptions& options = {});

  // --- Parallelism ---

  /// Engine-wide default for EvalOptions::threads. Queries whose options
  /// leave `threads` at 1 (the default) adopt this value and run on the
  /// engine's shared thread pool; options that explicitly ask for more
  /// threads keep their own setting. 1 (the default) keeps every query on
  /// the bit-for-bit serial path.
  void SetDefaultThreads(int threads);
  int default_threads() const { return default_threads_; }

  // --- Resource governance ---

  /// Engine-wide default ResourceLimits. Queries whose options carry no
  /// limits of their own adopt these; options with any limit set keep their
  /// own (per-query override wins wholesale, field-by-field merging would
  /// make overrides impossible to reason about). The default default —
  /// all zeros — enforces nothing. Rejections surface as
  /// kDeadlineExceeded / kResourceExhausted statuses and as
  /// `engine.queries_rejected` / `engine.queries_deadline_exceeded` /
  /// `engine.queries_cancelled` counters in the metrics registry.
  void SetDefaultLimits(const ResourceLimits& limits) {
    default_limits_ = limits;
  }
  const ResourceLimits& default_limits() const { return default_limits_; }

  // --- Observability ---

  /// Engine-wide default QueryLog. While set, Query / QueryExplained (and
  /// everything routed through them: Ask, QueryCsv, QueryJson) write one
  /// QueryLogRecord per query — identity, fragment, phase timings, memory
  /// figures and the typed outcome — to the sink. Queries whose options
  /// carry their own EvalOptions::query_log keep it (per-query override
  /// wins wholesale, mirroring the limits pattern). The log must outlive
  /// the engine or be detached with SetQueryLog(nullptr) first. With null
  /// (the default) the query lifecycle copies no query text, reads no
  /// wall clock and hashes nothing for the log.
  void SetQueryLog(QueryLog* log) { default_query_log_ = log; }
  QueryLog* query_log() const { return default_query_log_; }

  /// Engine-wide QueryCache. While set, the text-query entry points
  /// (Query, Ask, QueryCsv, QueryJson; QueryExplained for the plan side)
  /// consult it: the plan cache skips re-parsing repeated query text, the
  /// result cache (when the cache's sizing enables it) serves whole
  /// MappingSets keyed by (canonical query hash, graph name, graph epoch,
  /// options fingerprint) — bit-for-bit the uncached answer, since graph
  /// mutations move Graph::Epoch and stale entries can never hit. Queries
  /// whose options carry EvalOptions::use_plan_cache / use_result_cache
  /// override the default wholesale, mirroring the limits pattern. The
  /// cache must outlive the engine or be detached with
  /// SetQueryCache(nullptr) first. With null (the default) the lifecycle
  /// neither canonicalizes nor hashes the text for the cache.
  /// Pattern-based Eval() never caches — it has no query text to key on.
  void SetQueryCache(QueryCache* cache);
  QueryCache* query_cache() const { return query_cache_; }

  /// Turns metric collection on/off (off by default: the uninstrumented
  /// path stays zero-overhead). While enabled, every Query/Eval records
  /// `engine.*` phase timings and `eval.*` operator counters into this
  /// engine's registry. The first switch-on looks the engine's handles up
  /// once, so its `engine.*` series exist (at zero) from then on.
  void EnableMetrics(bool on = true);
  bool metrics_enabled() const { return collect_metrics_; }

  /// The engine's registry (always present; callers may add their own
  /// metrics next to the engine's).
  MetricsRegistry* metrics() { return &metrics_; }

  /// Point-in-time copy of every engine metric. Refreshes the inflight
  /// gauges (engine.queries_active, inflight.*) first, so a scrape sees the
  /// registry's current occupancy without per-query gauge writes.
  RegistrySnapshot MetricsSnapshot();

  /// Zeroes the engine's metrics (e.g. between bench cases).
  void ResetMetrics() { metrics_.Reset(); }

  // --- Live monitoring ---

  /// Turns the in-flight query registry on/off (off by default: the
  /// unmonitored lifecycle registers nothing and hashes nothing for it).
  /// While enabled, every Query / QueryExplained / Eval registers a slot —
  /// correlation id, query hash, fragment, current phase, live memory
  /// figures, a cancellation handle — visible through InflightSnapshot(),
  /// the shell's `.ps` command and rdfql_top. Registration also wires the
  /// slot's accountant and token into queries that brought none of their
  /// own, which is what lets the watchdog cancel them mid-flight.
  void EnableLiveMonitoring(bool on = true) { live_monitoring_ = on; }
  bool live_monitoring_enabled() const { return live_monitoring_; }

  /// The registry itself (always present; populated only while live
  /// monitoring is on). The telemetry sampler and watchdog read it.
  InflightRegistry* inflight() { return &inflight_; }

  /// Point-in-time view of the queries running right now.
  rdfql::InflightSnapshot InflightSnapshot() const {
    return inflight_.Snapshot();
  }

  /// Starts the background telemetry sampler (and the watchdog, when
  /// `options.watchdog` enforces anything) over this engine's metrics and
  /// registry. Implies EnableLiveMonitoring(). Fails if already running.
  /// The sampler records every tick into history(): the alert rules' ring
  /// when rules are installed, otherwise a ring sized by
  /// TelemetryHistoryOptions(options.interval_ms) that StopTelemetry drops.
  /// `options.interval_ms == 0` creates the sampler without a thread —
  /// drive it manually with telemetry()->TickNow() (tests, single-shot
  /// tools).
  Status StartTelemetry(const TelemetryOptions& options);

  /// Stops and destroys the sampler (takes a final tick first). Live
  /// monitoring stays enabled. No-op when not running.
  void StopTelemetry();

  /// The running sampler, or null.
  TelemetrySampler* telemetry() { return telemetry_.get(); }

  // --- Alerting ---

  /// Installs a declarative alert rule set (JSON, see obs/alerts.h for the
  /// grammar) together with the metrics-history ring the rules evaluate
  /// against. Implies EnableMetrics(). The rules come alive with the next
  /// StartTelemetry(): each tick records a history sample and advances the
  /// rule state machines; transitions append to the alert log described by
  /// `log_options`. Rules are immutable while installed — call again (or
  /// ClearAlertRules) between telemetry runs to change them; fails while
  /// the sampler is running. For every fragment named by some rule, the
  /// engine additionally observes a per-fragment latency histogram
  /// (FragmentMetricName, looked up here once per fragment), so
  /// fragment-scoped rules like `p99{fragment=SPARQL[AO]} > 50ms` have data
  /// to read. Queries that hit no fragment-scoped rule pay one map lookup —
  /// nothing else changes.
  Status SetAlertRules(const std::string& rules_json,
                       const AlertLogOptions& log_options = AlertLogOptions(),
                       const HistoryOptions& history_options = HistoryOptions());

  /// Drops the rule set and the history ring. Fails while telemetry runs.
  Status ClearAlertRules();

  /// Point-in-time view of every rule's state (empty when no rules are
  /// installed).
  rdfql::AlertSnapshot AlertSnapshot() const {
    return alerts_ != nullptr ? alerts_->Snapshot() : rdfql::AlertSnapshot{};
  }

  /// The installed alert engine, or null.
  AlertEngine* alerts() { return alerts_.get(); }
  /// The history ring: the alert rules' while they are installed, else the
  /// running sampler's; null when neither exists.
  MetricsHistory* history() { return history_.get(); }

  // --- Profiling ---

  /// Starts the sampling profiler at `hz` samples per second (97 by
  /// default — prime, so it cannot phase-lock with millisecond-periodic
  /// work). While running, every query pushes op/stage tags onto its
  /// thread's lock-free tag stack and the background sampler folds
  /// wall-clock samples — running, pool_queue_wait, lock_wait, idle —
  /// into a profile dumpable as folded stacks (DumpProfile), JSON or
  /// top-N hot tags. `hz == 0` creates the profiler without a thread;
  /// drive it with profiler()->TickNow() (tests, single-shot tools).
  /// Fails if this engine — or any other profiler in the process, the tag
  /// stacks are process-global — is already sampling. When off, the query
  /// path is bit-for-bit the pre-profiler path (one relaxed flag load per
  /// would-be tag).
  Status EnableProfiling(uint64_t hz = 97);

  /// Stops sampling (idempotent). The collected profile stays dumpable.
  void DisableProfiling();

  bool profiling() const {
    return profiler_ != nullptr && profiler_->running();
  }

  /// Folded-stack text of the collected profile ("" before any profiling):
  /// `Engine::Query;Eval;AND;JoinHash 123` per line, flamegraph.pl- and
  /// speedscope-ready.
  std::string DumpProfile() const {
    return profiler_ != nullptr ? profiler_->ToFolded() : std::string();
  }

  /// The profiler itself (null until EnableProfiling), for JSON dumps,
  /// TopTags and manual ticking.
  Profiler* profiler() { return profiler_.get(); }

 private:
  /// One text query's resolved cache decisions (ResolveCache), read and
  /// updated by the query lifecycle's probe, parse and store steps.
  struct CacheContext {
    QueryCache* cache = nullptr;  // null ⇒ no cache attached
    bool plan_on = false;
    bool result_on = false;
    bool bypass = false;    // cache attached, disabled per-query
    bool plan_hit = false;
    bool result_hit = false;
    bool epoch_known = false;  // graph epoch was read before evaluation
    uint64_t hash = 0;         // StableQueryHash of the canonical text
    uint64_t graph_epoch = 0;
    std::string canonical;  // CanonicalizeQueryText(query)

    /// Whether `canonical` and `hash` were computed.
    bool keyed() const { return plan_on || result_on; }

    /// Whether a successful evaluation's answer goes into the result cache.
    bool StoresResult() const { return result_on && epoch_known && !result_hit; }

    ResultCacheKey ResultKey(const std::string& graph_name,
                             const EvalOptions& options) const {
      return {hash, graph_name, graph_epoch, EvalOptionsFingerprint(options)};
    }

    /// The query log's cache-outcome token ("" ⇒ no cache attached).
    const char* LogOutcome() const {
      if (cache == nullptr) return "";
      if (bypass) return "bypass";
      if (result_hit) return "result_hit";
      if (plan_hit) return "plan_hit";
      return "miss";
    }

    /// EXPLAIN's cache line, e.g. "plan=hit result=live" (EXPLAIN never
    /// serves a cached answer, so the result side is live or off).
    std::string ExplainNote() const {
      if (bypass) return "bypass";
      return std::string("plan=") +
             (!plan_on ? "off" : plan_hit ? "hit" : "miss") +
             " result=" + (result_on ? "live" : "off");
    }
  };

  /// Resolves whether this query uses the attached cache: the cache's own
  /// sizing is the engine default, EvalOptions::use_*_cache == kOff wins
  /// wholesale (counted as a bypass when it turns everything off). When
  /// any caching is on, the canonical text and stable hash are computed
  /// here, once.
  CacheContext ResolveCache(std::string_view query,
                            const EvalOptions& options) const;

  /// Parse via the plan cache: a hit returns the shared immutable pattern
  /// (and its precomputed fragment, when `fragment` is non-null) without
  /// touching the parser; a miss parses and installs the new plan.
  Result<PatternPtr> ParseCached(CacheContext* cc, std::string_view query,
                                 std::string* fragment);

  /// A query's answer: shared with the result cache (a hit, or a miss the
  /// cache was handed), or owned when this query does not cache results.
  /// Ask, QueryCsv and QueryJson read it in place.
  struct Answer {
    std::shared_ptr<const MappingSet> shared;
    MappingSet owned;

    const MappingSet& set() const {
      return shared != nullptr ? *shared : owned;
    }
    /// The caller's own set: a shared answer stays the cache's, so it is
    /// copied once on the way out.
    MappingSet Take() && {
      return shared != nullptr ? MappingSet(*shared) : std::move(owned);
    }
  };

  /// The query lifecycle behind every public entry point. It resolves the
  /// options, the cache and the in-flight slot once; probes the result
  /// cache (text queries, never EXPLAIN); parses through the plan cache, or
  /// takes Eval's `pattern` (non-null exactly for Eval); evaluates through
  /// Evaluator::EvalChecked, under a Tracer when `explain` is non-null;
  /// and fills one QueryLogRecord that the metrics, the query log, the
  /// result-cache store and `*explain` all read. Eval writes no log record
  /// and counts no engine.queries.
  Result<Answer> Run(const std::string& graph_name, std::string_view query,
                     const PatternPtr* pattern, EvalOptions options,
                     QueryExplanation* explain);

  /// Folds the cache's lifetime stats into the registry: monotone
  /// engine.cache_{hit,miss,eviction,bypass} counters (delta-tracked, so
  /// queries pay nothing) and live-size gauges. Called only from
  /// MetricsSnapshot, so between scrapes the registry holds the figures
  /// of the last one.
  void RefreshCacheMetrics();

  /// Applies the engine-wide thread, limits and query-log defaults to
  /// per-query options.
  EvalOptions WithEngineDefaults(EvalOptions options) const;

  /// One query's hold on the current version of a graph (null when no
  /// graph has that name). The pin is taken and released under
  /// catalog_mu_: a writer that finds a version's use count at 1 under
  /// that mutex is thereby ordered after every read made through a pin.
  class GraphPin {
   public:
    GraphPin(const Engine& engine, const std::string& name);
    ~GraphPin();
    GraphPin(const GraphPin&) = delete;
    GraphPin& operator=(const GraphPin&) = delete;

    const Graph* get() const { return graph_.get(); }

   private:
    std::mutex& mu_;
    std::shared_ptr<const Graph> graph_;
  };

  /// Makes `next` the current version of `name`, folding the retired
  /// version's index-lock waits into retired_index_waits_. Requires
  /// writer_mu_.
  void Publish(const std::string& name, std::shared_ptr<Graph> next);

  /// Recomputes the engine.graph_bytes / engine.graph_triples gauges after
  /// a graph write. Requires writer_mu_.
  void UpdateGraphGauges();

  /// Counts a governance rejection (always recorded — rejections are rare
  /// and the registry exists regardless of the metrics opt-in). When the
  /// slot says the watchdog did it, engine.queries_watchdog_cancelled is
  /// counted on top of the plain cancellation counter.
  void RecordRejection(const Status& status, bool watchdog_cancelled);

  /// Copies the registry's occupancy into gauges/counters (called from
  /// MetricsSnapshot so scrapes stay current at zero per-query cost).
  void RefreshInflightGauges();

  /// Observes the per-fragment eval-latency histogram when some alert rule
  /// is scoped to `fragment`; one map lookup otherwise.
  void ObserveFragmentLatency(const std::string& fragment, uint64_t eval_ns);

  /// The engine's per-query registry handles, looked up by the first
  /// EnableMetrics(true); null before it.
  struct MetricHandles {
    Counter* queries = nullptr;
    Histogram* parse_ns = nullptr;
    Histogram* eval_ns = nullptr;
    Gauge* peak_mappings = nullptr;
    Gauge* peak_bytes = nullptr;
    Counter* total_mappings = nullptr;
    Histogram* peak_mappings_per_query = nullptr;
    Histogram* peak_bytes_per_query = nullptr;
  };

  /// The rejection counters, looked up at the first rejection (metrics on
  /// or off), so a default engine's registry holds none of them.
  struct RejectionCounters {
    Counter* rejected = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* cancelled = nullptr;
    Counter* watchdog_cancelled = nullptr;
  };

  Dictionary dict_;
  // The catalog: each name's current version. catalog_mu_ guards the map,
  // every pin's copy and release, and in-place writes; writer_mu_
  // serializes writers, so a write's copy-modify-publish is never lost.
  mutable std::mutex catalog_mu_;
  std::mutex writer_mu_;
  std::map<std::string, std::shared_ptr<Graph>> graphs_;
  // Index-lock waits of replaced versions (guarded by catalog_mu_), so the
  // lock.graph_index_* series stay monotone across PutGraph.
  WaitStats::Totals retired_index_waits_;
  MetricsRegistry metrics_;
  bool collect_metrics_ = false;
  MetricHandles handles_;
  std::once_flag rejections_once_;
  RejectionCounters rejections_;
  // engine.eval_ns{fragment=F} for every fragment F an installed alert rule
  // is scoped to, looked up once by SetAlertRules.
  std::map<std::string, Histogram*, std::less<>> fragment_eval_ns_;
  QueryLog* default_query_log_ = nullptr;
  ResourceLimits default_limits_;
  int default_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // shared across queries; sized
                                      // default_threads_, created lazily
  bool live_monitoring_ = false;
  InflightRegistry inflight_;
  std::unique_ptr<TelemetrySampler> telemetry_;
  // History ring + alert engine (SetAlertRules), or a ring of the running
  // sampler's own (StartTelemetry without rules). The sampler borrows raw
  // pointers to both, so they must outlive any running telemetry — which
  // SetAlertRules/ClearAlertRules enforce by refusing to run mid-sampling.
  std::unique_ptr<MetricsHistory> history_;
  std::unique_ptr<AlertEngine> alerts_;
  // For the engine.uptime_seconds gauge.
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::unique_ptr<Profiler> profiler_;
  QueryCache* query_cache_ = nullptr;
  // Last cache totals already folded into the registry's monotone
  // counters (RefreshCacheMetrics); rebased by SetQueryCache so attaching
  // a pre-used cache doesn't replay its history.
  uint64_t folded_cache_hits_ = 0;
  uint64_t folded_cache_misses_ = 0;
  uint64_t folded_cache_evictions_ = 0;
  uint64_t folded_cache_bypasses_ = 0;
};

}  // namespace rdfql

#endif  // RDFQL_CORE_ENGINE_H_
