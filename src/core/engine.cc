#include "core/engine.h"

#include <chrono>
#include <cstdio>
#include <optional>

#include "algebra/pattern_printer.h"
#include "algebra/result_io.h"
#include "analysis/fragments.h"
#include "analysis/well_designed.h"
#include "obs/accounting.h"
#include "obs/tracer.h"
#include "optimize/optimizer.h"
#include "rdf/ntriples.h"
#include "transform/ns_elimination.h"
#include "transform/opt_rewriter.h"
#include "transform/select_free.h"
#include "transform/wd_to_simple.h"
#include "util/profile_state.h"

namespace rdfql {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t UnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// The query log's typed-outcome vocabulary, one token per StatusCode.
const char* OutcomeString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kUnsupported:
      return "unsupported";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool CrossedSlowThreshold(const QueryLogRecord& record, const QueryLog& log) {
  uint64_t slow_ms = log.options().slow_ms;
  return slow_ms != 0 && record.parse_ns + record.eval_ns >= slow_ms * 1'000'000;
}

std::string PhaseString(uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(ns) / 1e6);
  }
  return buf;
}

std::string BytesString(uint64_t bytes) {
  char buf[32];
  if (bytes < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  } else if (bytes < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fKB",
                  static_cast<double>(bytes) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(bytes) / 1e6);
  }
  return buf;
}

std::string LimitsString(const ResourceLimits& limits) {
  if (!limits.Enforced()) return "none";
  std::string out;
  auto append = [&out](const std::string& piece) {
    if (!out.empty()) out += " ";
    out += piece;
  };
  if (limits.max_wall_ms != 0) {
    append("wall=" + std::to_string(limits.max_wall_ms) + "ms");
  }
  if (limits.max_live_mappings != 0) {
    append("live_mappings=" + std::to_string(limits.max_live_mappings));
  }
  if (limits.max_bytes != 0) {
    append("bytes=" + BytesString(limits.max_bytes));
  }
  if (limits.max_ast_nodes != 0) {
    append("ast_nodes=" + std::to_string(limits.max_ast_nodes));
  }
  return out;
}

/// The log outcome for a failed query: "watchdog_cancelled" when this
/// registration's slot says the watchdog tripped the token (and the status
/// agrees it was a cancellation), the plain per-code token otherwise.
const char* OutcomeForFailure(const Status& status, InflightSlot* slot) {
  if (slot != nullptr && slot->watchdog_cancelled() &&
      status.code() == StatusCode::kCancelled) {
    return "watchdog_cancelled";
  }
  return OutcomeString(status.code());
}

bool WatchdogTripped(InflightSlot* slot) {
  return slot != nullptr && slot->watchdog_cancelled();
}

}  // namespace

Engine::~Engine() {
  StopTelemetry();
  DisableProfiling();
}

std::string QueryExplanation::ToString() const {
  std::string out = "parse: " + PhaseString(parse_ns) +
                    "  eval: " + PhaseString(eval_ns) + "  mem: peak " +
                    std::to_string(peak_mappings) + " mappings / " +
                    BytesString(peak_bytes) + "\n";
  out += "limits: " + LimitsString(limits) + "\n";
  if (!cache_note.empty()) out += "cache: " + cache_note + "\n";
  if (hist_queries > 0) {
    out += "time: eval p50=" +
           PhaseString(static_cast<uint64_t>(eval_p50_ns)) +
           " p90=" + PhaseString(static_cast<uint64_t>(eval_p90_ns)) +
           " p99=" + PhaseString(static_cast<uint64_t>(eval_p99_ns)) +
           " (n=" + std::to_string(hist_queries) + ")\n";
  }
  out += explanation.ToString();
  return out;
}

Status Engine::LoadGraphText(const std::string& name,
                             std::string_view ntriples) {
  Graph& g = graphs_[name];
  Status st = ParseNTriples(ntriples, &dict_, &g);
  UpdateGraphGauges();
  return st;
}

void Engine::PutGraph(const std::string& name, Graph graph) {
  graphs_[name] = std::move(graph);
  UpdateGraphGauges();
}

void Engine::UpdateGraphGauges() {
  size_t bytes = 0;
  size_t triples = 0;
  for (const auto& [name, g] : graphs_) {
    bytes += g.ApproxBytes();
    triples += g.size();
  }
  metrics_.GetGauge("engine.graph_bytes")->Set(static_cast<int64_t>(bytes));
  metrics_.GetGauge("engine.graph_triples")
      ->Set(static_cast<int64_t>(triples));
}

Result<const Graph*> Engine::GetGraph(const std::string& name) const {
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return &it->second;
}

Result<PatternPtr> Engine::Parse(std::string_view query) {
  return ParsePattern(query, &dict_);
}

Result<ConstructQuery> Engine::ParseConstructQuery(std::string_view query) {
  RDFQL_ASSIGN_OR_RETURN(ParsedConstruct parsed,
                         ParseConstruct(query, &dict_));
  return ConstructQuery(std::move(parsed.templ), std::move(parsed.where));
}

void Engine::SetQueryCache(QueryCache* cache) {
  query_cache_ = cache;
  // Rebase the fold baselines on the new cache's lifetime totals so a
  // pre-used cache doesn't replay its history into this engine's counters.
  QueryCacheStats s = cache != nullptr ? cache->Stats() : QueryCacheStats{};
  folded_cache_hits_ = s.hits();
  folded_cache_misses_ = s.misses();
  folded_cache_evictions_ = s.evictions();
  folded_cache_bypasses_ = s.bypasses;
}

Engine::CacheContext Engine::ResolveCache(std::string_view query,
                                          const EvalOptions& options) const {
  CacheContext cc;
  if (query_cache_ == nullptr) return cc;
  cc.cache = query_cache_;
  cc.plan_on = query_cache_->plan_enabled() &&
               options.use_plan_cache != CacheMode::kOff;
  cc.result_on = query_cache_->result_enabled() &&
                 options.use_result_cache != CacheMode::kOff;
  if (!cc.plan_on && !cc.result_on) {
    cc.bypass = true;
    query_cache_->NoteBypass();
    return cc;
  }
  cc.canonical = CanonicalizeQueryText(query);
  cc.hash = StableQueryHash(cc.canonical);  // idempotent: hash of canonical
  return cc;
}

std::shared_ptr<const MappingSet> Engine::CacheResultLookup(
    CacheContext* cc, const std::string& graph_name,
    const EvalOptions& options) {
  auto it = graphs_.find(graph_name);
  if (it == graphs_.end()) {
    // Unknown graph: let the normal path surface NotFound (and don't
    // store under a meaningless epoch).
    cc->result_on = false;
    return nullptr;
  }
  cc->graph_epoch = it->second.Epoch();
  cc->epoch_known = true;
  ResultCacheKey key{cc->hash, graph_name, cc->graph_epoch,
                     EvalOptionsFingerprint(options)};
  std::shared_ptr<const MappingSet> hit =
      cc->cache->GetResult(key, cc->canonical);
  if (hit != nullptr) cc->result_hit = true;
  return hit;
}

Result<PatternPtr> Engine::ParseCached(CacheContext* cc,
                                       std::string_view query,
                                       std::string* fragment) {
  if (cc->plan_on) {
    if (CachedPlanPtr plan = cc->cache->GetPlan(cc->hash, cc->canonical)) {
      cc->plan_hit = true;
      if (fragment != nullptr) *fragment = plan->fragment;
      return plan->pattern;
    }
  }
  Result<PatternPtr> parsed = Parse(query);
  if (!parsed.ok()) return parsed;
  if (cc->plan_on || fragment != nullptr) {
    std::string frag = DescribeFragment(parsed.value());
    if (fragment != nullptr) *fragment = frag;
    if (cc->plan_on) {
      auto plan = std::make_shared<CachedPlan>();
      plan->canonical_query = cc->canonical;
      plan->pattern = parsed.value();
      plan->fragment = std::move(frag);
      cc->cache->PutPlan(cc->hash, std::move(plan));
    }
  }
  return parsed;
}

void Engine::CacheStoreResult(const CacheContext& cc,
                              const std::string& graph_name,
                              const EvalOptions& options,
                              std::shared_ptr<const MappingSet> result) {
  ResultCacheKey key{cc.hash, graph_name, cc.graph_epoch,
                     EvalOptionsFingerprint(options)};
  cc.cache->PutResult(key, cc.canonical, std::move(result));
}

Engine::Answer Engine::AnswerFrom(const CacheContext& cc,
                                  const std::string& graph_name,
                                  const EvalOptions& options,
                                  MappingSet result) {
  Answer answer;
  if (!cc.StoresResult()) {
    answer.owned = std::move(result);
    return answer;
  }
  answer.shared = std::make_shared<const MappingSet>(std::move(result));
  CacheStoreResult(cc, graph_name, options, answer.shared);
  return answer;
}

Result<MappingSet> Engine::Query(const std::string& graph_name,
                                 std::string_view query,
                                 EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(Answer answer,
                         QueryAnswer(graph_name, query, std::move(options)));
  // A shared answer stays the cache's; the caller gets the one copy.
  if (answer.shared != nullptr) return MappingSet(*answer.shared);
  return std::move(answer.owned);
}

Result<Engine::Answer> Engine::QueryAnswer(const std::string& graph_name,
                                           std::string_view query,
                                           EvalOptions options) {
  QueryLog* log =
      options.query_log != nullptr ? options.query_log : default_query_log_;
  if (log != nullptr) {
    // QueryLogged opens its own Engine::Query frame — pushing one here too
    // would double it in every sampled stack.
    return QueryLogged(graph_name, query, std::move(options), log);
  }
  ProfileFrame profile_frame("Engine::Query");
  // Register with the in-flight registry (monitoring opt-in); the nested
  // Eval below borrows this slot and fills in fragment, threads and the
  // eval phase.
  InflightScope monitor(live_monitoring_ ? &inflight_ : nullptr, graph_name,
                        query, live_monitoring_ ? StableQueryHash(query) : 0);
  if (monitor.slot() != nullptr) monitor.slot()->SetPhase(QueryPhase::kParsing);
  CacheContext cc = ResolveCache(query, options);
  if (cc.result_on) {
    uint64_t t0 = collect_metrics_ ? NowNs() : 0;
    if (std::shared_ptr<const MappingSet> hit =
            CacheResultLookup(&cc, graph_name, options)) {
      if (collect_metrics_) {
        metrics_.GetCounter("engine.queries")->Inc();
        // The lookup *is* this query's evaluation; observing it keeps the
        // latency histogram honest about what callers experienced.
        uint64_t hit_ns = NowNs() - t0;
        metrics_.GetHistogram("engine.eval_ns")->Observe(hit_ns);
        if (alerts_ != nullptr && alerts_->wants_fragments()) {
          // The fragment rides on the plan entry; peek so the lookup stays
          // out of the plan cache's hit/miss accounting.
          if (CachedPlanPtr plan = cc.cache->PeekPlan(cc.hash, cc.canonical)) {
            ObserveFragmentLatency(plan->fragment, hit_ns);
          }
        }
      }
      return Answer{std::move(hit), MappingSet()};
    }
  }
  if (collect_metrics_) metrics_.GetCounter("engine.queries")->Inc();
  uint64_t t0 = collect_metrics_ ? NowNs() : 0;
  PatternPtr pattern;
  {
    ProfileFrame parse_frame("Parse");
    RDFQL_ASSIGN_OR_RETURN(pattern, ParseCached(&cc, query, nullptr));
  }
  if (collect_metrics_) {
    metrics_.GetHistogram("engine.parse_ns")->Observe(NowNs() - t0);
  }
  RDFQL_ASSIGN_OR_RETURN(MappingSet result, Eval(graph_name, pattern, options));
  return AnswerFrom(cc, graph_name, options, std::move(result));
}

Result<Engine::Answer> Engine::QueryLogged(const std::string& graph_name,
                                           std::string_view query,
                                           EvalOptions options,
                                           QueryLog* log) {
  ProfileFrame profile_frame("Engine::Query");
  QueryLogRecord rec;
  rec.correlation_id = log->NextCorrelationId();
  rec.query_hash = StableQueryHash(query);
  rec.graph = graph_name;
  rec.query = std::string(query);
  rec.unix_ms = UnixMs();

  InflightScope monitor(live_monitoring_ ? &inflight_ : nullptr, graph_name,
                        query, rec.query_hash);
  InflightSlot* slot = monitor.slot();
  if (slot != nullptr) {
    slot->SetCorrelationId(rec.correlation_id);
    slot->SetPhase(QueryPhase::kParsing);
  }

  CacheContext cc = ResolveCache(query, options);
  if (cc.result_on) {
    uint64_t t0c = NowNs();
    if (std::shared_ptr<const MappingSet> hit =
            CacheResultLookup(&cc, graph_name, options)) {
      rec.eval_ns = NowNs() - t0c;
      rec.cache = cc.LogOutcome();
      // The fragment rides along on the plan entry; recover it without
      // touching the plan cache's hit/miss accounting.
      if (CachedPlanPtr plan = cc.cache->PeekPlan(cc.hash, cc.canonical)) {
        rec.fragment = plan->fragment;
      }
      rec.rows_out = hit->size();
      if (collect_metrics_) {
        metrics_.GetCounter("engine.queries")->Inc();
        metrics_.GetHistogram("engine.eval_ns")->Observe(rec.eval_ns);
        ObserveFragmentLatency(rec.fragment, rec.eval_ns);
      }
      rec.slow = CrossedSlowThreshold(rec, *log);
      log->Record(std::move(rec));
      return Answer{std::move(hit), MappingSet()};
    }
  }

  if (collect_metrics_) metrics_.GetCounter("engine.queries")->Inc();
  uint64_t t0 = NowNs();
  Result<PatternPtr> parsed = [&] {
    ProfileFrame parse_frame("Parse");
    return ParseCached(&cc, query, &rec.fragment);
  }();
  rec.parse_ns = NowNs() - t0;
  if (collect_metrics_) {
    metrics_.GetHistogram("engine.parse_ns")->Observe(rec.parse_ns);
  }
  if (!parsed.ok()) {
    rec.cache = cc.LogOutcome();
    rec.outcome = OutcomeString(parsed.status().code());
    rec.error = parsed.status().message();
    rec.slow = CrossedSlowThreshold(rec, *log);
    log->Record(std::move(rec));
    return parsed.status();
  }
  PatternPtr pattern = *std::move(parsed);
  if (slot != nullptr) slot->SetFragment(rec.fragment);

  Result<const Graph*> graph = GetGraph(graph_name);
  if (!graph.ok()) {
    rec.cache = cc.LogOutcome();
    rec.outcome = OutcomeString(graph.status().code());
    rec.error = graph.status().message();
    log->Record(std::move(rec));
    return graph.status();
  }

  options = WithEngineDefaults(options);
  rec.threads = options.threads < 1 ? 1 : options.threads;
  if (slot != nullptr) slot->SetThreads(rec.threads);
  if (collect_metrics_ && options.metrics == nullptr) {
    options.metrics = &metrics_;
  }
  // The log always accounts memory (its records carry peak figures); a
  // caller-provided accountant wins, exactly as on the unlogged path. With
  // a registry slot, the slot-owned accountant is used instead of a local
  // one so snapshots see the query's live figures, and the slot's token is
  // wired in so the watchdog can cancel the query mid-flight.
  ResourceAccountant acct;
  if (options.accountant == nullptr) {
    options.accountant = slot != nullptr ? slot->accountant() : &acct;
  }
  if (slot != nullptr && options.cancel == nullptr) {
    options.cancel = slot->token();
  }

  if (slot != nullptr) slot->SetPhase(QueryPhase::kEvaluating);
  t0 = NowNs();
  Result<MappingSet> result = [&] {
    ProfileFrame eval_frame("Eval");
    return Evaluator(*graph, options).EvalChecked(pattern);
  }();
  rec.eval_ns = NowNs() - t0;
  if (slot != nullptr) slot->SetPhase(QueryPhase::kFinishing);
  // One measured value into both sinks: the engine histogram and the log
  // record see the same eval_ns, so rdfql_stats over the log reproduces
  // MetricsSnapshot's percentiles exactly.
  if (collect_metrics_) {
    metrics_.GetHistogram("engine.eval_ns")->Observe(rec.eval_ns);
    ObserveFragmentLatency(rec.fragment, rec.eval_ns);
    RecordAccounting(*options.accountant);
  }
  rec.peak_mappings = options.accountant->peak_mappings();
  rec.peak_bytes = options.accountant->peak_bytes();
  rec.total_mappings = options.accountant->total_mappings();
  if (result.ok()) {
    rec.rows_out = result.value().size();
  } else {
    RecordRejection(result.status(), WatchdogTripped(slot));
    rec.outcome = OutcomeForFailure(result.status(), slot);
    rec.error = result.status().message();
  }
  rec.cache = cc.LogOutcome();
  rec.slow = CrossedSlowThreshold(rec, *log);
  if (rec.slow && log->options().explain_slow && result.ok()) {
    // Capture the full EXPLAIN ANALYZE for the offender: one bounded
    // re-run under a tracer, governance and accounting cleared so the
    // capture itself cannot be rejected or skew the figures.
    EvalOptions explain_options = options;
    explain_options.limits = ResourceLimits{};
    explain_options.deadline = Deadline{};
    explain_options.cancel = nullptr;
    explain_options.accountant = nullptr;
    explain_options.metrics = nullptr;
    rec.explain =
        ExplainEval(**graph, pattern, dict_, explain_options).ToString();
  }
  log->Record(std::move(rec));
  if (!result.ok()) return result.status();
  return AnswerFrom(cc, graph_name, options, std::move(result).value());
}

void Engine::SetDefaultThreads(int threads) {
  default_threads_ = threads < 1 ? 1 : threads;
  // Resize (or drop) the shared pool; queries in flight are the caller's
  // responsibility — the engine is not itself thread-safe for writes.
  pool_.reset();
  if (default_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(default_threads_);
  }
}

EvalOptions Engine::WithEngineDefaults(EvalOptions options) const {
  if (options.threads <= 1 && default_threads_ > 1) {
    options.threads = default_threads_;
    options.pool = pool_.get();
  }
  // Per-query limits win wholesale; otherwise the engine default applies.
  if (!options.limits.Enforced()) {
    options.limits = default_limits_;
  }
  // Same pattern for the query log sink.
  if (options.query_log == nullptr) {
    options.query_log = default_query_log_;
  }
  return options;
}

Result<MappingSet> Engine::Eval(const std::string& graph_name,
                                const PatternPtr& pattern,
                                EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(const Graph* graph, GetGraph(graph_name));
  // Direct Eval calls register with the in-flight registry too; nested
  // calls (Query -> Eval) borrow the slot their Query already registered.
  // The pattern is printed back to its concrete syntax only when this call
  // owns a fresh registration.
  InflightRegistry* registry = live_monitoring_ ? &inflight_ : nullptr;
  std::string pattern_text;
  if (registry != nullptr && InflightScope::CurrentSlot() == nullptr) {
    pattern_text = PatternToString(pattern, dict_);
  }
  InflightScope monitor(
      registry, graph_name, pattern_text,
      pattern_text.empty() ? 0 : StableQueryHash(pattern_text));
  InflightSlot* slot = monitor.slot();
  options = WithEngineDefaults(options);
  // The fragment is classified when someone consumes it: a registry slot,
  // or a fragment-scoped alert rule wanting its latency histogram.
  std::string fragment;
  if (slot != nullptr ||
      (collect_metrics_ && alerts_ != nullptr && alerts_->wants_fragments())) {
    fragment = DescribeFragment(pattern);
  }
  if (slot != nullptr) {
    slot->SetFragment(fragment);
    slot->SetThreads(options.threads < 1 ? 1 : options.threads);
    if (options.accountant == nullptr) options.accountant = slot->accountant();
    if (options.cancel == nullptr) options.cancel = slot->token();
  }
  bool governed = options.governed();
  ProfileFrame eval_frame("Eval");
  if (!collect_metrics_ && !governed) {
    return EvalPattern(*graph, pattern, options);
  }
  if (collect_metrics_ && options.metrics == nullptr) {
    options.metrics = &metrics_;
  }
  // Per-query memory accounting rides on the metrics opt-in: a fresh
  // accountant per query, folded into the registry afterwards. A
  // caller-provided accountant wins (and the caller reads it directly).
  // Governed-only queries without metrics skip it — EvalChecked creates
  // its own accountant when the limits need one.
  ResourceAccountant acct;
  if (collect_metrics_ && options.accountant == nullptr) {
    options.accountant = &acct;
  }
  if (slot != nullptr) slot->SetPhase(QueryPhase::kEvaluating);
  uint64_t t0 = NowNs();
  Result<MappingSet> result = Evaluator(graph, options).EvalChecked(pattern);
  if (slot != nullptr) slot->SetPhase(QueryPhase::kFinishing);
  if (collect_metrics_) {
    uint64_t eval_ns = NowNs() - t0;
    metrics_.GetHistogram("engine.eval_ns")->Observe(eval_ns);
    ObserveFragmentLatency(fragment, eval_ns);
    RecordAccounting(*options.accountant);
  }
  if (!result.ok()) RecordRejection(result.status(), WatchdogTripped(slot));
  return result;
}

void Engine::RecordRejection(const Status& status, bool watchdog_cancelled) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      metrics_.GetCounter("engine.queries_rejected")->Inc();
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.GetCounter("engine.queries_deadline_exceeded")->Inc();
      break;
    case StatusCode::kCancelled:
      metrics_.GetCounter("engine.queries_cancelled")->Inc();
      if (watchdog_cancelled) {
        metrics_.GetCounter("engine.queries_watchdog_cancelled")->Inc();
      }
      break;
    default:
      break;
  }
}

namespace {

// Converts one WaitStats site into snapshot entries under `base`:
// `<base>_contended_total` (counter) and `<base>_wait_ns` (histogram).
// Bucket bounds mirror obs Histogram exactly (power-of-two exclusive upper
// bounds), so the injected data is indistinguishable from a registry
// histogram to every consumer (OpenMetrics, rdfql_stats percentiles).
void InjectWaitHistogram(const WaitStats::Totals& t, const std::string& name,
                         RegistrySnapshot* snap) {
  RegistrySnapshot::HistogramData hist;
  hist.count = t.count;
  hist.sum = t.sum_ns;
  for (int i = 0; i < WaitStats::kNumBuckets; ++i) {
    if (t.buckets[i] != 0) {
      hist.buckets.emplace_back(uint64_t{1} << i, t.buckets[i]);
    }
  }
  snap->histograms[name] = std::move(hist);
}

void InjectWaitHistogram(const WaitStats& stats, const std::string& name,
                         RegistrySnapshot* snap) {
  WaitStats::Totals t;
  stats.AddTo(&t);
  InjectWaitHistogram(t, name, snap);
}

void InjectWaitStats(const WaitStats::Totals& t, const std::string& base,
                     RegistrySnapshot* snap) {
  snap->counters[base + "_contended_total"] = t.contended;
  InjectWaitHistogram(t, base + "_wait_ns", snap);
}

void InjectWaitStats(const WaitStats& stats, const std::string& base,
                     RegistrySnapshot* snap) {
  WaitStats::Totals t;
  stats.AddTo(&t);
  InjectWaitStats(t, base, snap);
}

}  // namespace

RegistrySnapshot Engine::MetricsSnapshot() {
  RefreshInflightGauges();
  RefreshCacheMetrics();
  RegistrySnapshot snap = metrics_.Snapshot();
  // Pool and lock-contention series live outside the registry (lock-free
  // WaitStats at the contended sites; the registry's own mutexes must not
  // appear on those paths), and are merged into every snapshot here —
  // present whether or not profiling is on.
  if (pool_ != nullptr) {
    snap.counters["pool.tasks_total"] =
        pool_->tasks_total();
    snap.gauges["pool.queue_depth"] =
        static_cast<int64_t>(pool_->QueueDepth());
    InjectWaitHistogram(pool_->queue_delay_stats(), "pool.queue_delay_ns",
                        &snap);
    InjectWaitHistogram(pool_->run_time_stats(), "pool.run_ns", &snap);
  }
  InjectWaitStats(dict_.lock_wait_stats(), "lock.dictionary", &snap);
  WaitStats::Totals graph_totals;
  for (const auto& [name, graph] : graphs_) {
    graph.index_lock_wait_stats().AddTo(&graph_totals);
  }
  InjectWaitStats(graph_totals, "lock.graph_index", &snap);
  if (query_cache_ != nullptr) {
    InjectWaitStats(query_cache_->lock_wait_stats(), "lock.query_cache",
                    &snap);
  }
  if (profiler_ != nullptr) {
    snap.counters["profiler.ticks_total"] = profiler_->ticks();
    snap.counters["profiler.samples_total"] = profiler_->samples();
  }
  if (alerts_ != nullptr) {
    // Counter/gauge families stay disjoint (OpenMetrics would reject
    // `engine.alerts_firing` as both): the cumulative transition counters
    // render as engine_alerts_{pending,fired,resolved}_total, the live
    // count as the engine_alerts_firing gauge.
    snap.counters["engine.alerts_pending"] = alerts_->pending_total();
    snap.counters["engine.alerts_fired"] = alerts_->firing_total();
    snap.counters["engine.alerts_resolved"] = alerts_->resolved_total();
    snap.gauges["engine.alerts_firing"] = alerts_->firing_now();
  }
  snap.gauges["engine.uptime_seconds"] = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  return snap;
}

void Engine::RefreshCacheMetrics() {
  if (query_cache_ == nullptr) return;
  QueryCacheStats s = query_cache_->Stats();
  auto fold = [this](const char* name, uint64_t total, uint64_t* seen) {
    if (total > *seen) {
      metrics_.GetCounter(name)->Inc(total - *seen);
      *seen = total;
    }
  };
  fold("engine.cache_hit", s.hits(), &folded_cache_hits_);
  fold("engine.cache_miss", s.misses(), &folded_cache_misses_);
  fold("engine.cache_eviction", s.evictions(), &folded_cache_evictions_);
  fold("engine.cache_bypass", s.bypasses, &folded_cache_bypasses_);
  metrics_.GetGauge("engine.cache_plan_entries")
      ->Set(static_cast<int64_t>(s.plan_entries));
  metrics_.GetGauge("engine.cache_result_entries")
      ->Set(static_cast<int64_t>(s.result_entries));
  metrics_.GetGauge("engine.cache_result_bytes")
      ->Set(static_cast<int64_t>(s.result_bytes));
}

void Engine::RefreshInflightGauges() {
  metrics_.GetGauge("engine.queries_active")
      ->Set(static_cast<int64_t>(inflight_.active()));
  uint64_t live_mappings = 0;
  uint64_t live_bytes = 0;
  if (inflight_.active() != 0) {
    for (const InflightQueryInfo& q : inflight_.Snapshot().queries) {
      live_mappings += q.live_mappings;
      live_bytes += q.live_bytes;
    }
  }
  metrics_.GetGauge("inflight.live_mappings")
      ->Set(static_cast<int64_t>(live_mappings));
  metrics_.GetGauge("inflight.live_bytes")
      ->Set(static_cast<int64_t>(live_bytes));
}

Status Engine::StartTelemetry(const TelemetryOptions& options) {
  if (telemetry_ != nullptr) {
    return Status::InvalidArgument("telemetry sampler already running");
  }
  EnableLiveMonitoring(true);
  TelemetryOptions effective = options;
  // Installed alert rules ride every sampler: the tick records the history
  // sample and evaluates the rules against it.
  if (history_ != nullptr) effective.history = history_.get();
  if (alerts_ != nullptr) effective.alerts = alerts_.get();
  telemetry_ =
      std::make_unique<TelemetrySampler>(&metrics_, &inflight_, effective);
  return Status::Ok();
}

void Engine::StopTelemetry() { telemetry_.reset(); }

Status Engine::SetAlertRules(const std::string& rules_json,
                             const AlertLogOptions& log_options,
                             const HistoryOptions& history_options) {
  if (telemetry_ != nullptr) {
    return Status::InvalidArgument(
        "stop telemetry before changing alert rules");
  }
  std::vector<AlertRule> rules;
  std::string error;
  if (!ParseAlertRules(rules_json, &rules, &error)) {
    return Status::InvalidArgument("alert rules: " + error);
  }
  auto history = std::make_unique<MetricsHistory>(history_options);
  auto alerts = std::make_unique<AlertEngine>(std::move(rules), log_options);
  if (!alerts->log_ok()) {
    return Status::InvalidArgument("alert log: " + alerts->log_error());
  }
  history_ = std::move(history);
  alerts_ = std::move(alerts);
  // Rules without metrics would evaluate an empty ring forever.
  EnableMetrics(true);
  return Status::Ok();
}

Status Engine::ClearAlertRules() {
  if (telemetry_ != nullptr) {
    return Status::InvalidArgument(
        "stop telemetry before clearing alert rules");
  }
  alerts_.reset();
  history_.reset();
  return Status::Ok();
}

void Engine::ObserveFragmentLatency(const std::string& fragment,
                                    uint64_t eval_ns) {
  if (alerts_ == nullptr || fragment.empty() ||
      !alerts_->WantsFragment(fragment)) {
    return;
  }
  metrics_.GetHistogram(FragmentMetricName("engine.eval_ns", fragment))
      ->Observe(eval_ns);
}

Status Engine::EnableProfiling(uint64_t hz) {
  if (profiling()) {
    return Status::InvalidArgument("profiler already running");
  }
  // A fresh Profiler per enable: each profiling window aggregates into its
  // own trie, so dumps describe exactly one window.
  auto profiler = std::make_unique<Profiler>(ProfilerOptions{hz});
  if (!profiler->Start()) {
    return Status::InvalidArgument(
        "another profiler is active in this process");
  }
  profiler_ = std::move(profiler);
  return Status::Ok();
}

void Engine::DisableProfiling() {
  if (profiler_ != nullptr) profiler_->Stop();
}


void Engine::RecordAccounting(const ResourceAccountant& acct) {
  metrics_.GetGauge("engine.peak_mappings")
      ->Set(static_cast<int64_t>(acct.peak_mappings()));
  metrics_.GetGauge("engine.peak_bytes")
      ->Set(static_cast<int64_t>(acct.peak_bytes()));
  metrics_.GetCounter("engine.total_mappings")->Inc(acct.total_mappings());
  metrics_.GetHistogram("engine.peak_mappings_per_query")
      ->Observe(acct.peak_mappings());
  metrics_.GetHistogram("engine.peak_bytes_per_query")
      ->Observe(acct.peak_bytes());
}

Result<QueryExplanation> Engine::QueryExplained(const std::string& graph_name,
                                                std::string_view query,
                                                EvalOptions options) {
  ProfileFrame profile_frame("Engine::QueryExplained");
  QueryLog* log =
      options.query_log != nullptr ? options.query_log : default_query_log_;
  QueryLogRecord rec;
  if (log != nullptr) {
    rec.correlation_id = log->NextCorrelationId();
    rec.query_hash = StableQueryHash(query);
    rec.graph = graph_name;
    rec.query = std::string(query);
    rec.unix_ms = UnixMs();
  }
  InflightScope monitor(live_monitoring_ ? &inflight_ : nullptr, graph_name,
                        query, live_monitoring_ ? StableQueryHash(query) : 0);
  InflightSlot* slot = monitor.slot();
  if (slot != nullptr) {
    slot->SetCorrelationId(rec.correlation_id);
    slot->SetPhase(QueryPhase::kParsing);
  }
  QueryExplanation out;
  out.correlation_id = rec.correlation_id;
  // EXPLAIN consults the plan cache only: it always evaluates (serving a
  // materialized result would leave nothing to instrument), so its plan
  // tree and counters are the uncached plan exactly. The instrumented
  // run's answer is still stored for later plain queries to hit.
  CacheContext cc = ResolveCache(query, options);
  if (collect_metrics_) metrics_.GetCounter("engine.queries")->Inc();
  uint64_t t0 = NowNs();
  Result<PatternPtr> parsed = [&] {
    ProfileFrame parse_frame("Parse");
    return ParseCached(&cc, query, &rec.fragment);
  }();
  out.parse_ns = NowNs() - t0;
  if (!parsed.ok()) {
    if (log != nullptr) {
      rec.parse_ns = out.parse_ns;
      rec.cache = cc.LogOutcome();
      rec.outcome = OutcomeString(parsed.status().code());
      rec.error = parsed.status().message();
      rec.slow = CrossedSlowThreshold(rec, *log);
      log->Record(std::move(rec));
    }
    return parsed.status();
  }
  PatternPtr pattern = *std::move(parsed);
  rec.parse_ns = out.parse_ns;
  if (slot != nullptr) slot->SetFragment(rec.fragment);
  if (cc.cache != nullptr) {
    out.cache_note =
        cc.bypass
            ? "bypass"
            : std::string("plan=") +
                  (!cc.plan_on ? "off"
                               : cc.plan_hit ? "hit" : "miss") +
                  " result=" + (!cc.result_on ? "off" : "live");
  }
  Result<const Graph*> graph_result = GetGraph(graph_name);
  if (!graph_result.ok()) {
    if (log != nullptr) {
      rec.cache = cc.LogOutcome();
      rec.outcome = OutcomeString(graph_result.status().code());
      rec.error = graph_result.status().message();
      log->Record(std::move(rec));
    }
    return graph_result.status();
  }
  const Graph* graph = *graph_result;
  if (cc.result_on) {
    // Epoch read before evaluation, mirroring CacheResultLookup: with no
    // concurrent writes during queries, this is the state the traced
    // evaluation sees.
    cc.graph_epoch = graph->Epoch();
    cc.epoch_known = true;
  }
  options = WithEngineDefaults(options);
  if (slot != nullptr) {
    slot->SetThreads(options.threads < 1 ? 1 : options.threads);
  }
  if (collect_metrics_ && options.metrics == nullptr) {
    options.metrics = &metrics_;
  }
  // EXPLAIN ANALYZE always accounts memory, metrics opt-in or not. With a
  // registry slot the slot-owned accountant is used, so snapshots see the
  // instrumented run's live figures.
  ResourceAccountant local_acct;
  ResourceAccountant* acct = slot != nullptr ? slot->accountant() : &local_acct;
  options.accountant = acct;
  // Arm governance around the traced evaluation: ExplainEval's inner
  // Evaluator polls the thread-local token, so installing it here puts
  // the instrumented run under the same limits as Engine::Eval. A slot's
  // token is installed even for ungoverned queries — that is the watchdog's
  // only way in.
  out.limits = options.limits;
  bool governed = options.governed();
  CancellationToken local_token;
  CancellationToken* token = options.cancel != nullptr ? options.cancel
                             : slot != nullptr         ? slot->token()
                                                       : &local_token;
  bool enforced = governed || slot != nullptr;
  if (governed) {
    Deadline deadline = options.deadline;
    if (options.limits.max_wall_ms != 0) {
      Deadline budget = Deadline::AfterMs(options.limits.max_wall_ms);
      if (budget.SoonerThan(deadline)) deadline = budget;
    }
    token->ArmDeadline(deadline);
    if (options.limits.max_live_mappings != 0 ||
        options.limits.max_bytes != 0) {
      acct->ArmCaps(options.limits.max_live_mappings, options.limits.max_bytes,
                    token);
    }
  }
  if (slot != nullptr) slot->SetPhase(QueryPhase::kEvaluating);
  t0 = NowNs();
  {
    std::optional<ScopedCancellation> install;
    if (enforced) install.emplace(token);
    ProfileFrame eval_frame("Eval");
    out.explanation = ExplainEval(*graph, pattern, dict_, options);
  }
  acct->DisarmCaps();
  out.eval_ns = NowNs() - t0;
  if (slot != nullptr) slot->SetPhase(QueryPhase::kFinishing);
  out.peak_mappings = acct->peak_mappings();
  out.peak_bytes = acct->peak_bytes();
  out.total_mappings = acct->total_mappings();
  if (collect_metrics_) {
    metrics_.GetHistogram("engine.parse_ns")->Observe(out.parse_ns);
    Histogram* eval_hist = metrics_.GetHistogram("engine.eval_ns");
    eval_hist->Observe(out.eval_ns);
    ObserveFragmentLatency(rec.fragment, out.eval_ns);
    out.hist_queries = eval_hist->Count();
    out.eval_p50_ns = eval_hist->Percentile(0.5);
    out.eval_p90_ns = eval_hist->Percentile(0.9);
    out.eval_p99_ns = eval_hist->Percentile(0.99);
    RecordAccounting(*acct);
  }
  if (out.correlation_id != 0 && out.explanation.plan != nullptr) {
    out.explanation.plan->counters.emplace_back("correlation_id",
                                                out.correlation_id);
  }
  if (cc.StoresResult() && !(enforced && token->cancelled())) {
    // EXPLAIN hands its result back, so the cache gets its own copy,
    // detached from any accountant the caller has installed.
    auto copy = std::make_shared<MappingSet>(out.explanation.result);
    copy->DetachAccounting();
    CacheStoreResult(cc, graph_name, options, std::move(copy));
  }
  if (log != nullptr) {
    rec.cache = cc.LogOutcome();
    rec.eval_ns = out.eval_ns;
    rec.threads = options.threads < 1 ? 1 : options.threads;
    rec.rows_out = out.explanation.result.size();
    rec.peak_mappings = out.peak_mappings;
    rec.peak_bytes = out.peak_bytes;
    rec.total_mappings = out.total_mappings;
    if (enforced && token->cancelled()) {
      Status status = token->status();
      rec.outcome = OutcomeForFailure(status, slot);
      rec.error = status.message();
    }
    rec.slow = CrossedSlowThreshold(rec, *log);
    // The instrumented plan is already in hand — no re-run needed here.
    if (rec.slow && log->options().explain_slow) {
      rec.explain = out.explanation.ToString();
    }
    log->Record(std::move(rec));
  }
  if (enforced && token->cancelled()) {
    Status status = token->status();
    RecordRejection(status, WatchdogTripped(slot));
    return status;
  }
  return out;
}

Result<TranslationExplanation> Engine::TranslateExplained(
    std::string_view query, const TranslateOptions& options) {
  TranslationExplanation out;
  out.report.set_tracer(options.tracer);
  PipelineReport* report = &out.report;

  // Pipeline governance: the AST-node cap folds into the stage limits (the
  // exponential stages pre-flight against it), the wall budget arms a token
  // the stages poll, and each stage's output is checked before the next one
  // runs so the error names the offending stage.
  NormalFormLimits stage_limits = options.limits;
  if (options.resources.max_ast_nodes != 0 &&
      (stage_limits.max_output_nodes == 0 ||
       options.resources.max_ast_nodes < stage_limits.max_output_nodes)) {
    stage_limits.max_output_nodes = options.resources.max_ast_nodes;
  }
  CancellationToken local_token;
  CancellationToken* token =
      options.cancel != nullptr ? options.cancel : &local_token;
  bool governed =
      options.cancel != nullptr || options.resources.max_wall_ms != 0;
  std::optional<ScopedCancellation> install;
  if (governed) {
    if (options.resources.max_wall_ms != 0) {
      token->ArmDeadline(Deadline::AfterMs(options.resources.max_wall_ms));
    }
    install.emplace(token);
  }
  // Run after every stage: a tripped token wins (the stage may have handed
  // back a partial rewrite), then the stage's output size is checked.
  auto stage_guard = [&](const char* stage,
                         const PatternPtr& result) -> Status {
    if (governed && token->cancelled()) return token->status();
    if (options.resources.max_ast_nodes != 0) {
      uint64_t nodes = ShapeOfPattern(*result).nodes;
      if (nodes > options.resources.max_ast_nodes) {
        return Status::ResourceExhausted(
            std::string(stage) + " produced " + std::to_string(nodes) +
            " AST nodes (max_ast_nodes=" +
            std::to_string(options.resources.max_ast_nodes) +
            "); raise the limit or rewrite the query");
      }
    }
    return Status::Ok();
  };

  PatternPtr p;
  {
    ScopedStage stage(report, "parse", PatternShape{});
    Result<PatternPtr> parsed = Parse(query);
    if (!parsed.ok()) {
      stage.SetError(parsed.status().ToString());
      return parsed.status();
    }
    p = std::move(*parsed);
    stage.SetOut(ShapeOfPattern(*p));
    stage.SetDetail(DescribeFragment(p));
  }
  out.input = p;
  RDFQL_RETURN_IF_ERROR(stage_guard("parse", p));

  if (options.optimize) {
    ScopedStage stage(report, "optimize", ShapeOfPattern(*p));
    // Structure-only rewrites: no graph is bound at translation time, so
    // the optimizer runs against empty statistics.
    GraphStats stats;
    p = Optimizer(&stats).Optimize(p);
    stage.SetOut(ShapeOfPattern(*p));
    RDFQL_RETURN_IF_ERROR(stage_guard("optimize", p));
  }

  if (options.select_free && p->Uses(PatternKind::kSelect)) {
    p = SelectFreeVersion(p, &dict_, report);
    RDFQL_RETURN_IF_ERROR(stage_guard("select_free", p));
  }

  if (options.wd_to_simple) {
    RDFQL_ASSIGN_OR_RETURN(
        p, WellDesignedToSimple(p, options.max_subtrees, report));
    RDFQL_RETURN_IF_ERROR(stage_guard("wd_to_simple", p));
  }

  if (options.eliminate_ns && p->Uses(PatternKind::kNs)) {
    RDFQL_ASSIGN_OR_RETURN(p, EliminateNs(p, stage_limits, report));
    RDFQL_RETURN_IF_ERROR(stage_guard("ns_elimination", p));
  }

  if (options.desugar_minus && p->Uses(PatternKind::kMinus)) {
    p = DesugarMinus(p, &dict_, report);
    RDFQL_RETURN_IF_ERROR(stage_guard("desugar_minus", p));
  }

  if (options.union_normal_form && !p->Uses(PatternKind::kNs)) {
    RDFQL_ASSIGN_OR_RETURN(std::vector<PatternPtr> disjuncts,
                           UnionNormalForm(p, stage_limits, report));
    p = Pattern::UnionAll(disjuncts);
    RDFQL_RETURN_IF_ERROR(stage_guard("union_normal_form", p));
  }

  out.output = p;
  return out;
}

Result<bool> Engine::Ask(const std::string& graph_name,
                         std::string_view query, EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(Answer answer,
                         QueryAnswer(graph_name, query, std::move(options)));
  return !answer.set().empty();
}

Result<std::string> Engine::QueryCsv(const std::string& graph_name,
                                     std::string_view query,
                                     EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(Answer answer,
                         QueryAnswer(graph_name, query, std::move(options)));
  return WriteCsv(answer.set(), dict_);
}

Result<std::string> Engine::QueryJson(const std::string& graph_name,
                                      std::string_view query,
                                      EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(Answer answer,
                         QueryAnswer(graph_name, query, std::move(options)));
  return WriteResultsJson(answer.set(), dict_);
}

PatternReport Engine::Classify(const PatternPtr& pattern,
                               const MonotonicityOptions& options) {
  PatternReport report;
  report.fragment = DescribeFragment(pattern);
  report.well_designed = IsWellDesigned(pattern);
  report.union_well_designed = IsUnionOfWellDesigned(pattern);
  report.simple_pattern = IsSimplePattern(pattern);
  report.ns_pattern = IsNsPattern(pattern);
  report.syntactically_subsumption_free =
      IsSyntacticallySubsumptionFree(pattern);
  report.looks_weakly_monotone =
      LooksWeaklyMonotone(pattern, &dict_, options);
  report.looks_monotone = LooksMonotone(pattern, &dict_, options);
  report.looks_subsumption_free =
      LooksSubsumptionFree(pattern, &dict_, options);
  return report;
}

}  // namespace rdfql
