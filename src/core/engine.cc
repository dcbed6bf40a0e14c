#include "core/engine.h"

#include <chrono>
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
#include "util/clock.h"
#include "util/profile_state.h"
#include "util/string_util.h"

namespace rdfql {
namespace {

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
    append("bytes=" + FormatBytes(limits.max_bytes));
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

Status NoGraph(const std::string& name) {
  return Status::NotFound("no graph named '" + name + "'");
}

}  // namespace

Engine::~Engine() {
  StopTelemetry();
  DisableProfiling();
}

std::string QueryExplanation::ToString() const {
  std::string out = "parse: " + FormatNs(parse_ns) +
                    "  eval: " + FormatNs(eval_ns) + "  mem: peak " +
                    std::to_string(peak_mappings) + " mappings / " +
                    FormatBytes(peak_bytes) + "\n";
  out += "limits: " + LimitsString(limits) + "\n";
  if (!cache_note.empty()) out += "cache: " + cache_note + "\n";
  if (hist_queries > 0) {
    out += "time: eval p50=" +
           FormatNs(static_cast<uint64_t>(eval_p50_ns)) +
           " p90=" + FormatNs(static_cast<uint64_t>(eval_p90_ns)) +
           " p99=" + FormatNs(static_cast<uint64_t>(eval_p99_ns)) +
           " (n=" + std::to_string(hist_queries) + ")\n";
  }
  out += explanation.ToString();
  return out;
}

Status Engine::LoadGraphText(const std::string& name,
                             std::string_view ntriples) {
  std::lock_guard<std::mutex> write(writer_mu_);
  std::shared_ptr<Graph> pinned;  // the current version, when a query pins it
  Status st;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    std::shared_ptr<Graph>& slot = graphs_[name];
    if (slot == nullptr) slot = std::make_shared<Graph>();
    if (slot.use_count() == 1) {
      // Unpinned: every pin released so far was released under this lock,
      // and a query starting now waits for it, so the write goes in place.
      st = ParseNTriples(ntriples, &dict_, slot.get());
    } else {
      pinned = slot;
    }
  }
  if (pinned != nullptr) {
    // Running queries keep their version; the write goes to a copy.
    auto next = std::make_shared<Graph>(*pinned);
    st = ParseNTriples(ntriples, &dict_, next.get());
    Publish(name, std::move(next));
  }
  UpdateGraphGauges();
  return st;
}

void Engine::PutGraph(const std::string& name, Graph graph) {
  auto next = std::make_shared<Graph>(std::move(graph));
  std::lock_guard<std::mutex> write(writer_mu_);
  Publish(name, std::move(next));
  UpdateGraphGauges();
}

void Engine::Publish(const std::string& name, std::shared_ptr<Graph> next) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::shared_ptr<Graph>& slot = graphs_[name];
  if (slot != nullptr) {
    slot->index_lock_wait_stats().AddTo(&retired_index_waits_);
  }
  // `next` leaves with the retired version: freed on return unless a query
  // pins it, in which case its last pin frees it.
  slot.swap(next);
}

void Engine::UpdateGraphGauges() {
  // Only writers change the catalog, and they hold writer_mu_.
  size_t bytes = 0;
  size_t triples = 0;
  for (const auto& [name, g] : graphs_) {
    bytes += g->ApproxBytes();
    triples += g->size();
  }
  metrics_.GetGauge("engine.graph_bytes")->Set(static_cast<int64_t>(bytes));
  metrics_.GetGauge("engine.graph_triples")
      ->Set(static_cast<int64_t>(triples));
}

Result<const Graph*> Engine::GetGraph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) return NoGraph(name);
  return it->second.get();
}

Engine::GraphPin::GraphPin(const Engine& engine, const std::string& name)
    : mu_(engine.catalog_mu_) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = engine.graphs_.find(name);
  if (it != engine.graphs_.end()) graph_ = it->second;
}

Engine::GraphPin::~GraphPin() {
  std::lock_guard<std::mutex> lock(mu_);
  graph_.reset();
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

Result<MappingSet> Engine::Query(const std::string& graph_name,
                                 std::string_view query,
                                 EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, query, nullptr, std::move(options), nullptr));
  return std::move(answer).Take();
}

Result<QueryExplanation> Engine::QueryExplained(const std::string& graph_name,
                                                std::string_view query,
                                                EvalOptions options) {
  QueryExplanation out;
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, query, nullptr, std::move(options), &out));
  out.explanation.result = std::move(answer).Take();
  return out;
}

Result<MappingSet> Engine::Eval(const std::string& graph_name,
                                const PatternPtr& pattern,
                                EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, std::string_view(), &pattern, std::move(options),
          nullptr));
  return std::move(answer).Take();
}

Result<Engine::Answer> Engine::Run(const std::string& graph_name,
                                   std::string_view query,
                                   const PatternPtr* pattern_in,
                                   EvalOptions options,
                                   QueryExplanation* explain) {
  const bool text = pattern_in == nullptr;
  ProfileFrame profile_frame(explain != nullptr ? "Engine::QueryExplained"
                             : text             ? "Engine::Query"
                                                : nullptr);
  // The version of the graph this query reads throughout: the cache epoch,
  // the evaluation and a slow-query EXPLAIN capture all see it.
  GraphPin pin(*this, graph_name);
  const Graph* graph = pin.get();
  // Eval has no parse step to fail first: an unknown graph fails it before
  // it registers.
  if (!text && graph == nullptr) return NoGraph(graph_name);
  options = WithEngineDefaults(std::move(options));
  QueryLog* log = text ? options.query_log : nullptr;
  const MetricHandles* metrics = collect_metrics_ ? &handles_ : nullptr;
  // Whether some sink reads the record's timings and memory figures: only
  // then do clocks run and (slots aside) is memory accounted.
  const bool recording =
      metrics != nullptr || log != nullptr || explain != nullptr;
  CacheContext cc = text ? ResolveCache(query, options) : CacheContext();

  // Identity. The registry slot and the log key on the stable hash — the
  // cache's when it computed one (hashing the canonical text is
  // idempotent). Eval registers its pattern printed back to text.
  QueryLogRecord rec;
  std::string printed;
  std::string_view label = query;
  if (!text && live_monitoring_) {
    printed = PatternToString(*pattern_in, dict_);
    label = printed;
  }
  if (live_monitoring_ || log != nullptr) {
    rec.query_hash = cc.keyed() ? cc.hash : StableQueryHash(label);
  }
  if (log != nullptr) {
    rec.correlation_id = log->NextCorrelationId();
    rec.graph = graph_name;
    rec.query = query;
    rec.unix_ms = UnixNowMs();
  }
  InflightScope monitor(live_monitoring_ ? &inflight_ : nullptr, graph_name,
                        label, rec.query_hash);
  InflightSlot* slot = monitor.slot();
  if (slot != nullptr) {
    slot->SetCorrelationId(rec.correlation_id);
    slot->SetPhase(QueryPhase::kParsing);
  }
  // The fragment is classified only for a consumer: the log, the slot, or
  // a fragment-scoped alert rule.
  const bool want_fragment =
      log != nullptr || slot != nullptr ||
      (metrics != nullptr && !fragment_eval_ns_.empty());
  if (text && metrics != nullptr) metrics->queries->Inc();

  PatternPtr pattern;
  // Every exit from here on hands the record to the query log, once.
  auto publish = [&](const Status& status) {
    if (log == nullptr) return status;
    if (!status.ok()) {
      rec.outcome = OutcomeForFailure(status, slot);
      rec.error = status.message();
    }
    rec.cache = cc.LogOutcome();
    rec.slow = CrossedSlowThreshold(rec, *log);
    if (rec.slow && log->options().explain_slow) {
      if (explain != nullptr) {
        rec.explain = explain->explanation.ToString();  // already in hand
      } else if (status.ok() && pattern != nullptr) {
        // One bounded re-run under a tracer, governance and accounting
        // cleared so the capture itself cannot be rejected or skew the
        // figures.
        EvalOptions capture = options;
        capture.limits = ResourceLimits{};
        capture.deadline = Deadline{};
        capture.cancel = nullptr;
        capture.accountant = nullptr;
        capture.metrics = nullptr;
        rec.explain = ExplainEval(*graph, pattern, dict_, capture).ToString();
      }
    }
    log->Record(std::move(rec));
    return status;
  };

  // Result-cache probe. The epoch is the pinned version's, so it names
  // exactly the triple set the evaluation sees, whatever writers do
  // meanwhile. EXPLAIN always evaluates (a served answer has no plan to
  // instrument), so it only reads the epoch, for the store.
  if (cc.result_on && graph != nullptr) {
    cc.graph_epoch = graph->Epoch();
    cc.epoch_known = true;
    if (explain == nullptr) {
      uint64_t t0 = recording ? SteadyNowNs() : 0;
      if (std::shared_ptr<const MappingSet> hit = cc.cache->GetResult(
              cc.ResultKey(graph_name, options), cc.canonical)) {
        cc.result_hit = true;
        // The lookup *is* this query's evaluation: the latency histogram
        // and the log see what the caller experienced.
        rec.eval_ns = recording ? SteadyNowNs() - t0 : 0;
        rec.rows_out = hit->size();
        // The fragment rides on the plan entry; peek so the lookup stays
        // out of the plan cache's hit/miss accounting.
        if (want_fragment) {
          if (CachedPlanPtr plan = cc.cache->PeekPlan(cc.hash, cc.canonical)) {
            rec.fragment = plan->fragment;
          }
        }
        if (metrics != nullptr) {
          metrics->eval_ns->Observe(rec.eval_ns);
          ObserveFragmentLatency(rec.fragment, rec.eval_ns);
        }
        publish(Status::Ok());
        return Answer{std::move(hit), MappingSet()};
      }
    }
  }

  if (text) {
    uint64_t t0 = recording ? SteadyNowNs() : 0;
    Result<PatternPtr> parsed = [&] {
      ProfileFrame parse_frame("Parse");
      return ParseCached(&cc, query, want_fragment ? &rec.fragment : nullptr);
    }();
    rec.parse_ns = recording ? SteadyNowNs() - t0 : 0;
    // Whenever the parse step ran, plan-cache hits and failures included —
    // the same parse_ns the record carries.
    if (metrics != nullptr) metrics->parse_ns->Observe(rec.parse_ns);
    if (!parsed.ok()) return publish(parsed.status());
    pattern = std::move(parsed).value();
  } else {
    pattern = *pattern_in;
    if (want_fragment) rec.fragment = DescribeFragment(pattern);
  }
  if (slot != nullptr) slot->SetFragment(rec.fragment);
  if (graph == nullptr) return publish(NoGraph(graph_name));

  rec.threads = options.threads < 1 ? 1 : options.threads;
  if (slot != nullptr) slot->SetThreads(rec.threads);
  if (metrics != nullptr && options.metrics == nullptr) {
    options.metrics = &metrics_;
  }
  // A caller's accountant wins, except under EXPLAIN, which reports its
  // own figures. Otherwise the slot's accountant is used when there is a
  // slot, so snapshots see the live figures; and the slot's token is wired
  // in, which is how the watchdog cancels the query mid-flight.
  if (explain != nullptr) options.accountant = nullptr;
  std::optional<ResourceAccountant> local_acct;
  if (options.accountant == nullptr && (recording || slot != nullptr)) {
    options.accountant =
        slot != nullptr ? slot->accountant() : &local_acct.emplace();
  }
  if (slot != nullptr && options.cancel == nullptr) {
    options.cancel = slot->token();
  }
  std::optional<Tracer> tracer;
  if (explain != nullptr) {
    tracer.emplace();
    options.tracer = &*tracer;
    options.trace_dict = &dict_;
  }

  if (slot != nullptr) slot->SetPhase(QueryPhase::kEvaluating);
  uint64_t t0 = recording ? SteadyNowNs() : 0;
  Result<MappingSet> result = [&] {
    ProfileFrame eval_frame("Eval");
    return Evaluator(graph, options).EvalChecked(pattern);
  }();
  rec.eval_ns = recording ? SteadyNowNs() - t0 : 0;
  if (slot != nullptr) slot->SetPhase(QueryPhase::kFinishing);

  if (const ResourceAccountant* acct = options.accountant) {
    rec.peak_mappings = acct->peak_mappings();
    rec.peak_bytes = acct->peak_bytes();
    rec.total_mappings = acct->total_mappings();
  }
  if (result.ok()) {
    rec.rows_out = result->size();
  } else {
    RecordRejection(result.status(), WatchdogTripped(slot));
  }
  // One measured value into every sink: the engine histogram and the log
  // record see the same eval_ns, so rdfql_stats over the log reproduces
  // MetricsSnapshot's percentiles exactly.
  if (metrics != nullptr) {
    metrics->eval_ns->Observe(rec.eval_ns);
    ObserveFragmentLatency(rec.fragment, rec.eval_ns);
    metrics->peak_mappings->Set(static_cast<int64_t>(rec.peak_mappings));
    metrics->peak_bytes->Set(static_cast<int64_t>(rec.peak_bytes));
    metrics->total_mappings->Inc(rec.total_mappings);
    metrics->peak_mappings_per_query->Observe(rec.peak_mappings);
    metrics->peak_bytes_per_query->Observe(rec.peak_bytes);
  }
  if (explain != nullptr) {
    explain->parse_ns = rec.parse_ns;
    explain->eval_ns = rec.eval_ns;
    explain->peak_mappings = rec.peak_mappings;
    explain->peak_bytes = rec.peak_bytes;
    explain->total_mappings = rec.total_mappings;
    explain->limits = options.limits;
    explain->correlation_id = rec.correlation_id;
    if (cc.cache != nullptr) explain->cache_note = cc.ExplainNote();
    if (tracer->root() != nullptr) {
      explain->explanation.plan = PlanFromSpan(*tracer->root());
      if (rec.correlation_id != 0) {
        explain->explanation.plan->counters.emplace_back("correlation_id",
                                                         rec.correlation_id);
      }
    }
    if (metrics != nullptr) {
      explain->hist_queries = metrics->eval_ns->Count();
      explain->eval_p50_ns = metrics->eval_ns->Percentile(0.5);
      explain->eval_p90_ns = metrics->eval_ns->Percentile(0.9);
      explain->eval_p99_ns = metrics->eval_ns->Percentile(0.99);
    }
  }
  if (!result.ok()) return publish(result.status());

  // A stored answer moves into a shared_ptr the cache keeps as is: no copy.
  Answer answer;
  if (cc.StoresResult()) {
    answer.shared =
        std::make_shared<const MappingSet>(std::move(result).value());
    cc.cache->PutResult(cc.ResultKey(graph_name, options), cc.canonical,
                        answer.shared);
  } else {
    answer.owned = std::move(result).value();
  }
  publish(Status::Ok());
  return answer;
}

void Engine::SetDefaultThreads(int threads) {
  default_threads_ = threads < 1 ? 1 : threads;
  // Resize (or drop) the shared pool; queries in flight are the caller's
  // responsibility — unlike graph writes, settings are not synchronized
  // against running queries.
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

void Engine::EnableMetrics(bool on) {
  collect_metrics_ = on;
  if (!on || handles_.queries != nullptr) return;
  handles_.queries = metrics_.GetCounter("engine.queries");
  handles_.parse_ns = metrics_.GetHistogram("engine.parse_ns");
  handles_.eval_ns = metrics_.GetHistogram("engine.eval_ns");
  handles_.peak_mappings = metrics_.GetGauge("engine.peak_mappings");
  handles_.peak_bytes = metrics_.GetGauge("engine.peak_bytes");
  handles_.total_mappings = metrics_.GetCounter("engine.total_mappings");
  handles_.peak_mappings_per_query =
      metrics_.GetHistogram("engine.peak_mappings_per_query");
  handles_.peak_bytes_per_query =
      metrics_.GetHistogram("engine.peak_bytes_per_query");
}

void Engine::RecordRejection(const Status& status, bool watchdog_cancelled) {
  std::call_once(rejections_once_, [this] {
    rejections_.rejected = metrics_.GetCounter("engine.queries_rejected");
    rejections_.deadline_exceeded =
        metrics_.GetCounter("engine.queries_deadline_exceeded");
    rejections_.cancelled = metrics_.GetCounter("engine.queries_cancelled");
    rejections_.watchdog_cancelled =
        metrics_.GetCounter("engine.queries_watchdog_cancelled");
  });
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      rejections_.rejected->Inc();
      break;
    case StatusCode::kDeadlineExceeded:
      rejections_.deadline_exceeded->Inc();
      break;
    case StatusCode::kCancelled:
      rejections_.cancelled->Inc();
      if (watchdog_cancelled) rejections_.watchdog_cancelled->Inc();
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
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    graph_totals = retired_index_waits_;
    for (const auto& [name, graph] : graphs_) {
      graph->index_lock_wait_stats().AddTo(&graph_totals);
    }
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
  // Every tick records into a history ring and reads its windows back: the
  // alert rules' ring when rules are installed (the tick evaluates them
  // too), otherwise one that lives as long as this sampler.
  if (history_ == nullptr) {
    history_ = std::make_unique<MetricsHistory>(
        TelemetryHistoryOptions(options.interval_ms));
  }
  telemetry_ = std::make_unique<TelemetrySampler>(
      &metrics_, &inflight_, history_.get(), alerts_.get(), options);
  return Status::Ok();
}

void Engine::StopTelemetry() {
  telemetry_.reset();
  if (alerts_ == nullptr) history_.reset();
}

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
  fragment_eval_ns_.clear();
  for (const std::string& fragment : alerts_->fragments()) {
    fragment_eval_ns_[fragment] =
        metrics_.GetHistogram(FragmentMetricName("engine.eval_ns", fragment));
  }
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
  fragment_eval_ns_.clear();
  return Status::Ok();
}

void Engine::ObserveFragmentLatency(const std::string& fragment,
                                    uint64_t eval_ns) {
  auto it = fragment_eval_ns_.find(fragment);
  if (it != fragment_eval_ns_.end()) it->second->Observe(eval_ns);
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
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, query, nullptr, std::move(options), nullptr));
  return !answer.set().empty();
}

Result<std::string> Engine::QueryCsv(const std::string& graph_name,
                                     std::string_view query,
                                     EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, query, nullptr, std::move(options), nullptr));
  return WriteCsv(answer.set(), dict_);
}

Result<std::string> Engine::QueryJson(const std::string& graph_name,
                                      std::string_view query,
                                      EvalOptions options) {
  RDFQL_ASSIGN_OR_RETURN(
      Answer answer,
      Run(graph_name, query, nullptr, std::move(options), nullptr));
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
