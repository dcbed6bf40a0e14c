#include "obs/telemetry.h"

#include "obs/json_util.h"
#include "obs/openmetrics.h"
#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "util/clock.h"

namespace rdfql {
namespace {

uint64_t CounterIn(const std::map<std::string, uint64_t>& counters,
                   const char* name) {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

uint64_t Rejections(const std::map<std::string, uint64_t>& counters) {
  return CounterIn(counters, "engine.queries_rejected") +
         CounterIn(counters, "engine.queries_deadline_exceeded") +
         CounterIn(counters, "engine.queries_cancelled");
}

/// One ring sample as a snapshot window, field for field.
TelemetryWindow WindowFromSample(const HistorySample& s) {
  TelemetryWindow w;
  w.end_unix_ms = s.unix_ms;
  w.seconds = s.seconds;
  w.queries = CounterIn(s.counters, "engine.queries");
  w.rejections = Rejections(s.counters);
  w.watchdog_cancels = CounterIn(s.counters, "engine.queries_watchdog_cancelled");
  if (auto it = s.histograms.find("engine.eval_ns");
      it != s.histograms.end()) {
    w.eval_buckets = it->second;
    for (const auto& [bound, n] : w.eval_buckets) w.eval_count += n;
  }
  return w;
}

using jsonutil::AppendBool;
using jsonutil::AppendBuckets;
using jsonutil::AppendDouble;
using jsonutil::AppendInt;
using jsonutil::AppendString;
using jsonutil::AppendUint;
using SnapshotParser = jsonutil::JsonParser;

bool PhaseFromName(std::string_view name, QueryPhase* out) {
  if (name == "start") *out = QueryPhase::kStarting;
  else if (name == "parse") *out = QueryPhase::kParsing;
  else if (name == "eval") *out = QueryPhase::kEvaluating;
  else if (name == "finish") *out = QueryPhase::kFinishing;
  else return false;
  return true;
}

void AppendInflightQuery(const InflightQueryInfo& q, std::string* out) {
  bool first = true;
  out->push_back('{');
  AppendUint("slot", q.slot, &first, out);
  AppendUint("generation", q.generation, &first, out);
  AppendUint("id", q.correlation_id, &first, out);
  AppendUint("hash", q.query_hash, &first, out);
  AppendString("graph", q.graph, &first, out);
  AppendString("query", q.query, &first, out);
  AppendString("fragment", q.fragment, &first, out);
  AppendString("phase", QueryPhaseName(q.phase), &first, out);
  AppendUint("start_unix_ms", q.start_unix_ms, &first, out);
  AppendUint("wall_ns", q.wall_ns, &first, out);
  AppendUint("live_mappings", q.live_mappings, &first, out);
  AppendUint("live_bytes", q.live_bytes, &first, out);
  AppendUint("peak_bytes", q.peak_bytes, &first, out);
  AppendInt("threads", q.threads, &first, out);
  AppendBool("watchdog_cancelled", q.watchdog_cancelled, &first, out);
  out->push_back('}');
}

bool ParseInflightQuery(SnapshotParser* p, InflightQueryInfo* q,
                        std::string* error) {
  uint64_t slot = 0;
  int64_t threads = 1;
  std::string phase;
  if (!p->Eat('{') || !p->Key("slot") || !p->ParseUint(&slot) ||
      !p->Eat(',') || !p->Key("generation") || !p->ParseUint(&q->generation) ||
      !p->Eat(',') || !p->Key("id") || !p->ParseUint(&q->correlation_id) ||
      !p->Eat(',') || !p->Key("hash") || !p->ParseUint(&q->query_hash) ||
      !p->Eat(',') || !p->Key("graph") || !p->ParseString(&q->graph) ||
      !p->Eat(',') || !p->Key("query") || !p->ParseString(&q->query) ||
      !p->Eat(',') || !p->Key("fragment") || !p->ParseString(&q->fragment) ||
      !p->Eat(',') || !p->Key("phase") || !p->ParseString(&phase) ||
      !p->Eat(',') || !p->Key("start_unix_ms") ||
      !p->ParseUint(&q->start_unix_ms) || !p->Eat(',') || !p->Key("wall_ns") ||
      !p->ParseUint(&q->wall_ns) || !p->Eat(',') || !p->Key("live_mappings") ||
      !p->ParseUint(&q->live_mappings) || !p->Eat(',') ||
      !p->Key("live_bytes") || !p->ParseUint(&q->live_bytes) || !p->Eat(',') ||
      !p->Key("peak_bytes") || !p->ParseUint(&q->peak_bytes) || !p->Eat(',') ||
      !p->Key("threads") || !p->ParseInt(&threads) || !p->Eat(',') ||
      !p->Key("watchdog_cancelled") || !p->ParseBool(&q->watchdog_cancelled) ||
      !p->Eat('}')) {
    return p->Fail(error, "malformed inflight query");
  }
  q->slot = static_cast<size_t>(slot);
  q->threads = static_cast<int>(threads);
  if (!PhaseFromName(phase, &q->phase)) {
    return p->Fail(error, "unknown phase '" + phase + "'");
  }
  return true;
}

bool ParseWindow(SnapshotParser* p, TelemetryWindow* w, std::string* error) {
  if (!p->Eat('{') || !p->Key("end_unix_ms") || !p->ParseUint(&w->end_unix_ms) ||
      !p->Eat(',') || !p->Key("seconds") || !p->ParseDouble(&w->seconds) ||
      !p->Eat(',') || !p->Key("queries") || !p->ParseUint(&w->queries) ||
      !p->Eat(',') || !p->Key("rejections") || !p->ParseUint(&w->rejections) ||
      !p->Eat(',') || !p->Key("watchdog_cancels") ||
      !p->ParseUint(&w->watchdog_cancels) || !p->Eat(',') ||
      !p->Key("eval_count") || !p->ParseUint(&w->eval_count) || !p->Eat(',') ||
      !p->Key("eval_buckets") || !p->ParseBuckets(&w->eval_buckets) ||
      !p->Eat('}')) {
    return p->Fail(error, "malformed telemetry window");
  }
  return true;
}

}  // namespace

bool WatchdogPolicy::Enabled() const {
  if (defaults.Enforced()) return true;
  for (const auto& [fragment, limits] : per_fragment) {
    if (limits.Enforced()) return true;
  }
  return false;
}

const WatchdogLimits& WatchdogPolicy::For(const std::string& fragment) const {
  auto it = per_fragment.find(fragment);
  return it != per_fragment.end() ? it->second : defaults;
}

std::string TelemetrySnapshot::ToJson() const {
  std::string out;
  out.reserve(1024);
  bool first = true;
  out.push_back('{');
  AppendUint("unix_ms", unix_ms, &first, &out);
  AppendUint("interval_ms", interval_ms, &first, &out);
  AppendUint("ticks", ticks, &first, &out);
  AppendUint("queries_total", queries_total, &first, &out);
  AppendUint("rejected_total", rejected_total, &first, &out);
  AppendUint("watchdog_cancelled_total", watchdog_cancelled_total, &first,
             &out);
  AppendInt("queries_active", queries_active, &first, &out);
  AppendDouble("qps", qps, &first, &out);
  AppendDouble("rejections_per_s", rejections_per_s, &first, &out);
  AppendDouble("eval_p50_ns", eval_p50_ns, &first, &out);
  AppendDouble("eval_p99_ns", eval_p99_ns, &first, &out);
  out += ",\"windows\":[";
  bool wfirst = true;
  for (const TelemetryWindow& w : windows) {
    if (!wfirst) out.push_back(',');
    wfirst = false;
    bool f = true;
    out.push_back('{');
    AppendUint("end_unix_ms", w.end_unix_ms, &f, &out);
    AppendDouble("seconds", w.seconds, &f, &out);
    AppendUint("queries", w.queries, &f, &out);
    AppendUint("rejections", w.rejections, &f, &out);
    AppendUint("watchdog_cancels", w.watchdog_cancels, &f, &out);
    AppendUint("eval_count", w.eval_count, &f, &out);
    AppendBuckets("eval_buckets", w.eval_buckets, &f, &out);
    out.push_back('}');
  }
  out += "],\"inflight\":{";
  bool ifirst = true;
  AppendUint("unix_ms", inflight.unix_ms, &ifirst, &out);
  AppendUint("registered_total", inflight.registered_total, &ifirst, &out);
  AppendUint("watchdog_cancelled_total", inflight.watchdog_cancelled_total,
             &ifirst, &out);
  out += ",\"queries\":[";
  bool qfirst = true;
  for (const InflightQueryInfo& q : inflight.queries) {
    if (!qfirst) out.push_back(',');
    qfirst = false;
    AppendInflightQuery(q, &out);
  }
  out += "]}";
  if (!hot_tags.empty()) {
    out += ",\"hot_tags\":[";
    bool hfirst = true;
    for (const auto& [tag, self] : hot_tags) {
      if (!hfirst) out.push_back(',');
      hfirst = false;
      bool f = true;
      out.push_back('{');
      AppendString("tag", tag, &f, &out);
      AppendUint("self", self, &f, &out);
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (has_alerts) {
    out += ",\"alerts\":";
    out += alerts.ToJson();
  }
  if (!build_sha.empty() || !build_type.empty()) {
    out += ",\"build\":{";
    bool bfirst = true;
    AppendString("sha", build_sha, &bfirst, &out);
    AppendString("build", build_type, &bfirst, &out);
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

bool ParseTelemetrySnapshot(std::string_view json, TelemetrySnapshot* out,
                            std::string* error) {
  *out = TelemetrySnapshot();
  SnapshotParser p(json);
  if (!p.Eat('{') || !p.Key("unix_ms") || !p.ParseUint(&out->unix_ms) ||
      !p.Eat(',') || !p.Key("interval_ms") ||
      !p.ParseUint(&out->interval_ms) || !p.Eat(',') || !p.Key("ticks") ||
      !p.ParseUint(&out->ticks) || !p.Eat(',') || !p.Key("queries_total") ||
      !p.ParseUint(&out->queries_total) || !p.Eat(',') ||
      !p.Key("rejected_total") || !p.ParseUint(&out->rejected_total) ||
      !p.Eat(',') || !p.Key("watchdog_cancelled_total") ||
      !p.ParseUint(&out->watchdog_cancelled_total) || !p.Eat(',') ||
      !p.Key("queries_active") || !p.ParseInt(&out->queries_active) ||
      !p.Eat(',') || !p.Key("qps") || !p.ParseDouble(&out->qps) ||
      !p.Eat(',') || !p.Key("rejections_per_s") ||
      !p.ParseDouble(&out->rejections_per_s) || !p.Eat(',') ||
      !p.Key("eval_p50_ns") || !p.ParseDouble(&out->eval_p50_ns) ||
      !p.Eat(',') || !p.Key("eval_p99_ns") ||
      !p.ParseDouble(&out->eval_p99_ns)) {
    return p.Fail(error, "malformed telemetry header");
  }
  if (!p.Eat(',') || !p.Key("windows") || !p.Eat('[')) {
    return p.Fail(error, "missing windows array");
  }
  if (!p.Peek(']')) {
    do {
      TelemetryWindow w;
      if (!ParseWindow(&p, &w, error)) return false;
      out->windows.push_back(std::move(w));
    } while (p.Eat(','));
  }
  if (!p.Eat(']')) return p.Fail(error, "unterminated windows array");
  if (!p.Eat(',') || !p.Key("inflight") || !p.Eat('{') || !p.Key("unix_ms") ||
      !p.ParseUint(&out->inflight.unix_ms) || !p.Eat(',') ||
      !p.Key("registered_total") ||
      !p.ParseUint(&out->inflight.registered_total) || !p.Eat(',') ||
      !p.Key("watchdog_cancelled_total") ||
      !p.ParseUint(&out->inflight.watchdog_cancelled_total) || !p.Eat(',') ||
      !p.Key("queries") || !p.Eat('[')) {
    return p.Fail(error, "malformed inflight section");
  }
  if (!p.Peek(']')) {
    do {
      InflightQueryInfo q;
      if (!ParseInflightQuery(&p, &q, error)) return false;
      out->inflight.queries.push_back(std::move(q));
    } while (p.Eat(','));
  }
  if (!p.Eat(']') || !p.Eat('}')) {
    return p.Fail(error, "unterminated inflight section");
  }
  // Optional trailing sections, each emitted only when its producer was
  // attached: hot_tags (profiler), alerts (alert engine), build
  // (provenance). Absent forms parse too.
  bool more = p.Eat(',');
  while (more) {
    if (p.Key("hot_tags")) {
      if (!p.Eat('[')) return p.Fail(error, "malformed hot_tags");
      if (!p.Peek(']')) {
        do {
          std::string tag;
          uint64_t self = 0;
          if (!p.Eat('{') || !p.Key("tag") || !p.ParseString(&tag) ||
              !p.Eat(',') || !p.Key("self") || !p.ParseUint(&self) ||
              !p.Eat('}')) {
            return p.Fail(error, "malformed hot_tags entry");
          }
          out->hot_tags.emplace_back(std::move(tag), self);
        } while (p.Eat(','));
      }
      if (!p.Eat(']')) return p.Fail(error, "unterminated hot_tags array");
    } else if (p.Key("alerts")) {
      out->has_alerts = true;
      if (!p.Eat('{') || !p.Key("unix_ms") ||
          !p.ParseUint(&out->alerts.unix_ms) || !p.Eat(',') ||
          !p.Key("pending_total") ||
          !p.ParseUint(&out->alerts.pending_total) || !p.Eat(',') ||
          !p.Key("firing_total") || !p.ParseUint(&out->alerts.firing_total) ||
          !p.Eat(',') || !p.Key("resolved_total") ||
          !p.ParseUint(&out->alerts.resolved_total) || !p.Eat(',') ||
          !p.Key("rules") || !p.Eat('[')) {
        return p.Fail(error, "malformed alerts section");
      }
      if (!p.Peek(']')) {
        do {
          AlertRuleStatus r;
          if (!p.Eat('{') || !p.Key("name") || !p.ParseString(&r.name) ||
              !p.Eat(',') || !p.Key("severity") ||
              !p.ParseString(&r.severity) || !p.Eat(',') || !p.Key("state") ||
              !p.ParseString(&r.state) || !p.Eat(',') || !p.Key("fragment") ||
              !p.ParseString(&r.fragment) || !p.Eat(',') || !p.Key("value") ||
              !p.ParseDouble(&r.value) || !p.Eat(',') ||
              !p.Key("threshold") || !p.ParseDouble(&r.threshold) ||
              !p.Eat(',') || !p.Key("since_unix_ms") ||
              !p.ParseUint(&r.since_unix_ms) || !p.Eat(',') ||
              !p.Key("fires") || !p.ParseUint(&r.fires) || !p.Eat('}')) {
            return p.Fail(error, "malformed alert rule status");
          }
          out->alerts.rules.push_back(std::move(r));
        } while (p.Eat(','));
      }
      if (!p.Eat(']') || !p.Eat('}')) {
        return p.Fail(error, "unterminated alerts section");
      }
    } else if (p.Key("build")) {
      if (!p.Eat('{') || !p.Key("sha") || !p.ParseString(&out->build_sha) ||
          !p.Eat(',') || !p.Key("build") ||
          !p.ParseString(&out->build_type) || !p.Eat('}')) {
        return p.Fail(error, "malformed build section");
      }
    } else {
      return p.Fail(error, "unknown trailing section");
    }
    more = p.Eat(',');
  }
  if (!p.Eat('}') || !p.AtEnd()) {
    return p.Fail(error, "trailing content");
  }
  return true;
}

HistoryOptions TelemetryHistoryOptions(uint64_t interval_ms) {
  HistoryOptions options;
  options.fine_retention_ms =
      2 * kTelemetryWindows * (interval_ms != 0 ? interval_ms : 1000);
  options.coarse_bucket_ms = 0;
  options.coarse_retention_ms = 0;
  return options;
}

TelemetrySampler::TelemetrySampler(MetricsRegistry* metrics,
                                   InflightRegistry* inflight,
                                   MetricsHistory* history,
                                   AlertEngine* alerts,
                                   TelemetryOptions options)
    : metrics_(metrics),
      inflight_(inflight),
      history_(history),
      alerts_(alerts),
      options_(std::move(options)) {
  // Record at start: the first tick's window is then this run's first
  // interval, and work done before that tick shows up in it (where alert
  // rules can see it) instead of vanishing into the ring's baseline.
  history_->Record(
      metrics_ != nullptr ? metrics_->Snapshot() : RegistrySnapshot(),
      UnixNowMs());
  if (options_.interval_ms > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // One final tick so the snapshot (and its file) reflects the end state.
  TickNow();
  // And a final history flush, so short-lived runs persist their ring even
  // if they never reached the periodic persist threshold.
  history_->WriteFile();
}

WatchdogPolicy TelemetrySampler::EffectiveWatchdog() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  WatchdogPolicy effective = options_.watchdog;
  for (const auto& [fragment, limits] : escalations_) {
    effective.per_fragment[fragment] = limits;
  }
  return effective;
}

void TelemetrySampler::TickNow() { Tick(); }

uint64_t TelemetrySampler::ticks() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return ticks_;
}

TelemetrySnapshot TelemetrySampler::Snapshot() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return latest_;
}

void TelemetrySampler::Loop() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  while (true) {
    loop_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                      [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void TelemetrySampler::Tick() {
  // Watchdog sweep first, so a cancellation issued this tick is visible in
  // the snapshot taken just below (the slot's flag and wall time persist
  // until the query observes the token and unregisters). The policy is the
  // configured one plus any per-fragment escalations from firing alert
  // rules (computed at the end of the previous tick).
  WatchdogPolicy sweep_policy = EffectiveWatchdog();
  if (inflight_ != nullptr && sweep_policy.Enabled()) {
    InflightSnapshot sweep = inflight_->Snapshot();
    for (const InflightQueryInfo& q : sweep.queries) {
      if (q.watchdog_cancelled) continue;
      const WatchdogLimits& limits = sweep_policy.For(q.fragment);
      uint64_t wall_ms = q.wall_ns / 1'000'000ull;
      char reason[160];
      if (limits.max_wall_ms != 0 && wall_ms > limits.max_wall_ms) {
        std::snprintf(reason, sizeof(reason),
                      "watchdog: query exceeded max_wall_ms=%" PRIu64
                      " (ran %" PRIu64 " ms)",
                      limits.max_wall_ms, wall_ms);
        inflight_->WatchdogCancel(q.slot, q.generation,
                                  Status::Cancelled(reason));
      } else if (limits.max_live_bytes != 0 &&
                 q.live_bytes > limits.max_live_bytes) {
        std::snprintf(reason, sizeof(reason),
                      "watchdog: query exceeded max_live_bytes=%" PRIu64
                      " (~%" PRIu64 " bytes live)",
                      limits.max_live_bytes, q.live_bytes);
        inflight_->WatchdogCancel(q.slot, q.generation,
                                  Status::Cancelled(reason));
      }
    }
  }

  RegistrySnapshot m = metrics_ != nullptr ? metrics_->Snapshot()
                                           : RegistrySnapshot();
  InflightSnapshot inf =
      inflight_ != nullptr ? inflight_->Snapshot() : InflightSnapshot();
  uint64_t now_unix_ms = inf.unix_ms != 0 ? inf.unix_ms : UnixNowMs();

  // The ring records this tick's delta, the alert rules are evaluated
  // against the updated ring, and any watchdog escalations from firing
  // rules take effect at the next sweep.
  history_->Record(m, now_unix_ms);
  if (alerts_ != nullptr) {
    alerts_->Evaluate(*history_, now_unix_ms);
    std::vector<std::pair<std::string, uint64_t>> escalations =
        alerts_->WatchdogEscalations();
    std::lock_guard<std::mutex> lock(state_mu_);
    escalations_.clear();
    for (const auto& [fragment, wall_ms] : escalations) {
      WatchdogLimits limits = options_.watchdog.For(fragment);
      if (limits.max_wall_ms == 0 || wall_ms < limits.max_wall_ms) {
        limits.max_wall_ms = wall_ms;
      }
      escalations_[fragment] = limits;
    }
  }

  TelemetrySnapshot snap;
  snap.unix_ms = now_unix_ms;
  snap.interval_ms = options_.interval_ms;
  snap.queries_total = CounterIn(m.counters, "engine.queries");
  snap.rejected_total = Rejections(m.counters);
  snap.watchdog_cancelled_total = inf.watchdog_cancelled_total;
  snap.queries_active = static_cast<int64_t>(inf.queries.size());
  snap.inflight = std::move(inf);
  if (Profiler* prof = Profiler::Active()) {
    for (ProfileTagTotal& t : prof->TopTags(8)) {
      snap.hot_tags.emplace_back(std::move(t.tag), t.self);
    }
  }
  if (alerts_ != nullptr) {
    snap.has_alerts = true;
    snap.alerts = alerts_->Snapshot();
  }
  BuildInfo build = CurrentBuildInfo();
  snap.build_sha = build.sha;
  snap.build_type = build.build;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    snap.ticks = ++ticks_;
    // The windows are this run's newest ticks as the ring recorded them;
    // the published rates aggregate them.
    history_->VisitRecent(std::min<uint64_t>(ticks_, kTelemetryWindows),
                          [&snap](const HistorySample& s) {
                            snap.windows.push_back(WindowFromSample(s));
                          });
    double seconds = 0;
    uint64_t window_queries = 0, window_rejections = 0, window_evals = 0;
    std::map<uint64_t, uint64_t> merged;
    for (const TelemetryWindow& w : snap.windows) {
      seconds += w.seconds;
      window_queries += w.queries;
      window_rejections += w.rejections;
      window_evals += w.eval_count;
      for (const auto& [bound, n] : w.eval_buckets) merged[bound] += n;
    }
    if (seconds > 0) {
      snap.qps = static_cast<double>(window_queries) / seconds;
      snap.rejections_per_s = static_cast<double>(window_rejections) / seconds;
    }
    std::vector<std::pair<uint64_t, uint64_t>> merged_vec(merged.begin(),
                                                          merged.end());
    snap.eval_p50_ns = HistogramPercentile(merged_vec, window_evals, 0.50);
    snap.eval_p99_ns = HistogramPercentile(merged_vec, window_evals, 0.99);
    latest_ = snap;
  }
  // Atomic hand-off: readers (rdfql_top) always see a complete snapshot.
  if (!options_.snapshot_path.empty()) {
    WriteFileAtomic(options_.snapshot_path, snap.ToJson() + "\n");
  }
}

}  // namespace rdfql
