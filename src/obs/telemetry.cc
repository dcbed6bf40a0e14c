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
  return jsonutil::ToJson(*this);
}

bool ParseTelemetrySnapshot(std::string_view json, TelemetrySnapshot* out,
                            std::string* error) {
  return jsonutil::FromJson(json, out, error);
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
      snap.hot_tags.push_back({std::move(t.tag), t.self});
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
