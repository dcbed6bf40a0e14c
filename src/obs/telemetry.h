#ifndef RDFQL_OBS_TELEMETRY_H_
#define RDFQL_OBS_TELEMETRY_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/alerts.h"
#include "obs/history.h"
#include "obs/inflight.h"
#include "obs/metrics.h"

namespace rdfql {

/// One fragment's (or the default) watchdog budget. 0 means unlimited,
/// matching the ResourceLimits convention.
struct WatchdogLimits {
  uint64_t max_wall_ms = 0;
  uint64_t max_live_bytes = 0;

  bool Enforced() const { return (max_wall_ms | max_live_bytes) != 0; }
};

/// The slow-query watchdog policy: default budgets plus optional overrides
/// keyed by the query's fragment string (DescribeFragment(), e.g.
/// "NS-SPARQL") — the paper's fragments are exactly the risk classes (an
/// NS or OPT-heavy query can blow up where a SPARQL[AUF] one cannot), so
/// per-fragment budgets put tighter leashes on the dangerous shapes.
struct WatchdogPolicy {
  WatchdogLimits defaults;
  std::map<std::string, WatchdogLimits> per_fragment;

  bool Enabled() const;
  /// The limits applying to `fragment`: the override when present, else
  /// the defaults.
  const WatchdogLimits& For(const std::string& fragment) const;
};

/// One sampling window: one tick's MetricsHistory sample, narrowed to the
/// engine's query counters and eval-latency histogram.
struct TelemetryWindow {
  uint64_t end_unix_ms = 0;
  double seconds = 0;
  uint64_t queries = 0;
  uint64_t rejections = 0;  // rejected + deadline_exceeded + cancelled
  uint64_t watchdog_cancels = 0;
  uint64_t eval_count = 0;
  /// (exclusive upper bound, observations) deltas of engine.eval_ns for
  /// the window's non-empty buckets — windowed percentiles come from
  /// merging these, not from the cumulative histogram.
  std::vector<std::pair<uint64_t, uint64_t>> eval_buckets;

  template <class Self, class V>
  static void Fields(Self& w, V& v) {
    v("end_unix_ms", w.end_unix_ms);
    v("seconds", w.seconds);
    v("queries", w.queries);
    v("rejections", w.rejections);
    v("watchdog_cancels", w.watchdog_cancels);
    v("eval_count", w.eval_count);
    v("eval_buckets", w.eval_buckets);
  }
};

/// One profiler tag and its self samples.
struct HotTag {
  std::string tag;
  uint64_t self = 0;

  template <class Self, class V>
  static void Fields(Self& t, V& v) {
    v("tag", t.tag);
    v("self", t.self);
  }
};

/// What the sampler publishes each tick: cumulative totals, rates and
/// percentiles over the retained windows, the windows themselves (oldest
/// first), and the embedded in-flight registry snapshot. Serializable to a
/// single JSON object so rdfql_top (or anything else) can follow a file.
struct TelemetrySnapshot {
  uint64_t unix_ms = 0;
  uint64_t interval_ms = 0;
  uint64_t ticks = 0;
  uint64_t queries_total = 0;
  uint64_t rejected_total = 0;
  uint64_t watchdog_cancelled_total = 0;
  int64_t queries_active = 0;
  double qps = 0;
  double rejections_per_s = 0;
  double eval_p50_ns = 0;
  double eval_p99_ns = 0;
  std::vector<TelemetryWindow> windows;
  InflightSnapshot inflight;
  /// The profiler's hottest tags by self samples, hottest first — present
  /// only while an engine profiler is running (rdfql_top renders these as
  /// its hot-tag panel). Absent entirely otherwise, and the parser accepts
  /// both forms.
  std::vector<HotTag> hot_tags;
  /// Alert-engine view at the tick — present only when the sampler drives
  /// an AlertEngine (has_alerts distinguishes "no engine" from "no rules");
  /// the parser accepts both forms.
  bool has_alerts = false;
  AlertSnapshot alerts;
  /// Build provenance (same values as the OpenMetrics rdfql_build_info and
  /// the bench JSON v3 stamp). Absent from snapshots written by older
  /// builds; the parser accepts both forms.
  std::string build_sha;
  std::string build_type;

  std::string ToJson() const;

  /// The snapshot file's JSON object (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v("unix_ms", s.unix_ms);
    v("interval_ms", s.interval_ms);
    v("ticks", s.ticks);
    v("queries_total", s.queries_total);
    v("rejected_total", s.rejected_total);
    v("watchdog_cancelled_total", s.watchdog_cancelled_total);
    v("queries_active", s.queries_active);
    v("qps", s.qps);
    v("rejections_per_s", s.rejections_per_s);
    v("eval_p50_ns", s.eval_p50_ns);
    v("eval_p99_ns", s.eval_p99_ns);
    v("windows", s.windows);
    v("inflight", s.inflight);
    v("hot_tags", s.hot_tags, !s.hot_tags.empty());
    v.Flagged("alerts", s.alerts, s.has_alerts);
    v.Object(
        "build",
        [&s](auto& b) {
          b("sha", s.build_sha);
          b("build", s.build_type);
        },
        !s.build_sha.empty() || !s.build_type.empty());
  }
};

/// Parses a snapshot produced by TelemetrySnapshot::ToJson, keys in any
/// order. Returns false with a diagnostic in `*error` on malformed input.
bool ParseTelemetrySnapshot(std::string_view json, TelemetrySnapshot* out,
                            std::string* error);

struct TelemetryOptions {
  /// Tick period. 0 disables the background thread: the owner drives the
  /// sampler with TickNow() (tests, single-shot tools).
  uint64_t interval_ms = 1000;
  WatchdogPolicy watchdog;
  /// When non-empty, every tick atomically rewrites this file (temp +
  /// rename) with the current TelemetrySnapshot JSON — the hand-off point
  /// to rdfql_top.
  std::string snapshot_path;
};

/// The windows a snapshot carries: its rates and percentiles aggregate the
/// newest kTelemetryWindows ticks.
inline constexpr size_t kTelemetryWindows = 60;

/// The ring a sampler records into when no alert rules bring one: samples
/// at tick resolution for twice kTelemetryWindows ticks of `interval_ms`
/// (of the default 1 s tick when 0), so a tick that runs late never costs
/// a window, and no coarse tier.
HistoryOptions TelemetryHistoryOptions(uint64_t interval_ms);

/// The windowed telemetry sampler + slow-query watchdog. A background
/// thread ticks every interval: it records the metrics registry into a
/// history ring and reads the ring's newest samples back as a sliding-
/// window view (QPS, rejections/s, windowed p50/p99 of engine.eval_ns),
/// sweeps the in-flight registry against the watchdog policy — cancelling
/// offenders through their own tokens — and publishes the combined
/// snapshot in memory and optionally to a file.
///
/// The sampler only reads the registries it is given; it never blocks a
/// query (per-slot locks are held for field copies only).
class TelemetrySampler {
 public:
  /// `metrics`, `inflight` and `history` must outlive the sampler, and so
  /// must `alerts` when set. Every tick records the registry into `history`
  /// (Stop() persists it, if the ring has a jsonl_path); the ring sees the
  /// raw registry, without the series Engine::MetricsSnapshot injects on
  /// top (pool.*, lock.*). When `alerts` is set, every tick evaluates its
  /// rules against the ring, embeds the AlertSnapshot into the telemetry
  /// snapshot, and folds watchdog escalations from firing rules into the
  /// effective watchdog policy. Starts the background thread unless
  /// options.interval_ms == 0.
  TelemetrySampler(MetricsRegistry* metrics, InflightRegistry* inflight,
                   MetricsHistory* history, AlertEngine* alerts,
                   TelemetryOptions options);
  ~TelemetrySampler();
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Stops the background thread (idempotent). Runs one final tick so the
  /// snapshot file reflects the end state.
  void Stop();

  /// Runs one tick synchronously on the calling thread.
  void TickNow();

  /// The most recently published snapshot (empty before the first tick).
  TelemetrySnapshot Snapshot() const;

  uint64_t ticks() const;

  /// The watchdog policy the next sweep will enforce: the configured policy
  /// plus per-fragment overrides escalated from firing alert rules.
  WatchdogPolicy EffectiveWatchdog() const;

 private:
  void Loop();
  void Tick();

  MetricsRegistry* metrics_;
  InflightRegistry* inflight_;
  MetricsHistory* history_;
  AlertEngine* alerts_;
  TelemetryOptions options_;

  mutable std::mutex state_mu_;
  TelemetrySnapshot latest_;  // guarded by state_mu_
  uint64_t ticks_ = 0;        // guarded by state_mu_
  /// Watchdog overrides escalated from firing alert rules (guarded by
  /// state_mu_); recomputed after each alert evaluation, enforced by the
  /// next tick's sweep.
  std::map<std::string, WatchdogLimits> escalations_;

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_TELEMETRY_H_
