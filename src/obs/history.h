#ifndef RDFQL_OBS_HISTORY_H_
#define RDFQL_OBS_HISTORY_H_

// MetricsHistory — a bounded in-process time series over a MetricsRegistry.
//
// The history ring keeps a window of the recent past as *deltas* between
// consecutive registry snapshots: each Record() call diffs the new snapshot
// against the previous one and stores only what changed — counter
// increments, histogram bucket increments, and the gauge values at the
// sample's end. Deltas make window queries trivial (rate over 5 m = sum of
// deltas in the window / seconds) and survive a MetricsRegistry::Reset()
// mid-stream: a counter that goes backwards clamps to a zero delta instead
// of underflowing. The telemetry sampler records one sample per tick and
// publishes its newest samples as the snapshot's windows, so this is the
// engine's only window diffing.
//
// Retention is two-tier. A fine ring holds every sample (one per telemetry
// tick, typically 1 s) for `fine_retention_ms`; samples aging out of the
// fine ring are folded into coarse buckets of `coarse_bucket_ms` (deltas
// sum; gauges last-write-wins) retained for `coarse_retention_ms`. The
// defaults — 15 min at tick resolution downsampled to 1 h at 10 s — bound
// memory regardless of how long the engine runs, while still answering
// both "what happened in the last 30 s" and "is this hour worse than the
// last" style questions. The alert engine (obs/alerts.h) evaluates its
// burn-rate windows against exactly these queries.
//
// Persistence is JSONL, one sample per line, written by WriteFileAtomic
// (the telemetry snapshot file's writer too) so a reader never sees a torn
// file.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rdfql {

/// One interval of history: what the registry's metrics did between two
/// consecutive samples. `counters` and `histograms` are deltas over the
/// interval (zero deltas are dropped); `gauges` are the values at the
/// interval's end.
struct HistorySample {
  uint64_t unix_ms = 0;  // end of the covered interval
  double seconds = 0;    // wall time the interval covers
  bool coarse = false;   // true once downsampled into a coarse bucket
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  /// Per histogram: (exclusive upper bound, new observations) for each
  /// bucket that grew during the interval, in increasing bound order.
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>
      histograms;

  /// One JSONL line (no trailing newline):
  ///   {"v":1,"unix_ms":..,"seconds":..,"coarse":..,"counters":{..},
  ///    "gauges":{..},"histograms":{"name":[[le,n],..],..}}
  std::string ToJson() const;

  /// The JSONL format above (obs/json_util.h).
  template <class Self, class V>
  static void Fields(Self& s, V& v) {
    v.Version(1);
    v("unix_ms", s.unix_ms);
    v("seconds", s.seconds);
    v("coarse", s.coarse);
    v("counters", s.counters);
    v("gauges", s.gauges);
    v("histograms", s.histograms);
  }
};

/// Parses one line of a history JSONL file (the inverse of
/// HistorySample::ToJson). Returns false and fills *error on malformed
/// input.
bool ParseHistorySample(std::string_view line, HistorySample* out,
                        std::string* error);

/// Replaces `path` with `text` through a temp file and a rename, so a
/// reader following the path sees either the previous complete file or
/// this one. Returns false, leaving `path` as it was, when any write,
/// close or rename fails.
bool WriteFileAtomic(const std::string& path, const std::string& text);

struct HistoryOptions {
  /// How long samples stay at full (per-tick) resolution.
  uint64_t fine_retention_ms = 15 * 60 * 1000;
  /// Width of one downsampled bucket.
  uint64_t coarse_bucket_ms = 10 * 1000;
  /// How long downsampled buckets are retained.
  uint64_t coarse_retention_ms = 60 * 60 * 1000;
  /// JSONL persistence target; empty disables persistence.
  std::string jsonl_path;
  /// Rewrite the JSONL file every N Record() calls (0 = only on explicit
  /// WriteFile). The whole bounded ring is rewritten atomically each time.
  uint64_t persist_every = 30;
};

/// Thread-safe bounded time series of metric deltas. Record() is called
/// from the telemetry sampler's tick; window queries may be issued from any
/// thread (tools, alert evaluation, tests).
class MetricsHistory {
 public:
  explicit MetricsHistory(HistoryOptions options = HistoryOptions());

  /// Diffs `current` against the previously recorded snapshot and appends
  /// one delta sample ending at `unix_ms`. The first call establishes the
  /// baseline and records a zero-delta sample of `seconds` 0.
  void Record(const RegistrySnapshot& current, uint64_t unix_ms);

  /// Per-second rate of `counter` over the trailing window: the sum of its
  /// deltas in samples newer than now_ms - window_ms, divided by the wall
  /// time those samples cover. Returns 0 when the window holds no samples.
  double RateOver(const std::string& counter, uint64_t window_ms,
                  uint64_t now_ms) const;

  /// Total increase of `counter` over the trailing window.
  uint64_t DeltaOver(const std::string& counter, uint64_t window_ms,
                     uint64_t now_ms) const;

  /// Latest recorded value of `gauge`. Returns false if never recorded.
  bool LatestGauge(const std::string& gauge, int64_t* out) const;

  /// Interpolated q-quantile of `histogram`'s observations *within* the
  /// trailing window (bucket deltas merged across the window's samples,
  /// then fed to the shared HistogramPercentile estimator). Returns 0 when
  /// the window saw no observations.
  double PercentileOver(const std::string& histogram, double q,
                        uint64_t window_ms, uint64_t now_ms) const;

  /// Observations `histogram` gained within the trailing window.
  uint64_t ObservationsOver(const std::string& histogram, uint64_t window_ms,
                            uint64_t now_ms) const;

  /// Copy of the retained samples, oldest first (coarse, then fine).
  std::vector<HistorySample> Samples() const;

  /// Calls fn(const HistorySample&) on each of the newest `n` samples at
  /// full resolution, oldest first, under the ring's lock (fn must not call
  /// back into the ring).
  template <typename Fn>
  void VisitRecent(size_t n, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = fine_.size() > n ? fine_.size() - n : 0; i < fine_.size();
         ++i) {
      fn(fine_[i]);
    }
  }

  size_t fine_size() const;
  size_t coarse_size() const;
  uint64_t records() const;

  const HistoryOptions& options() const { return options_; }

  /// Writes the whole ring as JSONL to `path` (temp file + rename, so
  /// readers never observe a partial file). Returns false on I/O failure.
  bool WriteFile(const std::string& path) const;
  /// WriteFile(options().jsonl_path); false when persistence is disabled.
  bool WriteFile() const;

 private:
  /// Folds `s` into the pending coarse bucket; flushes the bucket into
  /// coarse_ once it spans coarse_bucket_ms. Caller holds mu_.
  void FoldIntoCoarseLocked(HistorySample&& s);
  void TrimLocked(uint64_t now_ms);

  /// Visits every retained sample oldest first: coarse buckets, then the
  /// pending (not yet flushed) coarse bucket, then fine samples. Window
  /// queries and persistence must include the pending bucket or up to one
  /// coarse_bucket_ms of folded history would go missing. Caller holds mu_.
  template <typename Fn>
  void VisitLocked(Fn&& fn) const {
    for (const HistorySample& s : coarse_) fn(s);
    if (pending_active_) fn(pending_coarse_);
    for (const HistorySample& s : fine_) fn(s);
  }

  const HistoryOptions options_;

  mutable std::mutex mu_;
  std::deque<HistorySample> fine_;
  std::deque<HistorySample> coarse_;
  HistorySample pending_coarse_;
  bool pending_active_ = false;
  uint64_t pending_start_ms_ = 0;
  bool have_prev_ = false;
  uint64_t prev_unix_ms_ = 0;
  RegistrySnapshot prev_;
  uint64_t records_ = 0;
};

}  // namespace rdfql

#endif  // RDFQL_OBS_HISTORY_H_
