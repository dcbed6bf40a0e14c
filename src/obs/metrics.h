#ifndef RDFQL_OBS_METRICS_H_
#define RDFQL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rdfql {

/// A monotonically increasing counter (e.g. `eval.join_probes`). Increments
/// are relaxed atomics, so counters are safe to bump from any thread and
/// cheap enough for per-operator accounting.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-write-wins signed gauge (e.g. `engine.graphs`).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram over power-of-two boundaries: bucket i
/// counts observations in [2^(i-1), 2^i) (bucket 0 is [0, 1)). With 40
/// buckets the range covers 1 ns .. ~9 minutes, which is ample for both a
/// single operator and a whole query. Observation is two relaxed atomic
/// adds plus a bit scan — no allocation, no locks.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;

  void Observe(uint64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound (exclusive) of bucket i.
  static uint64_t BucketBound(int i);

  /// The q-quantile (q in [0,1]) estimated by log-linear interpolation:
  /// the rank q*Count() is located in the cumulative bucket counts and
  /// interpolated linearly within the power-of-two bucket holding it (the
  /// buckets are log-spaced, so the interpolation is linear in log space
  /// of the value range). Exact when all mass sits at bucket edges; always
  /// within one bucket width of the true quantile. Returns 0 on an empty
  /// histogram. See also HistogramPercentile / HistogramData::Percentile
  /// for the snapshot-side equivalents.
  double Percentile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// A point-in-time copy of a registry's contents, with text and JSON
/// renderings. Histograms carry (upper_bound, count) pairs for the
/// non-empty buckets plus count/sum, so mean and coarse percentiles can be
/// recovered downstream.
struct RegistrySnapshot {
  struct HistogramData {
    uint64_t count = 0;
    uint64_t sum = 0;
    /// (exclusive upper bound, observations) for each non-empty bucket.
    std::vector<std::pair<uint64_t, uint64_t>> buckets;

    double Mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
    /// Upper bound of the bucket containing the q-quantile (q in [0,1]).
    uint64_t ApproxQuantile(double q) const;
    /// Interpolated quantile — same estimator as Histogram::Percentile,
    /// computed from the snapshot's (bound, count) pairs. The pairs carry
    /// the exact bucket boundaries, so scrapers (OpenMetrics exposition,
    /// rdfql_stats) reproduce the engine's percentiles losslessly.
    double Percentile(double q) const;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// One metric per line, e.g. `eval.join_probes 1234`.
  std::string ToText() const;
  /// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  ///  "sum":..,"mean":..,"p50":..,"p99":..,"buckets":[[le,n],...]}}}
  std::string ToJson() const;
};

/// A registry of named metrics. Creation takes a mutex; the returned
/// pointers are stable for the registry's lifetime, so hot paths look a
/// metric up once and hold the pointer. Snapshot and Reset may race with
/// concurrent increments (relaxed reads), which is the usual contract for
/// scrape-style metrics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; never returns null.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric (names stay registered; pointers stay valid).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Appends a JSON-escaped copy of `s` (quotes not included) to `out`.
/// Shared by the metrics, tracer and bench JSON emitters and the result
/// writer (algebra/result_io.h).
void AppendJsonEscaped(std::string_view s, std::string* out);

/// The shared percentile estimator behind Histogram::Percentile and
/// HistogramData::Percentile: `buckets` is the (exclusive upper bound,
/// observations) list of the non-empty power-of-two buckets in increasing
/// bound order, `count` the total observation count. Locates the rank
/// q*count in the cumulative counts and interpolates linearly within the
/// bucket's [bound/2, bound) range (bucket [0,1) for bound 1).
double HistogramPercentile(
    const std::vector<std::pair<uint64_t, uint64_t>>& buckets,
    uint64_t count, double q);

}  // namespace rdfql

#endif  // RDFQL_OBS_METRICS_H_
