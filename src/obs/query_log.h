#ifndef RDFQL_OBS_QUERY_LOG_H_
#define RDFQL_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl_sink.h"
#include "obs/metrics.h"

namespace rdfql {

/// One query's flight record: everything an operator needs to reconstruct
/// what a query did after the fact — identity (stable hash + correlation
/// id), the paper-fragment classification the complexity theorems speak
/// about, phase wall times, result and memory figures, and the typed
/// outcome. Records are written by Engine::Query / Engine::QueryExplained
/// when a QueryLog is attached, one record per query.
struct QueryLogRecord {
  /// Monotone per-log id; also attached to the query's EXPLAIN plan as the
  /// `correlation_id` counter, so a log record and a trace can be joined.
  uint64_t correlation_id = 0;
  /// FNV-1a of the canonicalized query text (see StableQueryHash) — stable
  /// across sessions and machines, so identical (and trivially
  /// reformatted) queries aggregate under one key.
  uint64_t query_hash = 0;
  std::string graph;
  /// Raw query text, truncated to QueryLogOptions::max_query_bytes.
  std::string query;
  /// DescribeFragment() of the parsed pattern, e.g. "SPARQL[AUF]",
  /// "NS-SPARQL"; empty when the query never parsed.
  std::string fragment;
  /// "ok", or the typed error category: "parse_error", "not_found",
  /// "resource_exhausted", "deadline_exceeded", "cancelled", ...
  std::string outcome = "ok";
  /// The status message when outcome != "ok".
  std::string error;
  uint64_t unix_ms = 0;  // wall-clock time the query started
  uint64_t parse_ns = 0;
  uint64_t optimize_ns = 0;  // 0 unless the caller ran the optimizer
  uint64_t eval_ns = 0;
  uint64_t rows_out = 0;        // result cardinality
  uint64_t total_mappings = 0;  // mappings materialized end to end
  uint64_t peak_mappings = 0;   // accountant high-water marks
  uint64_t peak_bytes = 0;
  int threads = 1;
  /// Query-cache outcome: "result_hit" (answer served from the result
  /// cache), "plan_hit" (parse skipped, evaluation ran), "miss" (caching
  /// on, nothing reusable) or "bypass" (cache attached but disabled for
  /// this query). Empty — and omitted from the JSON — when the engine has
  /// no cache attached.
  std::string cache;
  /// parse + eval crossed QueryLogOptions::slow_ms.
  bool slow = false;
  /// Full EXPLAIN ANALYZE text, captured for slow queries when
  /// QueryLogOptions::explain_slow is set.
  std::string explain;

  uint64_t TotalNs() const { return parse_ns + optimize_ns + eval_ns; }

  /// The JSONL format (obs/json_util.h), one key per field after the
  /// `"v":1` tag; empty error, cache and explain, a zero optimize_ns and a
  /// false slow are left out.
  template <class Self, class V>
  static void Fields(Self& r, V& v) {
    v.Version(1);
    v("id", r.correlation_id);
    v("hash", r.query_hash);
    v("unix_ms", r.unix_ms);
    v("graph", r.graph);
    v("query", r.query);
    v("fragment", r.fragment);
    v("outcome", r.outcome);
    v("error", r.error, !r.error.empty());
    v("parse_ns", r.parse_ns);
    v("optimize_ns", r.optimize_ns, r.optimize_ns != 0);
    v("eval_ns", r.eval_ns);
    v("rows_out", r.rows_out);
    v("total_mappings", r.total_mappings);
    v("peak_mappings", r.peak_mappings);
    v("peak_bytes", r.peak_bytes);
    v("threads", r.threads);
    v("cache", r.cache, !r.cache.empty());
    v("slow", r.slow, r.slow);
    v("explain", r.explain, r.slow && !r.explain.empty());
  }
};

/// Configuration for a QueryLog sink.
struct QueryLogOptions {
  /// JSONL file to append records to; empty keeps records in memory only
  /// (the ring buffer still fills, e.g. for the shell's `.stats`).
  std::string path;
  /// Open `path` in append mode instead of truncating.
  bool append = false;
  /// Newest records kept in memory for Snapshot().
  size_t ring_capacity = 1024;
  /// Record every Nth successful query (1 = all). Slow and failed queries
  /// are always recorded — they are the ones an operator is looking for.
  uint64_t sample_every = 1;
  /// Queries whose parse+eval wall time reaches this many milliseconds are
  /// marked slow (and EXPLAIN-captured, see below). 0 disables.
  uint64_t slow_ms = 0;
  /// Capture the full EXPLAIN ANALYZE text for slow queries. On the plain
  /// Engine::Query path this re-runs the query once under a tracer (cost:
  /// roughly 2x for the offending query — bounded, and only for queries
  /// already past the slow threshold); QueryExplained has the text anyway.
  bool explain_slow = true;
  /// Truncation limit for the raw query text stored per record.
  size_t max_query_bytes = 2048;
};

/// Canonical form of a query's text for hashing and cache keying: comments
/// (`#` to end of line) are dropped, runs of whitespace collapse to a
/// single space, and leading/trailing whitespace disappears — except
/// inside `<...>` IRIs and `"..."` literals, which are preserved byte for
/// byte. Idempotent, so canonical text hashes to its own hash.
std::string CanonicalizeQueryText(std::string_view query);

/// Stable FNV-1a 64-bit hash of the *canonicalized* query text (computed
/// in one streaming pass, no allocation). Trivially reformatted queries —
/// different indentation, line breaks or comments — share a hash, so they
/// aggregate under one key in the query log and share a query-cache entry.
/// This is the hash-stability contract: the value for a given canonical
/// text never changes across sessions, machines or versions.
uint64_t StableQueryHash(std::string_view query);

/// One JSONL line (no trailing newline): a flat JSON object with a `"v":1`
/// version tag and one key per QueryLogRecord field.
std::string QueryLogRecordToJson(const QueryLogRecord& record);

/// Parses one JSONL line back into a record, keys in any order. Unknown
/// keys are skipped and missing ones keep their defaults (forward
/// compatibility); a malformed line or a missing version tag fails with a
/// message in *error. Shared by tools/rdfql_stats and tests.
bool ParseQueryLogLine(std::string_view line, QueryLogRecord* out,
                       std::string* error);

/// A thread-safe structured sink for query records: a bounded in-memory
/// ring buffer plus an optional JSONL file writer (a JsonlSink, so
/// concurrent queries can never interleave bytes within a line).
class QueryLog {
 public:
  explicit QueryLog(QueryLogOptions options = {});

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// False when the configured file could not be opened (the ring buffer
  /// still works); error() carries the reason.
  bool ok() const { return sink_.error().empty(); }
  const std::string& error() const { return sink_.error(); }

  const QueryLogOptions& options() const { return options_; }

  /// Next correlation id (1, 2, ...). The engine stamps each query with
  /// one before evaluation starts.
  uint64_t NextCorrelationId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Logs one record, subject to sampling: slow or failed records are
  /// always kept, others every options().sample_every-th submission.
  void Record(QueryLogRecord record);

  /// Copy of the ring buffer, oldest first.
  std::vector<QueryLogRecord> Snapshot() const { return sink_.Snapshot(); }

  /// Records submitted / kept (written to ring+file) / dropped by
  /// sampling / marked slow.
  uint64_t records_seen() const {
    return seen_.load(std::memory_order_relaxed);
  }
  uint64_t records_logged() const {
    return logged_.load(std::memory_order_relaxed);
  }
  uint64_t records_sampled_out() const {
    return sampled_out_.load(std::memory_order_relaxed);
  }
  uint64_t slow_queries() const {
    return slow_.load(std::memory_order_relaxed);
  }

  /// Flushes the file writer (records are flushed per line already; this
  /// exists for callers that want a barrier, e.g. before forking a reader).
  void Flush() { sink_.Flush(); }

 private:
  QueryLogOptions options_;
  JsonlSink<QueryLogRecord> sink_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> seen_{0};
  std::atomic<uint64_t> logged_{0};
  std::atomic<uint64_t> sampled_out_{0};
  std::atomic<uint64_t> slow_{0};
};

/// Offline workload analysis over query records, shared by tools/
/// rdfql_stats (aggregating JSONL files) and the shell's `.stats`
/// dot-command (aggregating the session ring). Latency percentiles come
/// from the same power-of-two-bucket Histogram the engine's metrics use,
/// so `rdfql_stats` reproduces exactly what Engine::MetricsSnapshot
/// reports for the same workload.
class QueryLogAggregator {
 public:
  QueryLogAggregator() = default;
  QueryLogAggregator(const QueryLogAggregator&) = delete;
  QueryLogAggregator& operator=(const QueryLogAggregator&) = delete;

  void Add(const QueryLogRecord& record);

  uint64_t records() const { return records_; }
  uint64_t slow_queries() const { return slow_; }
  const std::map<std::string, uint64_t>& outcomes() const {
    return outcomes_;
  }
  /// Cache-outcome counts ("result_hit", "plan_hit", "miss", "bypass");
  /// empty when no record carried a cache field.
  const std::map<std::string, uint64_t>& cache_outcomes() const {
    return cache_outcomes_;
  }

  /// The pseudo-fragment key aggregating every record.
  static constexpr const char* kAllFragments = "(all)";

  /// eval_ns percentile for one fragment (or kAllFragments), estimated
  /// with Histogram::Percentile — identical to the engine's histograms.
  double FragmentPercentile(const std::string& fragment, double q) const;
  uint64_t FragmentCount(const std::string& fragment) const;
  std::vector<std::string> Fragments() const;  // sorted, kAllFragments first

  /// Human-readable report: outcome breakdown, per-fragment latency
  /// percentiles, top-N slowest queries, top-N peak-memory outliers.
  std::string ToText(size_t top_n = 5) const;
  /// The same report as one JSON object.
  std::string ToJson(size_t top_n = 5) const;

  /// The most-repeated query hashes — the workload's cache-hit potential:
  /// per canonical hash, the repeat count, eval-latency p50/p99 and an
  /// example query text, ordered by count descending. `rdfql_stats
  /// --top-hashes N` prints exactly this.
  std::string TopHashesText(size_t top_n) const;
  /// The same report as one JSON object ({"top_hashes":[...]}).
  std::string TopHashesJson(size_t top_n) const;

 private:
  struct FragmentAgg {
    uint64_t count = 0;
    std::unique_ptr<Histogram> eval_ns;
  };
  struct HashAgg {
    uint64_t count = 0;
    std::unique_ptr<Histogram> eval_ns;
    std::string example;  // first query text seen for this hash
  };
  const FragmentAgg* FindFragment(const std::string& fragment) const;
  /// by_hash_ entries ordered by count descending (ties: hash ascending),
  /// truncated to top_n.
  std::vector<std::pair<uint64_t, const HashAgg*>> TopHashes(
      size_t top_n) const;

  uint64_t records_ = 0;
  uint64_t slow_ = 0;
  std::map<std::string, uint64_t> outcomes_;
  std::map<std::string, uint64_t> cache_outcomes_;
  std::map<std::string, FragmentAgg> by_fragment_;
  std::map<uint64_t, HashAgg> by_hash_;
  std::vector<QueryLogRecord> kept_;  // for top-N tables
};

}  // namespace rdfql

#endif  // RDFQL_OBS_QUERY_LOG_H_
