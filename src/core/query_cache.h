#ifndef RDFQL_CORE_QUERY_CACHE_H_
#define RDFQL_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "algebra/mapping_set.h"
#include "algebra/pattern.h"
#include "eval/evaluator.h"
#include "util/profile_state.h"

namespace rdfql {

/// Number of independently locked partitions in each cache. Lookups hash
/// to one shard and take only its mutex, so concurrent queries with
/// different hashes never contend.
inline constexpr size_t kQueryCacheShards = 16;

/// Sizing knobs for a QueryCache. Both caches are bounded and evict LRU
/// within the shard an insert lands in (budgets are split evenly across
/// the 16 shards, so a pathological distribution can evict a little early
/// — never late).
struct QueryCacheOptions {
  /// Total plan entries kept across all shards; 0 disables the plan cache.
  size_t plan_capacity = 4096;
  /// Total approximate bytes of materialized results kept across all
  /// shards; 0 disables the result cache.
  size_t result_max_bytes = 64ull << 20;
  /// Results whose MappingSet::ApproxBytes() exceeds this are never
  /// cached (one huge answer should not wipe a shard).
  size_t result_entry_max_bytes = 4ull << 20;
};

/// A cached parse: the immutable pattern shared via shared_ptr (concurrent
/// hits are zero-copy), the fragment classification that rides along for
/// free, and the canonical query text the entry was built from — lookups
/// verify it, so a 64-bit hash collision degrades to a miss, never to a
/// wrong plan.
struct CachedPlan {
  std::string canonical_query;
  PatternPtr pattern;
  std::string fragment;  // DescribeFragment(pattern)
};
using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

/// Identity of a materialized result: the canonicalized query hash, the
/// graph it ran against by name *and* epoch (see Graph::Epoch — any
/// mutation moves the epoch, so a stale answer can never hit), and a
/// fingerprint of the evaluation options that key distinct entries. The
/// cache keeps one slot per key minus its epoch; a lookup matches the whole
/// key.
struct ResultCacheKey {
  uint64_t query_hash = 0;
  std::string graph;
  uint64_t graph_epoch = 0;
  uint64_t options_fp = 0;

  friend bool operator==(const ResultCacheKey& a, const ResultCacheKey& b) {
    return a.query_hash == b.query_hash && a.graph_epoch == b.graph_epoch &&
           a.options_fp == b.options_fp && a.graph == b.graph;
  }
};

/// The slice of EvalOptions a cached result may depend on. Join strategy
/// and NS algorithm are proven result-identical, but they are ablation
/// knobs whose EXPLAIN work counters differ, so they key separate entries
/// rather than sharing one; thread count does not participate (the
/// parallel evaluator's bit-for-bit contract).
uint64_t EvalOptionsFingerprint(const EvalOptions& options);

/// Point-in-time counters for a QueryCache. Hit/miss/eviction/bypass are
/// monotone over the cache's lifetime (Clear() drops entries, not
/// counters); entries/bytes are live sizes.
struct QueryCacheStats {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  /// Results refused because they exceeded result_entry_max_bytes.
  uint64_t result_oversize = 0;
  /// Queries that ran with caching disabled per-query while a cache was
  /// attached (EvalOptions::use_*_cache == CacheMode::kOff).
  uint64_t bypasses = 0;
  uint64_t plan_entries = 0;
  uint64_t result_entries = 0;
  uint64_t result_bytes = 0;

  uint64_t hits() const { return plan_hits + result_hits; }
  uint64_t misses() const { return plan_misses + result_misses; }
  uint64_t evictions() const { return plan_evictions + result_evictions; }
};

/// A sharded, bounded LRU cache for the front half of query execution:
///
///  - a **plan cache** mapping canonicalized query text (by stable hash)
///    to the parsed immutable PatternPtr + fragment, and
///  - an optional **result cache** holding one slot per (query hash, graph
///    name, options fingerprint): the materialized MappingSet of the
///    latest answer stored for it, tagged with the graph epoch it was
///    computed at.
///
/// Keying is syntactic on purpose: subsumption of (weakly) well-designed
/// patterns is undecidable (Kaminski & Kostylev 2019) and even static
/// analysis of the PP-free fragment is PSPACE-hard (Pérez, Arenas &
/// Gutiérrez), so the canonicalized-text hash is the only sound cheap key.
/// Every entry stores the canonical text and lookups compare it, making
/// correctness independent of the 64-bit hash.
///
/// Fully thread-safe: 16 hash-partitioned mutexes (one per shard), atomic
/// stats, and immutable shared values — a hit hands back a shared_ptr
/// without copying under the lock. A graph mutation moves Graph::Epoch, so
/// the slot's answer stops matching, and the next answer stored for that
/// query replaces it in place. NS, MINUS and OPT are non-monotone, so any
/// write may change any answer: an answer superseded by an epoch is dead,
/// and the slot never holds more than one.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});
  ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  const QueryCacheOptions& options() const { return options_; }
  bool plan_enabled() const { return options_.plan_capacity > 0; }
  bool result_enabled() const { return options_.result_max_bytes > 0; }

  /// Looks up a plan by canonicalized-text hash; `canonical` must be the
  /// canonical text itself and is verified against the entry. A hit
  /// refreshes the entry's LRU position.
  CachedPlanPtr GetPlan(uint64_t hash, std::string_view canonical);

  /// Like GetPlan but touches neither the stats nor the LRU order — for
  /// opportunistic reads (e.g. recovering the fragment on a result hit)
  /// that should not distort hit accounting.
  CachedPlanPtr PeekPlan(uint64_t hash, std::string_view canonical) const;

  /// Inserts/replaces the plan for `hash`, evicting the shard's LRU tail
  /// past capacity. No-op when the plan cache is disabled.
  void PutPlan(uint64_t hash, CachedPlanPtr plan);

  /// Looks up a materialized result. Hits only when the slot's answer has
  /// the whole key, epoch included, and the canonical text, so an answer
  /// from another graph state or a hash collision is a miss. The returned
  /// set is shared and immutable: read it in place, or copy it (a copy
  /// re-accounts to the accountant installed at copy time and preserves
  /// insertion order exactly). It stays valid after its slot is replaced.
  std::shared_ptr<const MappingSet> GetResult(const ResultCacheKey& key,
                                              std::string_view canonical);

  /// Stores `result` as is, sharing it with the caller, in the slot of
  /// (query hash, graph, options fingerprint), replacing the answer the
  /// slot held at any epoch. The set must not be changed afterwards and
  /// must not report to an accountant (see MappingSet::DetachAccounting).
  /// A set over the per-entry byte cap is refused and counted as
  /// oversize. Evicts the shard's LRU tail until the shard is back under
  /// its byte budget. No-op when the result cache is disabled.
  void PutResult(const ResultCacheKey& key, std::string_view canonical,
                 std::shared_ptr<const MappingSet> result);

  /// Counts a query that ran with caching switched off per-query.
  void NoteBypass() { bypasses_.fetch_add(1, std::memory_order_relaxed); }

  /// Contention across all 32 shard mutexes (plan + result), one combined
  /// site: per-shard breakdowns would be 32 near-zero histograms, and the
  /// question the metric answers — "are queries queueing on the cache?" —
  /// is per-cache. Surfaced as lock.query_cache_*.
  const WaitStats& lock_wait_stats() const { return lock_wait_; }

  /// Drops every entry from both caches. Stats counters keep running —
  /// they are lifetime totals, and the engine folds them into monotone
  /// metrics counters.
  void Clear();

  QueryCacheStats Stats() const;

 private:
  struct PlanShard;
  struct ResultShard;

  QueryCacheOptions options_;
  size_t plan_shard_capacity_ = 0;    // per-shard entry cap
  size_t result_shard_budget_ = 0;    // per-shard byte budget

  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> plan_evictions_{0};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> result_misses_{0};
  std::atomic<uint64_t> result_evictions_{0};
  std::atomic<uint64_t> result_oversize_{0};
  std::atomic<uint64_t> bypasses_{0};
  mutable WaitStats lock_wait_;

  std::unique_ptr<PlanShard[]> plan_shards_;
  std::unique_ptr<ResultShard[]> result_shards_;
};

}  // namespace rdfql

#endif  // RDFQL_CORE_QUERY_CACHE_H_
