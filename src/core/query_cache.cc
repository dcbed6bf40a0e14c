#include "core/query_cache.h"

#include <utility>

#include "util/timed_lock.h"

namespace rdfql {
namespace {

/// 64-bit mix (splitmix64 finalizer) — spreads the FNV hash and the key
/// fields before shard selection / map hashing.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t ShardOf(uint64_t hash) {
  return static_cast<size_t>(Mix(hash) & (kQueryCacheShards - 1));
}

/// A result slot's identity: the key without its epoch, so an answer at a
/// newer epoch lands in the slot of the answer it supersedes.
uint64_t ResultSlotHash(const ResultCacheKey& key) {
  uint64_t h = Mix(key.query_hash);
  for (char c : key.graph) {
    h = Mix(h ^ static_cast<unsigned char>(c));
  }
  return Mix(h ^ key.options_fp);
}

}  // namespace

uint64_t EvalOptionsFingerprint(const EvalOptions& options) {
  // Version salt in the high bits so a future semantic change to the
  // fingerprint can never alias an old one within a process.
  return (1ull << 32) | (static_cast<uint64_t>(options.join) << 4) |
         static_cast<uint64_t>(options.ns);
}

struct QueryCache::PlanShard {
  struct Entry {
    uint64_t hash;
    CachedPlanPtr plan;
  };
  mutable std::mutex mu;
  // Front = most recently used. The map points into the list; 64-bit hash
  // collisions within a shard share one slot (last writer wins) — the
  // canonical-text check downgrades a cross-query collision to a miss.
  std::list<Entry> lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
};

struct QueryCache::ResultShard {
  struct Entry {
    ResultCacheKey key;
    std::string canonical_query;
    std::shared_ptr<const MappingSet> result;
    uint64_t bytes;
  };
  mutable std::mutex mu;
  std::list<Entry> lru;  // front = most recently used
  // Keyed by ResultSlotHash: one slot per (query, graph, options). As in
  // the plan shard, colliding keys share a slot and the full-key check
  // downgrades the collision to a miss.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
  uint64_t bytes = 0;
};

QueryCache::QueryCache(QueryCacheOptions options) : options_(options) {
  plan_shard_capacity_ = options_.plan_capacity / kQueryCacheShards;
  if (plan_enabled() && plan_shard_capacity_ == 0) plan_shard_capacity_ = 1;
  result_shard_budget_ = options_.result_max_bytes / kQueryCacheShards;
  if (result_enabled() && result_shard_budget_ == 0) result_shard_budget_ = 1;
  plan_shards_ = std::make_unique<PlanShard[]>(kQueryCacheShards);
  result_shards_ = std::make_unique<ResultShard[]>(kQueryCacheShards);
}

QueryCache::~QueryCache() = default;

CachedPlanPtr QueryCache::GetPlan(uint64_t hash, std::string_view canonical) {
  if (!plan_enabled()) return nullptr;
  PlanShard& shard = plan_shards_[ShardOf(hash)];
  {
    TimedExclusiveLock<std::mutex> lock(shard.mu, &lock_wait_,
                                        "QueryCache::shard");
    auto it = shard.map.find(hash);
    if (it != shard.map.end() &&
        it->second->plan->canonical_query == canonical) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->plan;
    }
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

CachedPlanPtr QueryCache::PeekPlan(uint64_t hash,
                                   std::string_view canonical) const {
  if (!plan_enabled()) return nullptr;
  const PlanShard& shard = plan_shards_[ShardOf(hash)];
  TimedExclusiveLock<std::mutex> lock(shard.mu, &lock_wait_,
                                        "QueryCache::shard");
  auto it = shard.map.find(hash);
  if (it != shard.map.end() && it->second->plan->canonical_query == canonical) {
    return it->second->plan;
  }
  return nullptr;
}

void QueryCache::PutPlan(uint64_t hash, CachedPlanPtr plan) {
  if (!plan_enabled() || plan == nullptr) return;
  PlanShard& shard = plan_shards_[ShardOf(hash)];
  uint64_t evicted = 0;
  {
    TimedExclusiveLock<std::mutex> lock(shard.mu, &lock_wait_,
                                        "QueryCache::shard");
    auto it = shard.map.find(hash);
    if (it != shard.map.end()) {
      it->second->plan = std::move(plan);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(PlanShard::Entry{hash, std::move(plan)});
      shard.map.emplace(hash, shard.lru.begin());
      while (shard.map.size() > plan_shard_capacity_) {
        shard.map.erase(shard.lru.back().hash);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (evicted != 0) {
    plan_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }
}

std::shared_ptr<const MappingSet> QueryCache::GetResult(
    const ResultCacheKey& key, std::string_view canonical) {
  if (!result_enabled()) return nullptr;
  ResultShard& shard = result_shards_[ShardOf(key.query_hash)];
  {
    TimedExclusiveLock<std::mutex> lock(shard.mu, &lock_wait_,
                                        "QueryCache::shard");
    auto it = shard.map.find(ResultSlotHash(key));
    if (it != shard.map.end() && it->second->key == key &&
        it->second->canonical_query == canonical) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->result;
    }
  }
  result_misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void QueryCache::PutResult(const ResultCacheKey& key,
                           std::string_view canonical,
                           std::shared_ptr<const MappingSet> result) {
  if (!result_enabled() || result == nullptr) return;
  uint64_t bytes = result->ApproxBytes();
  if (bytes > options_.result_entry_max_bytes || bytes > result_shard_budget_) {
    result_oversize_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t slot = ResultSlotHash(key);
  ResultShard& shard = result_shards_[ShardOf(key.query_hash)];
  // The answer a replaced slot held; released after the lock, since this
  // may be its last reference.
  std::shared_ptr<const MappingSet> superseded;
  uint64_t evicted = 0;
  {
    TimedExclusiveLock<std::mutex> lock(shard.mu, &lock_wait_,
                                        "QueryCache::shard");
    auto it = shard.map.find(slot);
    if (it != shard.map.end()) {
      shard.bytes -= it->second->bytes;
      it->second->key = key;
      it->second->canonical_query.assign(canonical);
      superseded = std::exchange(it->second->result, std::move(result));
      it->second->bytes = bytes;
      shard.bytes += bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(ResultShard::Entry{key, std::string(canonical),
                                              std::move(result), bytes});
      shard.map.emplace(slot, shard.lru.begin());
      shard.bytes += bytes;
    }
    while (shard.bytes > result_shard_budget_ && shard.lru.size() > 1) {
      const ResultShard::Entry& tail = shard.lru.back();
      shard.bytes -= tail.bytes;
      shard.map.erase(ResultSlotHash(tail.key));
      shard.lru.pop_back();
      ++evicted;
    }
  }
  if (evicted != 0) {
    result_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }
}

void QueryCache::Clear() {
  for (size_t i = 0; i < kQueryCacheShards; ++i) {
    {
      TimedExclusiveLock<std::mutex> lock(plan_shards_[i].mu, &lock_wait_,
                                          "QueryCache::shard");
      plan_shards_[i].lru.clear();
      plan_shards_[i].map.clear();
    }
    {
      TimedExclusiveLock<std::mutex> lock(result_shards_[i].mu, &lock_wait_,
                                          "QueryCache::shard");
      result_shards_[i].lru.clear();
      result_shards_[i].map.clear();
      result_shards_[i].bytes = 0;
    }
  }
}

QueryCacheStats QueryCache::Stats() const {
  QueryCacheStats s;
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.result_misses = result_misses_.load(std::memory_order_relaxed);
  s.result_evictions = result_evictions_.load(std::memory_order_relaxed);
  s.result_oversize = result_oversize_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kQueryCacheShards; ++i) {
    {
      TimedExclusiveLock<std::mutex> lock(plan_shards_[i].mu, &lock_wait_,
                                          "QueryCache::shard");
      s.plan_entries += plan_shards_[i].map.size();
    }
    {
      TimedExclusiveLock<std::mutex> lock(result_shards_[i].mu, &lock_wait_,
                                          "QueryCache::shard");
      s.result_entries += result_shards_[i].map.size();
      s.result_bytes += result_shards_[i].bytes;
    }
  }
  return s;
}

}  // namespace rdfql
