#include "rdf/graph.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>

#include "util/timed_lock.h"

namespace rdfql {
namespace {

// Key extractors giving the component order of each index.
struct SpoKey {
  std::tuple<TermId, TermId, TermId> operator()(const Triple& t) const {
    return {t.s, t.p, t.o};
  }
};
struct PosKey {
  std::tuple<TermId, TermId, TermId> operator()(const Triple& t) const {
    return {t.p, t.o, t.s};
  }
};
struct OspKey {
  std::tuple<TermId, TermId, TermId> operator()(const Triple& t) const {
    return {t.o, t.s, t.p};
  }
};

template <typename Key>
void SortBy(std::vector<Triple>* v) {
  std::sort(v->begin(), v->end(), [](const Triple& a, const Triple& b) {
    return Key()(a) < Key()(b);
  });
}

// Past this size (relative to the base index) the side array is folded
// into the base by a full re-sort; below it, inserts stay cheap and scans
// pay one extra binary search plus a two-way merge.
size_t SideRebuildThreshold(size_t base_size) { return 64 + base_size / 8; }

// The run of `index` whose first `bound` key components equal `k1[,k2]`:
// a binary search for its start, then a galloping search for its end, so
// the end costs O(log #matches) and a point lookup about one search.
template <typename Key>
std::span<const Triple> PrefixRange(const std::vector<Triple>& index,
                                    TermId k1, TermId k2, int bound) {
  // Whether t's bound key components sort before (k1[,k2]), and whether
  // they sort before or equal it; most probes differ in the first.
  auto before = [&](const Triple& t) {
    auto tk = Key()(t);
    if (std::get<0>(tk) != k1) return std::get<0>(tk) < k1;
    return bound >= 2 && std::get<1>(tk) < k2;
  };
  auto in_run = [&](const Triple& t) {
    auto tk = Key()(t);
    if (std::get<0>(tk) != k1) return std::get<0>(tk) < k1;
    return bound < 2 || std::get<1>(tk) <= k2;
  };
  const auto end = index.end();
  auto lower = std::partition_point(index.begin(), end, before);
  // Every triple in [lower, inside) is in the run; `probe` doubles its
  // distance from `lower` until it leaves the run or reaches the end.
  auto inside = lower;
  auto probe = lower;
  for (ptrdiff_t step = 1; probe != end && in_run(*probe); step *= 2) {
    inside = probe + 1;
    probe += std::min(step, end - probe);
  }
  auto upper = std::partition_point(inside, probe, in_run);
  return {index.data() + (lower - index.begin()),
          static_cast<size_t>(upper - lower)};
}

}  // namespace

uint64_t Graph::NextEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Hand-written because the index mutex is neither copyable nor movable.
// Copies are reads of `other` and may run concurrently with its lookups,
// so they take its shared lock while the indexes are duplicated; moves
// require exclusive ownership of both sides (like any other write).
Graph::Graph(const Graph& other) { *this = other; }

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  std::shared_lock<std::shared_mutex> lock(other.index_mu_);
  triples_ = other.triples_;
  set_ = other.set_;
  for (int i = 0; i < 3; ++i) index_[i] = other.index_[i];
  // Copies share the source's epoch: identical content, so result-cache
  // entries stamped with it stay valid. The first mutation of either side
  // mints a fresh value and they diverge.
  epoch_.store(other.Epoch(), std::memory_order_relaxed);
  return *this;
}

Graph::Graph(Graph&& other) noexcept { *this = std::move(other); }

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  triples_ = std::move(other.triples_);
  set_ = std::move(other.set_);
  for (int i = 0; i < 3; ++i) index_[i] = std::move(other.index_[i]);
  epoch_.store(other.Epoch(), std::memory_order_relaxed);
  return *this;
}

bool Graph::Insert(const Triple& t) {
  if (!set_.insert(t).second) return false;
  triples_.push_back(t);
  epoch_.store(NextEpoch(), std::memory_order_relaxed);
  // Indexes stay valid for their covered prefix; EnsureIndex absorbs the
  // new tail into each side array on the next lookup.
  return true;
}

void Graph::InvalidateIndexes() {
  for (Index& idx : index_) {
    idx.base.clear();
    idx.side.clear();
    idx.covered = 0;
  }
}

bool Graph::Erase(const Triple& t) {
  if (set_.erase(t) == 0) return false;
  triples_.erase(std::find(triples_.begin(), triples_.end(), t));
  epoch_.store(NextEpoch(), std::memory_order_relaxed);
  // Removal from the middle breaks the covered-prefix bookkeeping; erases
  // are rare (updates), so a full invalidation keeps them simple.
  InvalidateIndexes();
  return true;
}

void Graph::EnsureIndex(IndexKind kind) const {
  // Concurrent queries can hit the first lookup on a freshly loaded graph
  // together, so the lazy build is double-checked: the common "already
  // covered" case costs one shared lock, and exactly one thread performs
  // the build. A reader that observes covered == size() here may then
  // scan without the lock — covered only ever advances to size(), and
  // nothing mutates a covering index until the next (externally
  // serialized) write.
  {
    TimedSharedLock<std::shared_mutex> lock(index_mu_, &index_lock_wait_,
                                            "Graph::EnsureIndex");
    if (index_[kind].covered == triples_.size()) return;
  }
  TimedExclusiveLock<std::shared_mutex> lock(index_mu_, &index_lock_wait_,
                                             "Graph::EnsureIndex");
  Index& idx = index_[kind];
  if (idx.covered == triples_.size()) return;
  size_t added = triples_.size() - idx.covered;
  if (idx.side.size() + added > SideRebuildThreshold(idx.base.size())) {
    idx.base = triples_;
    idx.side.clear();
  } else {
    idx.side.insert(idx.side.end(), triples_.begin() + idx.covered,
                    triples_.end());
  }
  std::vector<Triple>* to_sort =
      idx.side.empty() ? &idx.base : &idx.side;
  switch (kind) {
    case kSpo:
      SortBy<SpoKey>(to_sort);
      break;
    case kPos:
      SortBy<PosKey>(to_sort);
      break;
    case kOsp:
      SortBy<OspKey>(to_sort);
      break;
  }
  idx.covered = triples_.size();
}

bool Graph::KeyLess(int kind, const Triple& a, const Triple& b) {
  switch (kind) {
    case kSpo:
      return SpoKey()(a) < SpoKey()(b);
    case kPos:
      return PosKey()(a) < PosKey()(b);
    default:
      return OspKey()(a) < OspKey()(b);
  }
}

Graph::Matches Graph::Find(TermId s, TermId p, TermId o) const {
  const bool bs = s != kInvalidTermId;
  const bool bp = p != kInvalidTermId;
  const bool bo = o != kInvalidTermId;
  Matches out;

  if (bs && bp && bo) {
    // The dedup set's node holds the triple at a stable address.
    auto it = set_.find(Triple(s, p, o));
    if (it != set_.end()) out.base_ = {&*it, 1};
    return out;
  }
  if (!bs && !bp && !bo) {
    out.base_ = triples_;
    return out;
  }

  // Pick the index whose order makes the bound positions a prefix. The one
  // combination with no contiguous prefix in SPO or POS (s and o bound, p
  // free) uses OSP's (o, s) prefix.
  auto scan = [&out, this]<typename Key>(IndexKind kind, Key, TermId k1,
                                          TermId k2, int bound) {
    EnsureIndex(kind);
    const Index& idx = index_[kind];
    out.base_ = PrefixRange<Key>(idx.base, k1, k2, bound);
    out.side_ = PrefixRange<Key>(idx.side, k1, k2, bound);
    out.kind_ = kind;
    return out;
  };
  if (bs && bp) return scan(kSpo, SpoKey(), s, p, 2);
  if (bp && bo) return scan(kPos, PosKey(), p, o, 2);
  if (bo && bs) return scan(kOsp, OspKey(), o, s, 2);
  if (bs) return scan(kSpo, SpoKey(), s, 0, 1);
  if (bp) return scan(kPos, PosKey(), p, 0, 1);
  return scan(kOsp, OspKey(), o, 0, 1);
}

bool Graph::IsSubsetOf(const Graph& other) const {
  if (size() > other.size()) return false;
  for (const Triple& t : triples_) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

Graph Graph::Union(const Graph& a, const Graph& b) {
  Graph out = a;
  for (const Triple& t : b.triples_) out.Insert(t);
  return out;
}

std::vector<TermId> Graph::Iris() const {
  std::vector<TermId> ids;
  ids.reserve(triples_.size() * 3);
  for (const Triple& t : triples_) {
    ids.push_back(t.s);
    ids.push_back(t.p);
    ids.push_back(t.o);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

size_t Graph::ApproxBytes() const {
  // ~2 pointers of hash-set bucket/node overhead per deduped triple; only
  // materialized indexes (base + side capacity) count.
  size_t bytes = triples_.capacity() * sizeof(Triple) +
                 set_.size() * (sizeof(Triple) + 2 * sizeof(void*));
  // The metrics gauge refresh may run while queries are building indexes.
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  for (const Index& idx : index_) {
    bytes += (idx.base.capacity() + idx.side.capacity()) * sizeof(Triple);
  }
  return bytes;
}

bool operator==(const Graph& a, const Graph& b) {
  return a.size() == b.size() && a.IsSubsetOf(b);
}

}  // namespace rdfql
