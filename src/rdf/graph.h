#ifndef RDFQL_RDF_GRAPH_H_
#define RDFQL_RDF_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "rdf/triple.h"
#include "util/profile_state.h"

namespace rdfql {

/// A finite RDF graph: a set of ground triples (Section 2 of the paper).
///
/// Storage is a deduplicated triple vector plus three lazily built sorted
/// permutation indexes (SPO, POS, OSP). Lookups with any combination of
/// bound positions pick the index whose sort order makes the bound
/// positions a prefix and binary-search the matching range, so triple
/// pattern evaluation is O(log n + #matches).
///
/// Inserts do not invalidate the indexes: new triples accumulate in a
/// small sorted side array per index, and scans merge the main index with
/// the side array in key order (callback order is identical to a fully
/// rebuilt index, since keys are unique permutations of unique triples).
/// Only when the side array outgrows a threshold does the index re-sort
/// from scratch — so interleaved insert/match workloads (updates, graph
/// generators) pay O(side · log side) per touched index instead of a full
/// O(n log n) re-sort after every insert.
///
/// Concurrent *reads* (Find, Match, CountMatches, ApproxBytes, copies) are
/// thread-safe: the lazy index build is guarded by a shared mutex, and
/// once an index covers the full triple set readers scan it without
/// taking the lock (nothing mutates it again until a write). Writes
/// (Insert/Erase) are not synchronized against readers; the Engine's
/// catalog orders them instead, writing a version in place only while no
/// query pins it and copying it otherwise.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Inserts a triple; returns true if it was new.
  bool Insert(const Triple& t);
  bool Insert(TermId s, TermId p, TermId o) { return Insert(Triple(s, p, o)); }

  /// Removes a triple; returns true if it was present.
  bool Erase(const Triple& t);

  bool Contains(const Triple& t) const { return set_.count(t) > 0; }

  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  /// All triples, in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// The triples matching a partially bound pattern: the two runs of one
  /// permutation index (its base and side arrays) that carry the bound
  /// prefix, visited as one merged run in key order; or, with every
  /// position bound, the one stored triple; or, with none, all triples in
  /// insertion order. Views into the graph: valid until its next write.
  class Matches {
   public:
    size_t size() const { return base_.size() + side_.size(); }

    /// Calls fn(triple) for every match, in index key order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      const Triple* b = base_.data();
      const Triple* b_end = b + base_.size();
      const Triple* s = side_.data();
      const Triple* s_end = s + side_.size();
      while (b != b_end && s != s_end) {
        if (KeyLess(kind_, *b, *s)) {
          fn(*b++);
        } else {
          fn(*s++);
        }
      }
      for (; b != b_end; ++b) fn(*b);
      for (; s != s_end; ++s) fn(*s);
    }

   private:
    friend class Graph;
    std::span<const Triple> base_;
    std::span<const Triple> side_;
    int kind_ = 0;  // the IndexKind both runs are sorted by
  };

  /// The triples matching the partially bound pattern; `kInvalidTermId` in
  /// a position means "any". Per run, a binary search finds its start and
  /// a galloping search its end: O(log n + log #matches), no scan.
  Matches Find(TermId s, TermId p, TermId o) const;

  /// Invokes `fn` for every triple matching the partially bound pattern;
  /// `kInvalidTermId` in a position means "any". Returns the match count.
  template <typename Fn>
  size_t Match(TermId s, TermId p, TermId o, Fn&& fn) const {
    Matches matches = Find(s, p, o);
    matches.ForEach(fn);
    return matches.size();
  }

  /// Number of triples matching the partially bound pattern, in O(log n).
  size_t CountMatches(TermId s, TermId p, TermId o) const {
    return Find(s, p, o).size();
  }

  /// G1 ⊆ G2.
  bool IsSubsetOf(const Graph& other) const;

  /// Set union (used throughout the monotonicity machinery).
  static Graph Union(const Graph& a, const Graph& b);

  /// The set of IRIs mentioned in the graph, I(G), sorted ascending.
  std::vector<TermId> Iris() const;

  /// Approximate resident bytes: triple store, dedup set and whatever
  /// permutation indexes have been materialized so far. Feeds the
  /// `engine.graph_bytes` gauge.
  size_t ApproxBytes() const;

  /// A stamp of this graph's current state, drawn from one process-global
  /// monotone counter. Every successful Insert/Erase re-stamps it with a
  /// fresh value; copies inherit the source's stamp (identical content),
  /// and no two *distinct* states ever share one — values are only ever
  /// minted fresh, so equal epochs imply an identical triple set. The
  /// query cache keys result entries by (graph name, epoch): any mutation
  /// moves the epoch and stale entries can never hit again, with no lock
  /// or flag on the read path.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Contention on index_mu_ (lazy index builds racing concurrent
  /// queries). Waits are per-graph; Engine::MetricsSnapshot sums them
  /// across graphs into lock.graph_index_*. Copies start with fresh stats
  /// — contention history describes a mutex, not the triples.
  const WaitStats& index_lock_wait_stats() const { return index_lock_wait_; }

  friend bool operator==(const Graph& a, const Graph& b);

 private:
  enum IndexKind { kSpo = 0, kPos = 1, kOsp = 2 };

  /// One lazily maintained permutation index: `base` is a sorted copy of
  /// the first `covered` inserted triples minus those in `side`; `side` is
  /// the (sorted) overflow of recent inserts, merged into scans on demand
  /// and folded into `base` by a full re-sort once it crosses the rebuild
  /// threshold.
  struct Index {
    std::vector<Triple> base;
    std::vector<Triple> side;
    size_t covered = 0;  // prefix of triples_ reflected in base + side
  };

  void EnsureIndex(IndexKind kind) const;
  void InvalidateIndexes();

  /// Whether `a` sorts before `b` in index `kind`'s key order.
  static bool KeyLess(int kind, const Triple& a, const Triple& b);

  /// Mints a fresh, never-before-used epoch value.
  static uint64_t NextEpoch();

  std::vector<Triple> triples_;
  std::unordered_set<Triple> set_;

  // Atomic so a reader that races a write (through an Engine::GetGraph
  // pointer, say) still sees a whole value. Engine queries read it from
  // their pinned version, which no write touches.
  std::atomic<uint64_t> epoch_{NextEpoch()};

  // Guards the lazy builds of index_ (EnsureIndex) against concurrent
  // readers; scans themselves run lock-free once covered == size().
  mutable std::shared_mutex index_mu_;
  mutable WaitStats index_lock_wait_;
  mutable Index index_[3];
};

}  // namespace rdfql

#endif  // RDFQL_RDF_GRAPH_H_
