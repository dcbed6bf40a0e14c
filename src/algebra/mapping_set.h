#ifndef RDFQL_ALGEBRA_MAPPING_SET_H_
#define RDFQL_ALGEBRA_MAPPING_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/mapping.h"
#include "obs/accounting.h"

namespace rdfql {

/// A set of mappings Ω, the result type of SPARQL graph-pattern evaluation.
///
/// Set semantics with deterministic iteration order (insertion order) so
/// results print stably. Implements the four algebra operators of
/// Section 2.1 — join ⋈, union ∪, difference ∖ and left-outer join ⟕ —
/// and the subsumption preorder Ω1 ⊑ Ω2 of Section 3.1.
///
/// Each mapping is stored once, in insertion order; deduplication goes
/// through an open-addressing index of positions into that list.
///
/// The binary operators partition on the variables bound in *every*
/// mapping of both inputs (the shared certain variables). Compatible
/// mappings agree on every shared variable, so two mappings in different
/// partitions are never compatible and the partition is exact; within a
/// partition the full compatibility check still runs, so heterogeneous
/// domains are handled. Inputs that share no certain variable fall back to
/// the pairwise scan.
///
/// The operators are serial and know nothing about threads: every row they
/// emit is inserted at once. A set charges the rows it inserts to the
/// ResourceAccountant in batches: one report per kAccountingBatch rows, and
/// one from every operator (and evaluator producer) before it returns its
/// result, while its inputs are still alive. The accountant's figures are
/// thus exact at every operator boundary and lag by fewer than
/// kAccountingBatch rows per set being filled, and a memory cap trips
/// mid-kernel, whatever the query's thread count. (Intra-query parallelism
/// lives one level up, in the evaluator's concurrent subtrees.)
class MappingSet {
 public:
  /// Rows a set inserts between two reports to its accountant.
  static constexpr uint64_t kAccountingBatch = 64;

  MappingSet() = default;
  ~MappingSet() { DetachAccounting(); }

  /// Copies charge all their mappings, in one report, to the accountant
  /// installed at copy time; moves carry the source's accounting along,
  /// rows not yet reported included (and leave the source empty and
  /// unaccounted).
  MappingSet(const MappingSet& other);
  MappingSet& operator=(const MappingSet& other);
  MappingSet(MappingSet&& other) noexcept;
  MappingSet& operator=(MappingSet&& other) noexcept;

  /// Builds from a list (duplicates collapse).
  static MappingSet FromList(const std::vector<Mapping>& mappings);

  /// Adds µ; returns true if it was new.
  bool Add(const Mapping& m);
  /// Adds µ by moving it in (left untouched if it is a duplicate).
  bool Add(Mapping&& m);

  bool Contains(const Mapping& m) const;

  /// Makes room for `n` mappings, so that many inserts neither move the
  /// stored mappings nor rebuild the index.
  void Reserve(size_t n);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  const std::vector<Mapping>& mappings() const { return items_; }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  /// Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ∼ µ2 }. Builds a table
  /// on the smaller side and probes it with the larger one; counts one
  /// join probe per bucket candidate.
  static MappingSet Join(const MappingSet& a, const MappingSet& b);

  /// Reference nested-loop join (baseline for the join ablation bench).
  static MappingSet JoinNestedLoop(const MappingSet& a, const MappingSet& b);

  /// Ω1 ∪ Ω2.
  static MappingSet UnionSets(const MappingSet& a, const MappingSet& b);

  /// Ω1 ∖ Ω2 = { µ ∈ Ω1 | ∀ µ' ∈ Ω2 : µ ≁ µ' }: a hash anti-join of Ω1
  /// against a table on Ω2. Survivors keep Ω1's order; each Ω1 row counts
  /// the bucket candidates it examined, up to its first compatible one.
  static MappingSet Minus(const MappingSet& a, const MappingSet& b);

  /// Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), in one probe pass over Ω1 against a
  /// table on Ω2: each Ω1 row emits its unions with its compatible
  /// partners, or itself when it has none. Output is left-major (Ω1's
  /// order, partners in Ω2's order within a row); each Ω1 row counts the
  /// bucket candidates it examined, and a row with an empty bucket counts
  /// none.
  static MappingSet LeftOuterJoin(const MappingSet& a, const MappingSet& b);

  /// Ω1 ⊑ Ω2: every µ1 ∈ Ω1 is subsumed by some µ2 ∈ Ω2.
  static bool Subsumed(const MappingSet& a, const MappingSet& b);

  /// Set equality.
  friend bool operator==(const MappingSet& a, const MappingSet& b);
  friend bool operator!=(const MappingSet& a, const MappingSet& b) {
    return !(a == b);
  }

  /// Renders the mappings, one per line, sorted for stability.
  std::string ToString(const Dictionary& dict) const;

  /// Approximate resident bytes of the mappings — the sum of the same
  /// per-mapping estimate the ResourceAccountant charges. Feeds the query
  /// cache's result byte budgets.
  size_t ApproxBytes() const;

  /// Reports the rows inserted since the last report to the accountant.
  /// Every function that returns a set it built calls this first, so the
  /// accountant sees the whole set while the function's inputs are alive.
  void FlushAccounting() {
    if (pending_mappings_ != 0) ChargePending();
  }

  /// Reports any pending rows, returns this set's memory to its accountant
  /// (if any) and stops reporting. The evaluator detaches a query's result
  /// set before handing it out, so per-query peaks cover intermediates plus
  /// the result but the escaping set never holds a pointer to a dead
  /// accountant.
  void DetachAccounting();

 private:
  /// Counts `mappings` freshly inserted mappings of `bytes` in all, and
  /// reports once kAccountingBatch rows are pending. Latches (accountant,
  /// epoch) on first use.
  void AccountAdd(uint64_t mappings, uint64_t bytes) {
    if (acct_ == nullptr) {
      ResourceAccountant* cur = ResourceAccountant::Current();
      if (cur == nullptr) [[likely]] {
        return;
      }
      acct_ = cur;
      acct_epoch_ = cur->epoch();
    }
    pending_mappings_ += mappings;
    pending_bytes_ += bytes;
    if (pending_mappings_ >= kAccountingBatch) ChargePending();
  }
  /// Charges the pending rows in one OnAdd. A latched set whose accountant
  /// was Reset since goes silent rather than corrupting the new epoch's
  /// live counts.
  void ChargePending();
  /// Charges a freshly copied set in full, in one report.
  void ChargeCopy();
  /// Drops the accountant and every count, reporting nothing.
  void ForgetAccounting();

  /// The index slot holding a mapping equal to `m` (whose index hash is
  /// `hash`), or else the empty slot where `m` would go. Requires a
  /// non-empty index with at least one empty slot.
  size_t FindSlot(const Mapping& m, uint32_t hash) const;
  /// Both Add overloads: stores `m` unless an equal mapping is already
  /// stored, and returns whether it did; a rejected rvalue is untouched.
  template <typename M>
  bool Insert(M&& m);
  /// Rebuilds the index with room for `n` mappings at the load bound.
  void Rehash(size_t n);

  /// The mappings, each stored once, in insertion order.
  std::vector<Mapping> items_;
  /// Open-addressing (linear probing) dedup index over `items_`, sized to a
  /// power of two. A slot is 0 when empty, else (hash << 32) | (position +
  /// 1), where hash is the low 32 bits of Mapping::Hash: comparing it
  /// filters almost every non-equal mapping before the binding compare, and
  /// growing the index never rehashes a mapping.
  std::vector<uint64_t> index_;

  ResourceAccountant* acct_ = nullptr;
  uint64_t acct_epoch_ = 0;
  /// What the accountant has been charged for this set.
  uint64_t acct_mappings_ = 0;
  uint64_t acct_bytes_ = 0;
  /// Inserted since the last report.
  uint64_t pending_mappings_ = 0;
  uint64_t pending_bytes_ = 0;
};

}  // namespace rdfql

#endif  // RDFQL_ALGEBRA_MAPPING_SET_H_
