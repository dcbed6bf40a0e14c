#include "algebra/mapping_set.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/tracer.h"
#include "util/check.h"
#include "util/limits.h"

namespace rdfql {
namespace {

// How many units of work (a probe-side row, or one candidate it examines)
// a kernel runs between cooperative checkpoints. Power of two so the
// per-candidate tests compile to a mask; small enough that a tripped token
// stops a quadratic scan promptly, large enough that the ungoverned cost (a
// relaxed load) vanishes in the loop body.
constexpr uint64_t kCheckpointStride = 1024;

// Whether a scan that has examined `visited` candidates for one probe row
// may go on: polls the token every kCheckpointStride candidates, so a row
// facing a huge bucket (or all of Ω2, on the pairwise path) stops promptly.
bool KeepScanning(uint64_t visited) {
  return (visited & (kCheckpointStride - 1)) != 0 || CooperativeCheckpoint();
}

// The variables bound in every mapping of both non-empty inputs, sorted.
// One pass over each side and one allocation: the running intersection,
// seeded with dom(µ) of b's first mapping, is filtered in place against each
// mapping's sorted bindings.
std::vector<VarId> SharedCertainVars(const MappingSet& a,
                                     const MappingSet& b) {
  std::vector<VarId> vars = b.mappings().front().Domain();
  for (const MappingSet* side : {&b, &a}) {
    for (const Mapping& m : *side) {
      if (vars.empty()) return vars;
      const auto& bindings = m.bindings();
      size_t j = 0;
      size_t kept = 0;
      for (VarId v : vars) {
        while (j < bindings.size() && bindings[j].first < v) ++j;
        if (j < bindings.size() && bindings[j].first == v) vars[kept++] = v;
      }
      vars.resize(kept);
    }
  }
  return vars;
}

// Hash table over one side of a binary operator, keyed on each mapping's
// restriction to the shared certain variables. Rows of one bucket sit
// contiguously in build order, so the whole table is two flat arrays
// however many rows or distinct keys there are.
class KeyTable {
 public:
  KeyTable(const MappingSet& build, std::vector<VarId> vars)
      : vars_(std::move(vars)) {
    const std::vector<Mapping>& rows = build.mappings();
    RDFQL_CHECK_MSG(rows.size() < (size_t{1} << 32), "join input too large");
    // At least two buckets, so the shift below stays under 64.
    size_t buckets = std::bit_ceil(std::max<size_t>(rows.size(), 2));
    shift_ = 64 - std::countr_zero(buckets);
    std::vector<uint64_t> hashes(rows.size());
    offsets_.assign(buckets + 1, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      hashes[i] = rows[i].KeyHash(vars_);
      ++offsets_[Bucket(hashes[i]) + 1];
    }
    for (size_t b = 0; b < buckets; ++b) offsets_[b + 1] += offsets_[b];
    // Stable counting sort: `next` is each bucket's fill cursor.
    std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
    entries_.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      entries_[next[Bucket(hashes[i])]++] = {hashes[i], &rows[i]};
    }
  }

  // Calls fn(row) for each build row whose key hashes like `probe`'s, in
  // build order, until fn returns false (or the query is cancelled).
  // Returns the number of rows it was called on — the join probes.
  template <typename Fn>
  uint64_t ForEachCandidate(const Mapping& probe, Fn&& fn) const {
    uint64_t h = probe.KeyHash(vars_);
    size_t bucket = Bucket(h);
    uint64_t visited = 0;
    for (uint32_t i = offsets_[bucket]; i < offsets_[bucket + 1]; ++i) {
      if (entries_[i].hash != h) continue;
      ++visited;
      if (!fn(*entries_[i].row) || !KeepScanning(visited)) break;
    }
    return visited;
  }

 private:
  struct Entry {
    uint64_t hash;
    const Mapping* row;
  };

  // The top bits of the multiplicative key hash are its best mixed.
  size_t Bucket(uint64_t hash) const { return hash >> shift_; }

  std::vector<VarId> vars_;
  int shift_ = 0;
  // Bucket b's rows are entries_[offsets_[b], offsets_[b + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
};

// The candidates when the inputs share no certain variable: every row.
struct AllRows {
  const MappingSet& rows;

  template <typename Fn>
  uint64_t ForEachCandidate(const Mapping& /*probe*/, Fn&& fn) const {
    uint64_t visited = 0;
    for (const Mapping& row : rows) {
      ++visited;
      if (!fn(row) || !KeepScanning(visited)) break;
    }
    return visited;
  }
};

// The one probe loop behind ⋈, ∖ and ⟕: runs `probe_row(row, emit)` for
// every row of `rows`, in order, where `emit` takes a Mapping (by const
// reference to copy it, by rvalue to move it) and `probe_row` returns the
// join probes the row cost; the sum lands in the node's OpCounters. Every
// emitted row goes straight into the result, which charges the accountant
// every MappingSet::kAccountingBatch rows and once more before it is
// returned, and the loop polls for cancellation every kCheckpointStride
// rows or probes. The result starts with room for `reserve` rows, a size
// the caller knows it reaches.
template <typename ProbeRow>
MappingSet ProbeRows(const MappingSet& rows, size_t reserve,
                     ProbeRow&& probe_row) {
  MappingSet out;
  out.Reserve(reserve);
  auto emit = [&out](auto&& m) { out.Add(std::forward<decltype(m)>(m)); };
  uint64_t probes = 0;
  uint64_t work = 0;
  uint64_t next_poll = kCheckpointStride;
  for (const Mapping& row : rows) {
    if (++work >= next_poll) {
      if (!CooperativeCheckpoint()) break;
      next_poll = work + kCheckpointStride;
    }
    uint64_t row_probes = probe_row(row, emit);
    probes += row_probes;
    work += row_probes;
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) oc->join_probes += probes;
  out.FlushAccounting();
  return out;
}

// ∖ and ⟕: runs `probe_row(row, candidates, emit)` for every row of
// non-empty `a` through ProbeRows, where `candidates` is a KeyTable on
// non-empty `b` over the shared certain variables, or every row of `b` when
// there are none.
template <typename ProbeRow>
MappingSet ProbeAgainst(const MappingSet& a, const MappingSet& b,
                        size_t reserve, ProbeRow&& probe_row) {
  auto run = [&](const auto& candidates) {
    return ProbeRows(a, reserve, [&](const Mapping& row, auto& emit) {
      return probe_row(row, candidates, emit);
    });
  };
  std::vector<VarId> shared = SharedCertainVars(a, b);
  if (shared.empty()) return run(AllRows{b});
  return run(KeyTable(b, std::move(shared)));
}

// Index slots hold (hash << 32) | (position + 1); 0 marks an empty slot.
constexpr uint64_t kEmptySlot = 0;

uint32_t IndexHash(const Mapping& m) { return static_cast<uint32_t>(m.Hash()); }

// The index is kept at most 3/4 full, so linear probes stay short and
// every probe sequence ends at an empty slot.
bool IndexFits(size_t n, size_t capacity) { return n * 4 <= capacity * 3; }

size_t IndexCapacityFor(size_t n) {
  size_t capacity = 16;
  while (!IndexFits(n, capacity)) capacity *= 2;
  return capacity;
}

}  // namespace

MappingSet MappingSet::FromList(const std::vector<Mapping>& mappings) {
  MappingSet out;
  out.Reserve(mappings.size());
  for (const Mapping& m : mappings) out.Add(m);
  out.FlushAccounting();
  return out;
}

size_t MappingSet::FindSlot(const Mapping& m, uint32_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    uint64_t entry = index_[slot];
    if (entry == kEmptySlot) return slot;
    if (static_cast<uint32_t>(entry >> 32) == hash &&
        items_[static_cast<uint32_t>(entry) - 1] == m) {
      return slot;
    }
  }
}

void MappingSet::Rehash(size_t n) {
  size_t capacity = IndexCapacityFor(n);
  // Positions are stored in 32 bits, and placement uses the 32-bit hash.
  RDFQL_CHECK_MSG(capacity <= (size_t{1} << 32), "mapping set too large");
  std::vector<uint64_t> old = std::move(index_);
  index_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (uint64_t entry : old) {
    if (entry == kEmptySlot) continue;
    size_t slot = (entry >> 32) & mask;
    while (index_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    index_[slot] = entry;
  }
}

void MappingSet::Reserve(size_t n) {
  items_.reserve(n);
  if (!IndexFits(n, index_.size())) Rehash(n);
}

template <typename M>
bool MappingSet::Insert(M&& m) {
  if (!IndexFits(items_.size() + 1, index_.size())) Rehash(items_.size() + 1);
  uint32_t hash = IndexHash(m);
  size_t slot = FindSlot(m, hash);
  if (index_[slot] != kEmptySlot) return false;
  items_.push_back(std::forward<M>(m));
  index_[slot] = (static_cast<uint64_t>(hash) << 32) | items_.size();
  AccountAdd(1, items_.back().ApproxBytes());
  return true;
}

bool MappingSet::Add(const Mapping& m) { return Insert(m); }

bool MappingSet::Add(Mapping&& m) { return Insert(std::move(m)); }

bool MappingSet::Contains(const Mapping& m) const {
  if (index_.empty()) return false;
  return index_[FindSlot(m, IndexHash(m))] != kEmptySlot;
}

void MappingSet::ChargeCopy() {
  // A copy is a fresh allocation: charge it in full to whichever
  // accountant is installed *now* (e.g. UnionSets copying its left input
  // inside an accounted evaluation).
  if (items_.empty() || ResourceAccountant::Current() == nullptr) return;
  AccountAdd(items_.size(), ApproxBytes());
  FlushAccounting();
}

MappingSet::MappingSet(const MappingSet& other)
    : items_(other.items_), index_(other.index_) {
  ChargeCopy();
}

MappingSet& MappingSet::operator=(const MappingSet& other) {
  if (this == &other) return *this;
  DetachAccounting();
  items_ = other.items_;
  index_ = other.index_;
  ChargeCopy();
  return *this;
}

MappingSet::MappingSet(MappingSet&& other) noexcept
    : items_(std::move(other.items_)),
      index_(std::move(other.index_)),
      acct_(other.acct_),
      acct_epoch_(other.acct_epoch_),
      acct_mappings_(other.acct_mappings_),
      acct_bytes_(other.acct_bytes_),
      pending_mappings_(other.pending_mappings_),
      pending_bytes_(other.pending_bytes_) {
  other.items_.clear();
  other.index_.clear();
  other.ForgetAccounting();
}

MappingSet& MappingSet::operator=(MappingSet&& other) noexcept {
  if (this == &other) return *this;
  DetachAccounting();
  items_ = std::move(other.items_);
  index_ = std::move(other.index_);
  acct_ = other.acct_;
  acct_epoch_ = other.acct_epoch_;
  acct_mappings_ = other.acct_mappings_;
  acct_bytes_ = other.acct_bytes_;
  pending_mappings_ = other.pending_mappings_;
  pending_bytes_ = other.pending_bytes_;
  other.items_.clear();
  other.index_.clear();
  other.ForgetAccounting();
  return *this;
}

void MappingSet::ChargePending() {
  if (acct_->epoch() == acct_epoch_) {
    acct_->OnAdd(pending_mappings_, pending_bytes_);
    acct_mappings_ += pending_mappings_;
    acct_bytes_ += pending_bytes_;
  }
  pending_mappings_ = 0;
  pending_bytes_ = 0;
}

void MappingSet::DetachAccounting() {
  if (acct_ != nullptr && acct_->epoch() == acct_epoch_) {
    FlushAccounting();
    acct_->OnRemove(acct_mappings_, acct_bytes_);
  }
  ForgetAccounting();
}

void MappingSet::ForgetAccounting() {
  acct_ = nullptr;
  acct_mappings_ = 0;
  acct_bytes_ = 0;
  pending_mappings_ = 0;
  pending_bytes_ = 0;
}

MappingSet MappingSet::Join(const MappingSet& a, const MappingSet& b) {
  if (a.empty() || b.empty()) return MappingSet();
  std::vector<VarId> shared = SharedCertainVars(a, b);
  if (shared.empty()) return JoinNestedLoop(a, b);
  const bool a_builds = a.size() <= b.size();
  KeyTable table(a_builds ? a : b, std::move(shared));
  return ProbeRows(a_builds ? b : a, /*reserve=*/0,
                   [&table](const Mapping& row, auto& emit) {
                     return table.ForEachCandidate(
                         row, [&](const Mapping& other) {
                           if (row.CompatibleWith(other)) {
                             emit(row.UnionWith(other));
                           }
                           return true;
                         });
                   });
}

MappingSet MappingSet::JoinNestedLoop(const MappingSet& a,
                                      const MappingSet& b) {
  MappingSet out;
  uint64_t visited = 0;
  bool cancelled = false;
  for (const Mapping& m1 : a) {
    // Cross products make the *pair* the unit of work: striding on the
    // outer loop alone would let a handful of wide rows run unchecked
    // (and unaccounted) for seconds between polls.
    for (const Mapping& m2 : b) {
      if ((++visited & (kCheckpointStride - 1)) == 0 &&
          !CooperativeCheckpoint()) {
        cancelled = true;
        break;
      }
      if (m1.CompatibleWith(m2)) out.Add(m1.UnionWith(m2));
    }
    if (cancelled) break;
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->join_probes += static_cast<uint64_t>(a.size()) * b.size();
  }
  out.FlushAccounting();
  return out;
}

MappingSet MappingSet::UnionSets(const MappingSet& a, const MappingSet& b) {
  MappingSet out = a;
  for (const Mapping& m : b) out.Add(m);
  out.FlushAccounting();
  return out;
}

MappingSet MappingSet::Minus(const MappingSet& a, const MappingSet& b) {
  if (a.empty() || b.empty()) return a;
  return ProbeAgainst(
      a, b, /*reserve=*/0,
      [](const Mapping& row, const auto& candidates, auto& emit) {
        bool matched = false;
        uint64_t probes =
            candidates.ForEachCandidate(row, [&](const Mapping& other) {
              matched = row.CompatibleWith(other);
              return !matched;
            });
        if (!matched) emit(row);
        return probes;
      });
}

MappingSet MappingSet::LeftOuterJoin(const MappingSet& a,
                                     const MappingSet& b) {
  if (a.empty() || b.empty()) return a;
  // Every Ω1 row emits at least one row. When Ω1's rows share one domain
  // those rows are all distinct, so |Ω1| is a floor; rows of different
  // domains can extend to one and the same row, leaving room unused.
  return ProbeAgainst(
      a, b, /*reserve=*/a.size(),
      [](const Mapping& row, const auto& candidates, auto& emit) {
        bool matched = false;
        uint64_t probes =
            candidates.ForEachCandidate(row, [&](const Mapping& other) {
              if (row.CompatibleWith(other)) {
                emit(row.UnionWith(other));
                matched = true;
              }
              return true;
            });
        if (!matched) emit(row);
        return probes;
      });
}

bool MappingSet::Subsumed(const MappingSet& a, const MappingSet& b) {
  for (const Mapping& m1 : a) {
    bool found = false;
    for (const Mapping& m2 : b) {
      if (m1.SubsumedBy(m2)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool operator==(const MappingSet& a, const MappingSet& b) {
  if (a.size() != b.size()) return false;
  for (const Mapping& m : a) {
    if (!b.Contains(m)) return false;
  }
  return true;
}

std::string MappingSet::ToString(const Dictionary& dict) const {
  std::vector<Mapping> sorted = items_;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const Mapping& m : sorted) {
    out += m.ToString(dict);
    out += '\n';
  }
  return out;
}

size_t MappingSet::ApproxBytes() const {
  size_t bytes = 0;
  for (const Mapping& m : items_) bytes += m.ApproxBytes();
  return bytes;
}

}  // namespace rdfql
