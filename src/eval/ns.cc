#include "eval/ns.h"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "obs/accounting.h"
#include "obs/tracer.h"
#include "util/check.h"
#include "util/limits.h"

namespace rdfql {

MappingSet RemoveSubsumedNaive(const MappingSet& input) {
  MappingSet out;
  uint64_t pairs = 0;
  uint64_t visited = 0;
  for (const Mapping& m : input) {
    // The n² scan is the NS kernel's unbounded loop; poll the query's
    // token every few outer rows so a deadline stops it promptly.
    if ((++visited & 1023u) == 0 && !CooperativeCheckpoint()) break;
    bool subsumed = false;
    for (const Mapping& other : input) {
      ++pairs;
      if (m.ProperlySubsumedBy(other)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) out.Add(m);
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->ns_pairs_compared += pairs;
  }
  return out;
}

namespace {

using Binding = Mapping::Binding;

// Hash of dom(µ) (the variables, not their values).
uint64_t DomainHash(const Mapping& m) {
  uint64_t h = 0x51ed270b76435a81ULL;
  for (const auto& [v, t] : m.bindings()) h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  return h;
}

bool SameDomain(const Mapping& a, const Mapping& b) {
  return std::equal(
      a.bindings().begin(), a.bindings().end(), b.bindings().begin(),
      b.bindings().end(),
      [](const Binding& x, const Binding& y) { return x.first == y.first; });
}

// dom(a) ⊊ dom(b).
bool ProperSubDomain(const Mapping& a, const Mapping& b) {
  if (a.size() >= b.size()) return false;
  std::span<const Binding> sup = b.bindings();
  size_t j = 0;
  for (const auto& [v, t] : a.bindings()) {
    while (j < sup.size() && sup[j].first < v) ++j;
    if (j == sup.size() || sup[j].first != v) return false;
    ++j;
  }
  return true;
}

// The rows of one domain: positions order[begin, begin + size) of the
// input, ascending; `rep` is the first of them.
struct Bucket {
  uint64_t domain_hash;
  uint32_t rep;
  uint32_t size;
  uint32_t begin;
};

// Groups the rows by domain. Returns the buckets (in order of first
// appearance) and fills `order` with the row positions, bucket by bucket.
std::vector<Bucket> GroupByDomain(const std::vector<Mapping>& rows,
                                  std::vector<uint32_t>* order) {
  std::vector<Bucket> buckets;
  std::vector<uint32_t> bucket_of(rows.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    uint64_t h = DomainHash(rows[i]);
    // Rows of one domain tend to come in runs: try the last bucket first,
    // then search them all (the pair loop below is quadratic in the number
    // of buckets anyway).
    size_t b = i == 0 ? 0 : bucket_of[i - 1];
    auto fits = [&](size_t k) {
      return buckets[k].domain_hash == h &&
             SameDomain(rows[buckets[k].rep], rows[i]);
    };
    if (buckets.empty() || !fits(b)) {
      b = 0;
      while (b < buckets.size() && !fits(b)) ++b;
      if (b == buckets.size()) buckets.push_back({h, i, 0, 0});
    }
    bucket_of[i] = static_cast<uint32_t>(b);
    ++buckets[b].size;
  }
  uint32_t begin = 0;
  for (Bucket& bucket : buckets) {
    bucket.begin = begin;
    begin += bucket.size;
  }
  // Counting sort, stable: each bucket's positions stay ascending.
  order->resize(rows.size());
  std::vector<uint32_t> next(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) next[b] = buckets[b].begin;
  for (uint32_t i = 0; i < rows.size(); ++i) (*order)[next[bucket_of[i]]++] = i;
  return buckets;
}

// Open-addressing (linear probing) table over the distinct projections
// µ'|D of one bucket's rows, D the sorted domain of a smaller bucket. A
// slot is 0 when empty, else (key hash << 32) | (position + 1) of a row
// carrying that projection, the key hash being Mapping::KeyHash folded to
// 32 bits. Kept at most half full, and reused across bucket pairs.
class ProjectionTable {
 public:
  // Fills the table from the rows at `positions`, keyed on `key`.
  // Returns the number of distinct projections.
  size_t Build(const std::vector<Mapping>& rows,
               std::span<const uint32_t> positions,
               std::span<const VarId> key) {
    slots_.assign(std::bit_ceil(std::max<size_t>(2 * positions.size(), 16)),
                  0);
    mask_ = slots_.size() - 1;
    size_t distinct = 0;
    for (uint32_t pos : positions) {
      uint32_t h = Fold(rows[pos].KeyHash(key));
      size_t slot = h & mask_;
      bool seen = false;
      for (; slots_[slot] != 0; slot = (slot + 1) & mask_) {
        if (static_cast<uint32_t>(slots_[slot] >> 32) == h &&
            rows[Position(slots_[slot])].SameKey(rows[pos], key)) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      slots_[slot] = (static_cast<uint64_t>(h) << 32) | (pos + 1);
      ++distinct;
    }
    return distinct;
  }

  // Whether `m`, whose domain is `key`, equals some stored projection,
  // i.e. is subsumed by one of the table's rows.
  bool Contains(const std::vector<Mapping>& rows, const Mapping& m,
                std::span<const VarId> key) const {
    uint32_t h = Fold(m.KeyHash(key));
    for (size_t slot = h & mask_; slots_[slot] != 0;
         slot = (slot + 1) & mask_) {
      if (static_cast<uint32_t>(slots_[slot] >> 32) == h &&
          m.SameKey(rows[Position(slots_[slot])], key)) {
        return true;
      }
    }
    return false;
  }

 private:
  static uint32_t Fold(uint64_t h) {
    return static_cast<uint32_t>(h ^ (h >> 32));
  }
  static uint32_t Position(uint64_t slot) {
    return static_cast<uint32_t>(slot) - 1;
  }

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
};

}  // namespace

MappingSet RemoveSubsumedBucketed(const MappingSet& input) {
  const std::vector<Mapping>& rows = input.mappings();
  RDFQL_CHECK_MSG(rows.size() < (size_t{1} << 32), "NS input too large");
  std::vector<uint32_t> order;
  const std::vector<Bucket> buckets = GroupByDomain(rows, &order);
  auto positions = [&order](const Bucket& b) {
    return std::span<const uint32_t>(order).subspan(b.begin, b.size);
  };

  // For each pair D ⊊ D', mark the rows of bucket D that equal a projection
  // of some row of bucket D' onto D; the final filter walks the input in
  // its original order.
  std::vector<bool> dead(rows.size());
  size_t dead_count = 0;
  uint64_t pairs = 0;
  ProjectionTable table;
  ResourceAccountant* acct = ResourceAccountant::Current();
  for (const Bucket& sub : buckets) {
    const Mapping& rep = rows[sub.rep];
    std::vector<VarId> key;  // dom(rep), built for its first pair
    for (const Bucket& sup : buckets) {
      if (!ProperSubDomain(rep, rows[sup.rep])) continue;
      if (!CooperativeCheckpoint()) break;
      if (key.empty()) key = rep.Domain();
      size_t distinct = table.Build(rows, positions(sup), key);
      // The table stands for the bucket's distinct projections, the
      // kernel's dominant transient; charge it as those mappings, so
      // per-query peaks reflect NS pruning, not just operator
      // inputs/outputs.
      const uint64_t bytes = distinct * Mapping::ApproxBytesFor(key.size());
      if (acct != nullptr) acct->OnAdd(distinct, bytes);
      pairs += sup.size + sub.size;
      for (uint32_t pos : positions(sub)) {
        if (dead[pos] || !table.Contains(rows, rows[pos], key)) continue;
        dead[pos] = true;
        ++dead_count;
      }
      if (acct != nullptr) acct->OnRemove(distinct, bytes);
    }
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->ns_pairs_compared += pairs;
  }

  MappingSet out;
  out.Reserve(rows.size() - dead_count);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!dead[i]) out.Add(rows[i]);
  }
  return out;
}

bool IsSubsumptionFree(const MappingSet& input) {
  for (const Mapping& m : input) {
    for (const Mapping& other : input) {
      if (m.ProperlySubsumedBy(other)) return false;
    }
  }
  return true;
}

}  // namespace rdfql
