#include "eval/ns.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <vector>

#include "obs/accounting.h"
#include "obs/tracer.h"
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

// Marks the mappings of `bucket` (domain `dom`) that appear as a
// projection of some mapping in a strictly-larger bucket; returns the pair
// count charged to this bucket.
uint64_t MarkSubsumedInBucket(
    const std::vector<VarId>& dom, const std::vector<const Mapping*>& bucket,
    const std::map<std::vector<VarId>, std::vector<const Mapping*>>& buckets,
    std::unordered_set<const Mapping*>* dead) {
  uint64_t pairs = 0;
  for (const auto& [sup_dom, sup_bucket] : buckets) {
    if (!CooperativeCheckpoint()) break;
    if (sup_dom.size() <= dom.size()) continue;
    if (!std::includes(sup_dom.begin(), sup_dom.end(), dom.begin(),
                       dom.end())) {
      continue;
    }
    std::unordered_set<Mapping, MappingHash> projections;
    projections.reserve(sup_bucket.size());
    uint64_t scratch_bytes = 0;
    for (const Mapping* sup : sup_bucket) {
      auto [it, inserted] = projections.insert(sup->RestrictTo(dom));
      if (inserted) scratch_bytes += it->ApproxBytes();
    }
    // The projection set is the kernel's dominant transient allocation;
    // report it so per-query peaks reflect NS pruning, not just operator
    // inputs/outputs.
    ResourceAccountant* acct = ResourceAccountant::Current();
    if (acct != nullptr) acct->OnAdd(projections.size(), scratch_bytes);
    pairs += sup_bucket.size() + bucket.size();
    for (const Mapping* m : bucket) {
      if (dead->count(m)) continue;
      if (projections.count(*m)) dead->insert(m);
    }
    if (acct != nullptr) acct->OnRemove(projections.size(), scratch_bytes);
  }
  return pairs;
}

}  // namespace

MappingSet RemoveSubsumedBucketed(const MappingSet& input) {
  // Bucket by domain.
  std::map<std::vector<VarId>, std::vector<const Mapping*>> buckets;
  for (const Mapping& m : input) {
    buckets[m.Domain()].push_back(&m);
  }

  // For each pair D ⊊ D', mark the mappings of bucket D that appear as a
  // projection of some mapping in bucket D'; the final filter walks the
  // input in its original order.
  uint64_t pairs = 0;
  std::unordered_set<const Mapping*> dead;
  for (const auto& [dom, bucket] : buckets) {
    pairs += MarkSubsumedInBucket(dom, bucket, buckets, &dead);
  }
  if (OpCounters* oc = ScopedOpCounters::Current()) {
    oc->ns_pairs_compared += pairs;
  }

  MappingSet out;
  for (const Mapping& m : input) {
    if (!dead.count(&m)) out.Add(m);
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
