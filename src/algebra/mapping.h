#ifndef RDFQL_ALGEBRA_MAPPING_H_
#define RDFQL_ALGEBRA_MAPPING_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace rdfql {

/// A mapping µ: a partial function from variables V to IRIs I (Section 2.1).
///
/// Stored as a vector of (VarId, TermId) bindings sorted by VarId, so
/// compatibility, union and subsumption are linear merge walks and equal
/// mappings have equal representations (hashable).
class Mapping {
 public:
  /// The empty mapping µ∅ (dom(µ) = ∅).
  Mapping() = default;

  /// Builds from unordered bindings; later duplicates of a variable must
  /// agree with earlier ones (checked).
  static Mapping FromBindings(std::vector<std::pair<VarId, TermId>> bindings);

  /// Adds or overwrites the binding ?v → t.
  void Set(VarId v, TermId t);

  /// The bound value of ?v, if any.
  std::optional<TermId> Get(VarId v) const;

  bool Binds(VarId v) const { return Get(v).has_value(); }

  /// |dom(µ)|.
  size_t size() const { return bindings_.size(); }
  bool empty() const { return bindings_.empty(); }

  /// dom(µ) as a sorted VarId list.
  std::vector<VarId> Domain() const;

  /// Sorted (VarId, TermId) pairs.
  const std::vector<std::pair<VarId, TermId>>& bindings() const {
    return bindings_;
  }

  /// µ1 ∼ µ2: agree on every shared variable.
  bool CompatibleWith(const Mapping& other) const;

  /// µ1 ∪ µ2; requires CompatibleWith(other).
  Mapping UnionWith(const Mapping& other) const;

  /// µ1 ⪯ µ2: dom(µ1) ⊆ dom(µ2) and they agree on dom(µ1).
  bool SubsumedBy(const Mapping& other) const;

  /// µ1 ≺ µ2: subsumed and not equal.
  bool ProperlySubsumedBy(const Mapping& other) const {
    return size() < other.size() && SubsumedBy(other);
  }

  /// µ|V — restriction to the (sorted or unsorted) variable list V.
  Mapping RestrictTo(const std::vector<VarId>& vars) const;

  /// Fixed per-mapping overhead the resource accountant charges on top of
  /// the binding payload: the mapping's slot in its set's list, its
  /// binding vector's heap block header and its share of the set's dedup
  /// index. A set stores each mapping once, so this over-counts a little;
  /// the figure is kept so byte caps and the cache budget mean what they
  /// always have.
  static constexpr size_t kApproxFixedBytes = 64;

  /// Approximate footprint as the accountant counts it. Deliberately a
  /// simple closed formula — fixed overhead plus 8 bytes per binding — so
  /// tests can hand-compute expected byte totals exactly.
  size_t ApproxBytes() const {
    return kApproxFixedBytes + bindings_.size() * sizeof(bindings_[0]);
  }

  /// Renders as `[?x -> a, ?y -> b]`.
  std::string ToString(const Dictionary& dict) const;

  size_t Hash() const;

  friend bool operator==(const Mapping& a, const Mapping& b) {
    return a.bindings_ == b.bindings_;
  }
  friend bool operator!=(const Mapping& a, const Mapping& b) {
    return !(a == b);
  }
  /// Arbitrary total order (for deterministic sorting of result sets).
  friend bool operator<(const Mapping& a, const Mapping& b) {
    return a.bindings_ < b.bindings_;
  }

 private:
  std::vector<std::pair<VarId, TermId>> bindings_;
};

struct MappingHash {
  size_t operator()(const Mapping& m) const { return m.Hash(); }
};

}  // namespace rdfql

#endif  // RDFQL_ALGEBRA_MAPPING_H_
