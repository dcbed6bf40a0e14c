#ifndef RDFQL_ALGEBRA_MAPPING_H_
#define RDFQL_ALGEBRA_MAPPING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/check.h"

namespace rdfql {

/// A mapping µ: a partial function from variables V to IRIs I (Section 2.1).
///
/// Stored as (VarId, TermId) bindings sorted by VarId, so compatibility,
/// union and subsumption are linear merge walks and equal mappings have
/// equal representations (hashable). Up to kInlineBindings bindings live in
/// the mapping itself; a larger domain spills them to one heap block. The
/// spill is invisible to every operation: it changes where the bindings
/// sit, never what ==, <, Hash or ApproxBytes say.
class Mapping {
 public:
  using Binding = std::pair<VarId, TermId>;

  /// Bindings stored without a heap block.
  static constexpr size_t kInlineBindings = 4;

  /// The empty mapping µ∅ (dom(µ) = ∅).
  Mapping() {}
  Mapping(const Mapping& other) { CopyFrom(other.data(), other.size_); }
  Mapping(Mapping&& other) noexcept { StealFrom(other); }
  Mapping& operator=(const Mapping& other);
  Mapping& operator=(Mapping&& other) noexcept;
  ~Mapping() { Release(); }

  /// Builds from unordered bindings; later duplicates of a variable must
  /// agree with earlier ones (checked).
  static Mapping FromBindings(std::vector<Binding> bindings);

  /// Adds or overwrites the binding ?v → t.
  void Set(VarId v, TermId t);

  /// Adds ?v → t where v is above every variable bound so far (checked):
  /// building a mapping in variable order costs no search and no shift.
  void Append(VarId v, TermId t) {
    RDFQL_CHECK_MSG(size_ == 0 || data()[size_ - 1].first < v,
                    "Append out of variable order");
    // Geometric growth past the inline room keeps a run of appends
    // amortized O(1).
    if (size_ == capacity_) Reserve(2 * size_t{capacity_});
    std::construct_at(data() + size_, v, t);
    ++size_;
  }

  /// The bound value of ?v, if any.
  std::optional<TermId> Get(VarId v) const;

  bool Binds(VarId v) const { return Get(v).has_value(); }

  /// |dom(µ)|.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// dom(µ) as a sorted VarId list.
  std::vector<VarId> Domain() const;

  /// Sorted (VarId, TermId) pairs; valid until the mapping changes.
  std::span<const Binding> bindings() const { return {data(), size_}; }

  /// µ1 ∼ µ2: agree on every shared variable.
  bool CompatibleWith(const Mapping& other) const;

  /// µ1 ∪ µ2; requires CompatibleWith(other). The result holds exactly
  /// |dom(µ1) ∪ dom(µ2)| bindings' room, so it spills only if that union
  /// does.
  Mapping UnionWith(const Mapping& other) const;

  /// µ1 ⪯ µ2: dom(µ1) ⊆ dom(µ2) and they agree on dom(µ1).
  bool SubsumedBy(const Mapping& other) const;

  /// µ1 ≺ µ2: subsumed and not equal.
  bool ProperlySubsumedBy(const Mapping& other) const {
    return size() < other.size() && SubsumedBy(other);
  }

  /// µ|V — restriction to the (sorted or unsorted) variable list V.
  Mapping RestrictTo(const std::vector<VarId>& vars) const;

  /// Hash of µ|V for a sorted V ⊆ dom(µ), without building µ|V: the key
  /// the hash kernels (⋈, ∖, ⟕ and NS pruning) group rows on.
  uint64_t KeyHash(std::span<const VarId> vars) const {
    const Binding* b = data();
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (VarId v : vars) {
      while (b->first < v) ++b;
      h = (h ^ b->second) * 0x9e3779b97f4a7c15ULL;
    }
    return h;
  }

  /// µ1|V == µ2|V for a sorted V ⊆ dom(µ1) ∩ dom(µ2).
  bool SameKey(const Mapping& other, std::span<const VarId> vars) const;

  /// Fixed per-mapping overhead the resource accountant charges on top of
  /// the binding payload. It stood for the mapping's slot in its set's
  /// list, its binding vector's heap block header and its share of the
  /// set's dedup index; bindings now live inline up to kInlineBindings, so
  /// most mappings have no heap block at all. The figure is kept so that
  /// byte caps and the cache budget mean what they always have.
  static constexpr size_t kApproxFixedBytes = 64;

  /// Approximate footprint as the accountant counts it for a mapping of
  /// `bindings` bindings. Deliberately a simple closed formula — fixed
  /// overhead plus 8 bytes per binding — so tests can hand-compute
  /// expected byte totals exactly.
  static constexpr size_t ApproxBytesFor(size_t bindings) {
    return kApproxFixedBytes + bindings * sizeof(Binding);
  }
  size_t ApproxBytes() const { return ApproxBytesFor(size_); }

  /// Renders as `[?x -> a, ?y -> b]`.
  std::string ToString(const Dictionary& dict) const;

  size_t Hash() const {
    uint64_t h = 0x51ed270b76435a81ULL;
    for (const auto& [v, t] : bindings()) {
      h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
      h = (h ^ t) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }

  friend bool operator==(const Mapping& a, const Mapping& b);
  friend bool operator!=(const Mapping& a, const Mapping& b) {
    return !(a == b);
  }
  /// Arbitrary total order (for deterministic sorting of result sets):
  /// lexicographic over the sorted bindings.
  friend bool operator<(const Mapping& a, const Mapping& b);

 private:
  bool spilled() const { return capacity_ > kInlineBindings; }
  Binding* data() { return spilled() ? heap_ : inline_; }
  const Binding* data() const { return spilled() ? heap_ : inline_; }

  /// Makes room for `n` bindings, keeping the current ones; spills to a
  /// heap block of exactly `n` when `n` exceeds the inline room.
  void Reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void Grow(size_t n);
  /// Frees the heap block, if any, and leaves the mapping empty and inline.
  void Release() {
    if (spilled()) FreeHeap();
    capacity_ = kInlineBindings;
    size_ = 0;
  }
  void FreeHeap();
  /// Replaces the (empty) contents with a copy of `n` bindings at `src`.
  void CopyFrom(const Binding* src, size_t n) {
    Reserve(n);
    std::uninitialized_copy_n(src, n, data());
    size_ = static_cast<uint32_t>(n);
  }
  /// Takes `other`'s bindings (its heap block, if it spilled) and leaves it
  /// empty; `this` must be empty and inline.
  void StealFrom(Mapping& other) {
    if (other.spilled()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = kInlineBindings;
    } else {
      CopyFrom(other.inline_, other.size_);
    }
    other.size_ = 0;
  }

  uint32_t size_ = 0;
  /// kInlineBindings while inline, else the heap block's length.
  uint32_t capacity_ = kInlineBindings;
  /// Binding slots [size_, capacity_) hold no object; writes construct.
  union {
    Binding inline_[kInlineBindings];
    Binding* heap_;
  };
};

struct MappingHash {
  size_t operator()(const Mapping& m) const { return m.Hash(); }
};

}  // namespace rdfql

#endif  // RDFQL_ALGEBRA_MAPPING_H_
