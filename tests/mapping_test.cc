#include "algebra/mapping.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/random.h"

namespace rdfql {
namespace {

using Bindings = std::vector<std::pair<VarId, TermId>>;

Mapping Make(Bindings b) { return Mapping::FromBindings(std::move(b)); }

// Whether m's bindings sit inside the mapping object (not in a heap block).
bool IsInline(const Mapping& m) {
  auto at = reinterpret_cast<uintptr_t>(m.bindings().data());
  auto self = reinterpret_cast<uintptr_t>(&m);
  return at >= self && at < self + sizeof(Mapping);
}

// The sorted bindings of m, as the reference representation.
Bindings AsVector(const Mapping& m) {
  return Bindings(m.bindings().begin(), m.bindings().end());
}

// ?1 → 10, ?2 → 20, ..., ?n → 10n: n bindings, in variable order.
Bindings Sequential(int n) {
  Bindings b;
  for (int i = 1; i <= n; ++i) {
    b.emplace_back(static_cast<VarId>(i), static_cast<TermId>(10 * i));
  }
  return b;
}

// The mapping sizes that cover the inline/spill boundary (4 inline).
constexpr int kSizes[] = {0, 1, 4, 5, 9};

TEST(MappingTest, EmptyMapping) {
  Mapping m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.Binds(0));
}

TEST(MappingTest, SetAndGet) {
  Mapping m;
  m.Set(3, 30);
  m.Set(1, 10);
  m.Set(2, 20);
  EXPECT_EQ(m.Get(1), std::optional<TermId>(10));
  EXPECT_EQ(m.Get(2), std::optional<TermId>(20));
  EXPECT_EQ(m.Get(3), std::optional<TermId>(30));
  EXPECT_EQ(m.Get(4), std::nullopt);
  EXPECT_EQ(m.Domain(), (std::vector<VarId>{1, 2, 3}));
}

TEST(MappingTest, SetOverwrites) {
  Mapping m;
  m.Set(1, 10);
  m.Set(1, 11);
  EXPECT_EQ(m.Get(1), std::optional<TermId>(11));
  EXPECT_EQ(m.size(), 1u);
}

TEST(MappingTest, CompatibilityAgreesOnSharedVariables) {
  Mapping a = Make({{1, 10}, {2, 20}});
  Mapping b = Make({{2, 20}, {3, 30}});
  Mapping c = Make({{2, 99}});
  EXPECT_TRUE(a.CompatibleWith(b));
  EXPECT_TRUE(b.CompatibleWith(a));
  EXPECT_FALSE(a.CompatibleWith(c));
  // Disjoint domains are always compatible.
  EXPECT_TRUE(a.CompatibleWith(Make({{7, 70}})));
  // The empty mapping is compatible with everything.
  EXPECT_TRUE(Mapping().CompatibleWith(a));
}

TEST(MappingTest, UnionMergesBindings) {
  Mapping a = Make({{1, 10}, {2, 20}});
  Mapping b = Make({{2, 20}, {3, 30}});
  Mapping u = a.UnionWith(b);
  EXPECT_EQ(u, Make({{1, 10}, {2, 20}, {3, 30}}));
}

TEST(MappingTest, SubsumptionIsDomainContainmentPlusAgreement) {
  Mapping small = Make({{1, 10}});
  Mapping big = Make({{1, 10}, {2, 20}});
  Mapping other = Make({{1, 11}, {2, 20}});

  EXPECT_TRUE(small.SubsumedBy(big));
  EXPECT_FALSE(big.SubsumedBy(small));
  EXPECT_FALSE(small.SubsumedBy(other));
  // Reflexive.
  EXPECT_TRUE(big.SubsumedBy(big));
  // Empty mapping subsumed by everything.
  EXPECT_TRUE(Mapping().SubsumedBy(small));
}

TEST(MappingTest, ProperSubsumptionExcludesEquality) {
  Mapping small = Make({{1, 10}});
  Mapping big = Make({{1, 10}, {2, 20}});
  EXPECT_TRUE(small.ProperlySubsumedBy(big));
  EXPECT_FALSE(big.ProperlySubsumedBy(big));
  EXPECT_FALSE(small.ProperlySubsumedBy(small));
}

TEST(MappingTest, RestrictTo) {
  Mapping m = Make({{1, 10}, {2, 20}, {3, 30}});
  Mapping r = m.RestrictTo({1, 3});
  EXPECT_EQ(r, Make({{1, 10}, {3, 30}}));
  EXPECT_TRUE(m.RestrictTo({}).empty());
  // Restriction to variables outside dom(µ) ignores them.
  EXPECT_EQ(m.RestrictTo({1, 9}), Make({{1, 10}}));
}

TEST(MappingTest, HashAndEquality) {
  Mapping a = Make({{1, 10}, {2, 20}});
  Mapping b = Make({{2, 20}, {1, 10}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  Mapping c = Make({{1, 10}});
  EXPECT_NE(a, c);
}

TEST(MappingTest, FromBindingsChecksDuplicatesAgree) {
  Mapping m = Make({{1, 10}, {1, 10}, {2, 20}});
  EXPECT_EQ(m.size(), 2u);
  // Five pairs over four variables still fit inline.
  Mapping four = Make({{4, 40}, {1, 10}, {3, 30}, {1, 10}, {2, 20}});
  EXPECT_EQ(AsVector(four), Sequential(4));
  EXPECT_TRUE(IsInline(four));
}

TEST(MappingTest, DisjointVarRangesAreAlwaysCompatible) {
  // Exercises the disjoint-range fast path: no shared variables possible
  // when one domain's VarIds all precede the other's.
  Mapping low = Make({{1, 10}, {2, 20}});
  Mapping high = Make({{3, 99}, {5, 50}});
  EXPECT_TRUE(low.CompatibleWith(high));
  EXPECT_TRUE(high.CompatibleWith(low));
  EXPECT_TRUE(Mapping().CompatibleWith(low));
  EXPECT_TRUE(low.CompatibleWith(Mapping()));
}

TEST(MappingTest, DisjointRangeUnionConcatenates) {
  Mapping low = Make({{1, 10}, {2, 20}});
  Mapping high = Make({{3, 30}, {5, 50}});
  Mapping expected = Make({{1, 10}, {2, 20}, {3, 30}, {5, 50}});
  // Both argument orders hit a fast path; result is order-normalized.
  EXPECT_EQ(low.UnionWith(high), expected);
  EXPECT_EQ(high.UnionWith(low), expected);
  EXPECT_EQ(Mapping().UnionWith(low), low);
  EXPECT_EQ(low.UnionWith(Mapping()), low);
}

TEST(MappingTest, InterleavedRangesStillMergeCorrectly) {
  // Overlapping VarId ranges with no shared variables must take the full
  // merge walk and still produce the sorted union.
  Mapping odd = Make({{1, 10}, {3, 30}});
  Mapping even = Make({{2, 20}, {4, 40}});
  EXPECT_TRUE(odd.CompatibleWith(even));
  EXPECT_EQ(odd.UnionWith(even), Make({{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  // Shared variable with conflicting values: incompatible despite
  // overlapping ranges.
  Mapping clash = Make({{2, 21}, {3, 30}});
  EXPECT_FALSE(even.CompatibleWith(clash));
}

// Set in variable order and in reverse order, Get, FromBindings and
// RestrictTo agree with the reference bindings on both sides of the
// inline/spill boundary.
TEST(MappingTest, BuildAndReadAcrossTheInlineBoundary) {
  for (int n : kSizes) {
    SCOPED_TRACE(n);
    const Bindings want = Sequential(n);
    Mapping in_order;
    for (const auto& [v, t] : want) in_order.Set(v, t);
    Mapping reversed;
    for (auto it = want.rbegin(); it != want.rend(); ++it) {
      reversed.Set(it->first, it->second);
    }
    Bindings shuffled = want;
    Rng rng(static_cast<uint64_t>(n) + 1);
    rng.Shuffle(&shuffled);
    Mapping built = Make(shuffled);
    for (const Mapping* m : {&in_order, &reversed, &built}) {
      EXPECT_EQ(AsVector(*m), want);
      EXPECT_EQ(m->size(), static_cast<size_t>(n));
      EXPECT_EQ(IsInline(*m), n <= 4);
      for (const auto& [v, t] : want) EXPECT_EQ(m->Get(v), t);
      EXPECT_EQ(m->Get(static_cast<VarId>(n + 1)), std::nullopt);
      EXPECT_EQ(m->ApproxBytes(), Mapping::kApproxFixedBytes + 8u * n);
    }
    // Overwriting keeps the size.
    if (n > 0) {
      Mapping over = built;
      over.Set(1, 99);
      EXPECT_EQ(over.size(), static_cast<size_t>(n));
      EXPECT_EQ(over.Get(1), std::optional<TermId>(99));
    }
    // Restricting to the odd variables (and one unbound).
    std::vector<VarId> odd{static_cast<VarId>(n + 7)};
    Bindings want_odd;
    for (const auto& [v, t] : want) {
      if (v % 2 == 1) {
        odd.push_back(v);
        want_odd.emplace_back(v, t);
      }
    }
    Mapping r = built.RestrictTo(odd);
    EXPECT_EQ(AsVector(r), want_odd);
    EXPECT_EQ(IsInline(r), want_odd.size() <= 4);
  }
}

// UnionWith sizes its result exactly: 3 + 3 bindings sharing two give 4 and
// stay inline; 3 + 3 disjoint give 6 and spill.
TEST(MappingTest, UnionStaysInlineWhenTheUnionFits) {
  Mapping a = Make({{1, 10}, {2, 20}, {3, 30}});
  Mapping b = Make({{2, 20}, {3, 30}, {4, 40}});
  Mapping u = a.UnionWith(b);
  EXPECT_EQ(AsVector(u), Sequential(4));
  EXPECT_TRUE(IsInline(u));
  EXPECT_EQ(b.UnionWith(a), u);

  // Interleaved, so the merge walk (not the concatenation) runs.
  Mapping odd = Make({{1, 10}, {3, 30}, {5, 50}});
  Mapping even = Make({{2, 20}, {4, 40}, {6, 60}});
  Mapping w = odd.UnionWith(even);
  EXPECT_EQ(AsVector(w), Sequential(6));
  EXPECT_FALSE(IsInline(w));
  // Disjoint ranges concatenate, and spill past four too.
  Mapping low = Make({{1, 10}, {2, 20}, {3, 30}});
  Mapping high = Make({{4, 40}, {5, 50}, {6, 60}});
  EXPECT_EQ(AsVector(high.UnionWith(low)), Sequential(6));
  EXPECT_FALSE(IsInline(low.UnionWith(high)));
}

// Copy and move construction and assignment between every inline/spilled
// pair keep the contents, leave a moved-from mapping empty and reusable, and
// self-assignment is a no-op.
TEST(MappingTest, CopyMoveAndAssignAcrossTheInlineBoundary) {
  for (int from : {2, 6}) {
    for (int to : {3, 7}) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      const Mapping src = Make(Sequential(from));
      const Bindings want = Sequential(from);

      Mapping copied(src);
      EXPECT_EQ(AsVector(copied), want);
      EXPECT_EQ(IsInline(copied), from <= 4);
      Mapping moved_from = src;
      Mapping moved(std::move(moved_from));
      EXPECT_EQ(AsVector(moved), want);
      EXPECT_TRUE(moved_from.empty());
      moved_from.Set(1, 1);
      EXPECT_EQ(moved_from.size(), 1u);

      Mapping assigned = Make(Sequential(to));
      assigned = src;
      EXPECT_EQ(AsVector(assigned), want);
      EXPECT_EQ(assigned, src);
      Mapping move_assigned = Make(Sequential(to));
      Mapping donor = src;
      move_assigned = std::move(donor);
      EXPECT_EQ(AsVector(move_assigned), want);
      EXPECT_TRUE(donor.empty());
      donor = src;
      EXPECT_EQ(donor, src);
    }
  }
  for (int n : kSizes) {
    Mapping m = Make(Sequential(n));
    Mapping& alias = m;
    m = alias;
    EXPECT_EQ(AsVector(m), Sequential(n));
    m = std::move(alias);
    EXPECT_EQ(AsVector(m), Sequential(n));
  }
}

// ==, < and Hash mean what they meant on a sorted std::vector of bindings,
// and SameKey compares the restrictions to the shared variables, with
// KeyHash equal wherever they agree.
TEST(MappingTest, ComparisonAndHashMatchTheVectorReference) {
  auto reference_hash = [](const Bindings& b) {
    uint64_t h = 0x51ed270b76435a81ULL;
    for (const auto& [v, t] : b) {
      h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
      h = (h ^ t) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  };
  Rng rng(2024);
  std::vector<Bindings> refs;
  for (int i = 0; i < 200; ++i) {
    Bindings b;
    for (VarId v = 0; v < 9; ++v) {
      if (rng.NextBool(0.5)) b.emplace_back(v, rng.NextBelow(3));
    }
    refs.push_back(b);
  }
  refs.push_back(Sequential(9));
  refs.push_back(Sequential(5));
  refs.push_back(Sequential(4));
  refs.push_back({});
  auto restrict = [](const Bindings& b, const std::vector<VarId>& vars) {
    Bindings out;
    for (const auto& binding : b) {
      if (std::binary_search(vars.begin(), vars.end(), binding.first)) {
        out.push_back(binding);
      }
    }
    return out;
  };
  for (const Bindings& x : refs) {
    Mapping mx = Make(x);
    EXPECT_EQ(mx.Hash(), reference_hash(x));
    for (const Bindings& y : refs) {
      Mapping my = Make(y);
      EXPECT_EQ(mx == my, x == y);
      EXPECT_EQ(mx < my, x < y);
      std::vector<VarId> shared;
      for (const auto& binding : x) {
        if (my.Binds(binding.first)) shared.push_back(binding.first);
      }
      const bool same = restrict(x, shared) == restrict(y, shared);
      EXPECT_EQ(mx.SameKey(my, shared), same);
      if (same) {
        EXPECT_EQ(mx.KeyHash(shared), my.KeyHash(shared));
      }
    }
  }
}

}  // namespace
}  // namespace rdfql
