#include "algebra/mapping_set.h"

#include <gtest/gtest.h>

#include "obs/accounting.h"
#include "obs/tracer.h"
#include "util/random.h"

namespace rdfql {
namespace {

Mapping Make(std::vector<std::pair<VarId, TermId>> b) {
  return Mapping::FromBindings(std::move(b));
}

TEST(MappingSetTest, AddDeduplicates) {
  MappingSet s;
  EXPECT_TRUE(s.Add(Make({{1, 10}})));
  EXPECT_FALSE(s.Add(Make({{1, 10}})));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MappingSetTest, JoinMatchesDefinition) {
  // Ω1 = {[x→1], [x→2]}, Ω2 = {[x→1, y→5], [y→6]}.
  MappingSet a = MappingSet::FromList({Make({{1, 1}}), Make({{1, 2}})});
  MappingSet b =
      MappingSet::FromList({Make({{1, 1}, {2, 5}}), Make({{2, 6}})});
  MappingSet joined = MappingSet::Join(a, b);
  // [x→1]⋈[x→1,y→5] = [x→1,y→5]; [x→1]⋈[y→6]; [x→2]⋈[y→6];
  // [x→2] vs [x→1,y→5] incompatible.
  MappingSet expected = MappingSet::FromList({Make({{1, 1}, {2, 5}}),
                                              Make({{1, 1}, {2, 6}}),
                                              Make({{1, 2}, {2, 6}})});
  EXPECT_EQ(joined, expected);
}

TEST(MappingSetTest, JoinWithEmptyMappingIsIdentityLike) {
  MappingSet a = MappingSet::FromList({Make({{1, 1}})});
  MappingSet unit = MappingSet::FromList({Mapping()});
  EXPECT_EQ(MappingSet::Join(a, unit), a);
  EXPECT_EQ(MappingSet::Join(unit, a), a);
}

TEST(MappingSetTest, JoinWithEmptySetIsEmpty) {
  MappingSet a = MappingSet::FromList({Make({{1, 1}})});
  MappingSet empty;
  EXPECT_TRUE(MappingSet::Join(a, empty).empty());
  EXPECT_TRUE(MappingSet::Join(empty, a).empty());
}

TEST(MappingSetTest, MinusKeepsOnlyFullyIncompatible) {
  MappingSet a =
      MappingSet::FromList({Make({{1, 1}}), Make({{1, 2}}), Make({{1, 3}})});
  MappingSet b = MappingSet::FromList({Make({{1, 1}}), Make({{1, 2}, {2, 5}})});
  MappingSet diff = MappingSet::Minus(a, b);
  EXPECT_EQ(diff, MappingSet::FromList({Make({{1, 3}})}));
}

TEST(MappingSetTest, MinusAgainstEmptySetKeepsAll) {
  MappingSet a = MappingSet::FromList({Make({{1, 1}})});
  EXPECT_EQ(MappingSet::Minus(a, MappingSet()), a);
}

TEST(MappingSetTest, LeftOuterJoinDecomposition) {
  MappingSet a = MappingSet::FromList({Make({{1, 1}}), Make({{1, 2}})});
  MappingSet b = MappingSet::FromList({Make({{1, 1}, {2, 5}})});
  MappingSet louter = MappingSet::LeftOuterJoin(a, b);
  // [x→1] extends; [x→2] survives bare.
  MappingSet expected =
      MappingSet::FromList({Make({{1, 1}, {2, 5}}), Make({{1, 2}})});
  EXPECT_EQ(louter, expected);
}

TEST(MappingSetTest, SubsumptionPreorder) {
  MappingSet small = MappingSet::FromList({Make({{1, 1}})});
  MappingSet big = MappingSet::FromList({Make({{1, 1}, {2, 5}})});
  EXPECT_TRUE(MappingSet::Subsumed(small, big));
  EXPECT_FALSE(MappingSet::Subsumed(big, small));
  EXPECT_TRUE(MappingSet::Subsumed(MappingSet(), small));
}

// The hash join must agree with the reference nested-loop join on random
// heterogeneous inputs (mappings with varying domains).
TEST(MappingSetTest, HashJoinAgreesWithNestedLoop) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    auto random_set = [&rng]() {
      MappingSet s;
      int n = static_cast<int>(rng.NextBelow(8));
      for (int i = 0; i < n; ++i) {
        Mapping m;
        for (VarId v = 0; v < 4; ++v) {
          if (rng.NextBool(0.6)) m.Set(v, rng.NextBelow(3));
        }
        s.Add(m);
      }
      return s;
    };
    MappingSet a = random_set();
    MappingSet b = random_set();
    EXPECT_EQ(MappingSet::Join(a, b), MappingSet::JoinNestedLoop(a, b));
  }
}

// Algebraic laws of the paper's operators (on random sets): join is
// commutative and associative, union likewise, and ⟕ = ⋈ ∪ ∖.
TEST(MappingSetTest, AlgebraicLaws) {
  Rng rng(123);
  auto random_set = [&rng]() {
    MappingSet s;
    int n = static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < n; ++i) {
      Mapping m;
      for (VarId v = 0; v < 3; ++v) {
        if (rng.NextBool(0.5)) m.Set(v, rng.NextBelow(2));
      }
      s.Add(m);
    }
    return s;
  };
  for (int round = 0; round < 40; ++round) {
    MappingSet a = random_set();
    MappingSet b = random_set();
    MappingSet c = random_set();
    EXPECT_EQ(MappingSet::Join(a, b), MappingSet::Join(b, a));
    EXPECT_EQ(MappingSet::Join(MappingSet::Join(a, b), c),
              MappingSet::Join(a, MappingSet::Join(b, c)));
    EXPECT_EQ(MappingSet::UnionSets(a, b), MappingSet::UnionSets(b, a));
    EXPECT_EQ(
        MappingSet::LeftOuterJoin(a, b),
        MappingSet::UnionSets(MappingSet::Join(a, b), MappingSet::Minus(a, b)));
  }
}

// ∖ and ⟕ exactly as Section 2.1 defines them, written as pairwise loops
// over Ω1 then Ω2 — the order the kernels must insert in, too.
MappingSet MinusByDefinition(const MappingSet& a, const MappingSet& b) {
  MappingSet out;
  for (const Mapping& m1 : a) {
    bool compatible_with_some = false;
    for (const Mapping& m2 : b) {
      if (m1.CompatibleWith(m2)) compatible_with_some = true;
    }
    if (!compatible_with_some) out.Add(m1);
  }
  return out;
}

MappingSet LeftOuterJoinByDefinition(const MappingSet& a,
                                     const MappingSet& b) {
  MappingSet out;
  for (const Mapping& m1 : a) {
    bool compatible_with_some = false;
    for (const Mapping& m2 : b) {
      if (m1.CompatibleWith(m2)) {
        out.Add(m1.UnionWith(m2));
        compatible_with_some = true;
      }
    }
    if (!compatible_with_some) out.Add(m1);
  }
  return out;
}

// Every mapping binds variable 0 (to one of `keys` values), so the inputs
// share a certain variable and the kernels take the hashed path. Variables
// 1–3 are each bound with p = 0.5 to one of 2–3 values, so one bucket holds
// compatible and incompatible partners alike.
MappingSet RandomKeyedSet(Rng* rng, int n, uint64_t keys) {
  MappingSet s;
  for (int i = 0; i < n; ++i) {
    Mapping m;
    m.Set(0, static_cast<TermId>(rng->NextBelow(keys)));
    for (VarId v = 1; v < 4; ++v) {
      if (rng->NextBool(0.5)) {
        m.Set(v, static_cast<TermId>(rng->NextBelow(v == 1 ? 2 : 3)));
      }
    }
    s.Add(std::move(m));
  }
  return s;
}

// join_probes charged by `kernel`.
template <typename Kernel>
uint64_t ProbesOf(Kernel kernel) {
  OpCounters counters;
  ScopedOpCounters install(&counters);
  kernel();
  return counters.join_probes;
}

TEST(MappingSetTest, HashedMinusAndLeftOuterJoinMatchDefinition) {
  Rng rng(4242);
  const int sizes[] = {0, 1, 7, 90, 300};
  int hashed_cases = 0;
  for (int na : sizes) {
    for (int nb : sizes) {
      for (int round = 0; round < 3; ++round) {
        MappingSet a = RandomKeyedSet(&rng, na, 6);
        MappingSet b = RandomKeyedSet(&rng, nb, 6);
        SCOPED_TRACE(::testing::Message()
                     << "|a|=" << a.size() << " |b|=" << b.size());
        MappingSet minus = MinusByDefinition(a, b);
        MappingSet louter = LeftOuterJoinByDefinition(a, b);
        EXPECT_EQ(MappingSet::Minus(a, b).mappings(), minus.mappings());
        EXPECT_EQ(MappingSet::LeftOuterJoin(a, b).mappings(),
                  louter.mappings());
        EXPECT_EQ(MappingSet::Join(a, b), MappingSet::JoinNestedLoop(a, b));
        if (a.size() < 90 || b.size() < 90) continue;
        // Partitioned on variable 0: far fewer candidates than pairs.
        ++hashed_cases;
        const uint64_t pairs = a.size() * b.size();
        uint64_t louter_probes =
            ProbesOf([&] { MappingSet::LeftOuterJoin(a, b); });
        EXPECT_LT(louter_probes, pairs / 2);
        uint64_t minus_probes = ProbesOf([&] { MappingSet::Minus(a, b); });
        EXPECT_LT(minus_probes, pairs / 2);
      }
    }
  }
  EXPECT_GT(hashed_cases, 0);
}

TEST(MappingSetTest, EmptyMappingOnTheRightRemovesEveryRow) {
  // µ∅ is compatible with every mapping: Ω1 ∖ Ω2 is empty, and Ω1 ⟕ Ω2
  // keeps every row of Ω1 (µ ∪ µ∅ = µ) plus its unions with the rest.
  Rng rng(77);
  MappingSet a = RandomKeyedSet(&rng, 200, 5);
  MappingSet b = RandomKeyedSet(&rng, 150, 5);
  b.Add(Mapping());
  EXPECT_TRUE(MappingSet::Minus(a, b).empty());
  MappingSet louter = LeftOuterJoinByDefinition(a, b);
  EXPECT_EQ(MappingSet::LeftOuterJoin(a, b).mappings(), louter.mappings());
  for (const Mapping& m : a) EXPECT_TRUE(louter.Contains(m));
}

// The i-th of a family of distinct mappings with mixed domains.
Mapping Nth(int i) {
  Mapping m;
  m.Set(0, static_cast<TermId>(i % 97));
  m.Set(1, static_cast<TermId>(i / 97));
  if (i % 3 == 0) m.Set(2, static_cast<TermId>(i));
  return m;
}

TEST(MappingSetTest, DedupIndexSurvivesGrowth) {
  // 12k distinct mappings take the index from 16 slots through ten
  // doublings; every lookup must still find exactly what was added.
  constexpr int kN = 12000;
  MappingSet s;
  int failures = 0;
  for (int i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      failures += !s.Add(Nth(i));  // rvalue
    } else {
      Mapping m = Nth(i);
      failures += !s.Add(m);  // lvalue
    }
  }
  EXPECT_EQ(failures, 0);
  ASSERT_EQ(s.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    Mapping m = Nth(i);
    failures += s.Add(m);
    failures += s.Add(std::move(m));
    failures += m != Nth(i);  // a rejected rvalue is left untouched
    failures += !s.Contains(Nth(i));
    failures += s.mappings()[i] != Nth(i);  // insertion order
  }
  for (int i = kN; i < kN + 2000; ++i) failures += s.Contains(Nth(i));
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(s.size(), static_cast<size_t>(kN));
  EXPECT_FALSE(s.Contains(Mapping()));
  EXPECT_TRUE(s.Add(Mapping()));
  EXPECT_TRUE(s.Contains(Mapping()));
  EXPECT_FALSE(MappingSet().Contains(Mapping()));

  // Reserving up front gives the same set.
  MappingSet reserved;
  reserved.Reserve(kN);
  for (int i = 0; i < kN; ++i) reserved.Add(Nth(i));
  reserved.Add(Mapping());
  EXPECT_EQ(reserved.mappings(), s.mappings());
  EXPECT_EQ(MappingSet::FromList(s.mappings()).mappings(), s.mappings());
}

TEST(MappingSetTest, CopiesAndMovesKeepIndexAndAccounting) {
  constexpr int kN = 1000;
  auto holds_family = [](const MappingSet& s) {
    if (s.size() != static_cast<size_t>(kN)) return false;
    for (int i = 0; i < kN; ++i) {
      if (!s.Contains(Nth(i))) return false;
    }
    return !s.Contains(Nth(kN));
  };
  ResourceAccountant acct;
  {
    ScopedAccounting install(&acct);
    MappingSet a;
    for (int i = 0; i < kN; ++i) a.Add(Nth(i));
    a.FlushAccounting();
    const uint64_t bytes = a.ApproxBytes();
    EXPECT_EQ(acct.live_mappings(), 1000u);
    EXPECT_EQ(acct.live_bytes(), bytes);

    MappingSet copy = a;  // charged again in full
    EXPECT_TRUE(holds_family(copy));
    EXPECT_EQ(acct.live_mappings(), 2000u);
    EXPECT_EQ(acct.live_bytes(), 2 * bytes);

    MappingSet assigned;
    assigned.Add(Nth(5000));
    assigned = a;  // releases its old mapping, charges the copy
    EXPECT_TRUE(holds_family(assigned));
    EXPECT_EQ(acct.live_mappings(), 3000u);
    EXPECT_EQ(acct.live_bytes(), 3 * bytes);

    MappingSet moved = std::move(a);  // the charge moves with the mappings
    EXPECT_TRUE(holds_family(moved));
    EXPECT_EQ(acct.live_mappings(), 3000u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(a.Contains(Nth(0)));

    MappingSet move_assigned;
    move_assigned.Add(Nth(6000));
    move_assigned = std::move(copy);
    EXPECT_TRUE(holds_family(move_assigned));
    EXPECT_EQ(acct.live_mappings(), 3000u);
    EXPECT_EQ(acct.live_bytes(), 3 * bytes);

    // Every survivor still deduplicates and accounts new inserts, and the
    // moved-from set is usable again.
    for (MappingSet* s : {&assigned, &moved, &move_assigned, &a}) {
      EXPECT_EQ(s->Add(Nth(0)), s == &a);
      EXPECT_TRUE(s->Add(Nth(kN)));
      s->FlushAccounting();
    }
    EXPECT_EQ(acct.live_mappings(), 3005u);
    EXPECT_EQ(acct.peak_mappings(), 3005u);
  }
  EXPECT_EQ(acct.live_mappings(), 0u);
  EXPECT_EQ(acct.live_bytes(), 0u);
}

}  // namespace
}  // namespace rdfql
