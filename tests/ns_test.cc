#include "eval/ns.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obs/accounting.h"
#include "util/random.h"

namespace rdfql {
namespace {

Mapping Make(std::vector<std::pair<VarId, TermId>> b) {
  return Mapping::FromBindings(std::move(b));
}

TEST(NsTest, RemovesProperlySubsumed) {
  MappingSet input = MappingSet::FromList(
      {Make({{1, 1}}), Make({{1, 1}, {2, 2}}), Make({{1, 9}})});
  MappingSet expected =
      MappingSet::FromList({Make({{1, 1}, {2, 2}}), Make({{1, 9}})});
  EXPECT_EQ(RemoveSubsumedNaive(input), expected);
  EXPECT_EQ(RemoveSubsumedBucketed(input), expected);
}

TEST(NsTest, EmptyMappingRemovedWhenAnythingElsePresent) {
  MappingSet input = MappingSet::FromList({Mapping(), Make({{1, 1}})});
  MappingSet expected = MappingSet::FromList({Make({{1, 1}})});
  EXPECT_EQ(RemoveSubsumedNaive(input), expected);
  EXPECT_EQ(RemoveSubsumedBucketed(input), expected);
}

TEST(NsTest, LoneEmptyMappingSurvives) {
  MappingSet input = MappingSet::FromList({Mapping()});
  EXPECT_EQ(RemoveSubsumedNaive(input), input);
  EXPECT_EQ(RemoveSubsumedBucketed(input), input);
}

TEST(NsTest, EqualDomainMappingsNeverSubsumeEachOther) {
  MappingSet input =
      MappingSet::FromList({Make({{1, 1}, {2, 2}}), Make({{1, 1}, {2, 3}})});
  EXPECT_EQ(RemoveSubsumedNaive(input), input);
  EXPECT_EQ(RemoveSubsumedBucketed(input), input);
}

TEST(NsTest, Idempotent) {
  Rng rng(4);
  for (int round = 0; round < 30; ++round) {
    MappingSet s;
    int n = static_cast<int>(rng.NextBelow(20));
    for (int i = 0; i < n; ++i) {
      Mapping m;
      for (VarId v = 0; v < 4; ++v) {
        if (rng.NextBool(0.5)) m.Set(v, rng.NextBelow(3));
      }
      s.Add(m);
    }
    MappingSet once = RemoveSubsumedBucketed(s);
    EXPECT_EQ(RemoveSubsumedBucketed(once), once);
    EXPECT_TRUE(IsSubsumptionFree(once));
  }
}

TEST(NsTest, BucketedAgreesWithNaiveOnRandomSets) {
  Rng rng(11);
  for (int round = 0; round < 100; ++round) {
    MappingSet s;
    int n = static_cast<int>(rng.NextBelow(25));
    for (int i = 0; i < n; ++i) {
      Mapping m;
      for (VarId v = 0; v < 5; ++v) {
        if (rng.NextBool(0.45)) m.Set(v, rng.NextBelow(3));
      }
      s.Add(m);
    }
    EXPECT_EQ(RemoveSubsumedNaive(s), RemoveSubsumedBucketed(s));
  }
}

TEST(NsTest, SubsumptionIsPreservedSemantics) {
  // Every removed mapping is subsumed by a kept one, and kept mappings are
  // exactly the maximal elements.
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    MappingSet s;
    int n = static_cast<int>(rng.NextBelow(15));
    for (int i = 0; i < n; ++i) {
      Mapping m;
      for (VarId v = 0; v < 4; ++v) {
        if (rng.NextBool(0.5)) m.Set(v, rng.NextBelow(2));
      }
      s.Add(m);
    }
    MappingSet max = RemoveSubsumedBucketed(s);
    EXPECT_TRUE(MappingSet::Subsumed(s, max));
    for (const Mapping& m : max) {
      EXPECT_TRUE(s.Contains(m));
    }
  }
}

// On larger inputs over more variables, bucketed pruning keeps exactly the
// reference's survivors, in the same (input) order.
TEST(NsTest, BucketedMatchesNaiveOnLargeRandomSets) {
  Rng rng(404);
  for (int round = 0; round < 10; ++round) {
    MappingSet s;
    for (int i = 0; i < 300; ++i) {
      Mapping m;
      for (VarId v = 0; v < 6; ++v) {
        if (rng.NextBool(0.5)) m.Set(v, rng.NextBelow(3));
      }
      s.Add(m);
    }
    EXPECT_EQ(RemoveSubsumedBucketed(s).mappings(),
              RemoveSubsumedNaive(s).mappings());
  }
}

// Up to 8 variables over many domains, so mappings past the 4 inline
// bindings (spilled to the heap) are pruned and kept too: bucketed pruning
// keeps exactly the reference's survivors, in input order.
TEST(NsTest, BucketedMatchesNaiveOnWideMappings) {
  Rng rng(808);
  for (int round = 0; round < 40; ++round) {
    MappingSet s;
    const int n = 50 + static_cast<int>(rng.NextBelow(150));
    const double density = 0.3 + 0.6 * rng.NextDouble();
    for (int i = 0; i < n; ++i) {
      Mapping m;
      for (VarId v = 0; v < 8; ++v) {
        if (rng.NextBool(density)) m.Set(v, rng.NextBelow(2));
      }
      s.Add(m);
    }
    EXPECT_EQ(RemoveSubsumedBucketed(s).mappings(),
              RemoveSubsumedNaive(s).mappings());
  }
}

// Pruning charges each bucket pair's projection table to the installed
// accountant while it lives, as that pair's distinct projections: the
// cumulative totals are the survivors plus every table.
TEST(NsTest, BucketedChargesItsTablesToTheAccountant) {
  Rng rng(99);
  MappingSet input;
  for (int i = 0; i < 120; ++i) {
    Mapping m;
    for (VarId v = 0; v < 6; ++v) {
      if (rng.NextBool(0.5)) m.Set(v, rng.NextBelow(3));
    }
    input.Add(m);
  }
  // The reference: for every pair of domains D ⊊ D', the distinct
  // projections onto D of the mappings with domain D'.
  std::set<std::vector<VarId>> domains;
  for (const Mapping& m : input) domains.insert(m.Domain());
  uint64_t table_mappings = 0;
  uint64_t table_bytes = 0;
  for (const std::vector<VarId>& d : domains) {
    for (const std::vector<VarId>& sup : domains) {
      if (sup.size() <= d.size() ||
          !std::includes(sup.begin(), sup.end(), d.begin(), d.end())) {
        continue;
      }
      std::set<std::vector<std::pair<VarId, TermId>>> projections;
      for (const Mapping& m : input) {
        if (m.Domain() != sup) continue;
        Mapping p = m.RestrictTo(d);
        projections.emplace(p.bindings().begin(), p.bindings().end());
      }
      table_mappings += projections.size();
      table_bytes += projections.size() * Mapping::ApproxBytesFor(d.size());
    }
  }
  ASSERT_GT(table_mappings, 0u);

  ResourceAccountant acct;
  MappingSet out;
  {
    ScopedAccounting install(&acct);
    out = RemoveSubsumedBucketed(input);
  }
  EXPECT_EQ(out, RemoveSubsumedNaive(input));
  EXPECT_EQ(acct.total_mappings(), out.size() + table_mappings);
  EXPECT_EQ(acct.total_bytes(), out.ApproxBytes() + table_bytes);
  // The tables are gone; only the survivors are live.
  EXPECT_EQ(acct.live_mappings(), out.size());
  EXPECT_GE(acct.peak_mappings(), out.size());
}

}  // namespace
}  // namespace rdfql
