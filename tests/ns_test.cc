#include "eval/ns.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rdfql
