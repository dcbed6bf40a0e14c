#include "rdf/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.h"

namespace rdfql {
namespace {

TEST(GraphTest, InsertDeduplicates) {
  Graph g;
  EXPECT_TRUE(g.Insert(1, 2, 3));
  EXPECT_FALSE(g.Insert(1, 2, 3));
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.Contains(Triple(1, 2, 3)));
  EXPECT_FALSE(g.Contains(Triple(3, 2, 1)));
}

TEST(GraphTest, MatchFullyBound) {
  Graph g;
  g.Insert(1, 2, 3);
  EXPECT_EQ(g.CountMatches(1, 2, 3), 1u);
  EXPECT_EQ(g.CountMatches(1, 2, 4), 0u);
}

TEST(GraphTest, MatchWildcards) {
  Graph g;
  g.Insert(1, 2, 3);
  g.Insert(1, 2, 4);
  g.Insert(1, 5, 3);
  g.Insert(6, 2, 3);

  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 3u);
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 2, kInvalidTermId), 3u);
  EXPECT_EQ(g.CountMatches(kInvalidTermId, kInvalidTermId, 3), 3u);
  EXPECT_EQ(g.CountMatches(1, 2, kInvalidTermId), 2u);
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 2, 3), 2u);
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, 3), 2u);
  EXPECT_EQ(
      g.CountMatches(kInvalidTermId, kInvalidTermId, kInvalidTermId), 4u);
}

// Every index path must agree with a brute-force scan.
TEST(GraphTest, MatchAgreesWithScanOnRandomGraphs) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    Graph g;
    for (int i = 0; i < 50; ++i) {
      g.Insert(rng.NextBelow(5), rng.NextBelow(5), rng.NextBelow(5));
    }
    for (int probe = 0; probe < 30; ++probe) {
      TermId s = rng.NextBool(0.5) ? rng.NextBelow(5) : kInvalidTermId;
      TermId p = rng.NextBool(0.5) ? rng.NextBelow(5) : kInvalidTermId;
      TermId o = rng.NextBool(0.5) ? rng.NextBelow(5) : kInvalidTermId;
      size_t expected = 0;
      for (const Triple& t : g.triples()) {
        if ((s == kInvalidTermId || t.s == s) &&
            (p == kInvalidTermId || t.p == p) &&
            (o == kInvalidTermId || t.o == o)) {
          ++expected;
        }
      }
      EXPECT_EQ(g.CountMatches(s, p, o), expected)
          << "probe (" << s << "," << p << "," << o << ")";
    }
  }
}

TEST(GraphTest, MatchAfterInsertInvalidatesIndexes) {
  Graph g;
  g.Insert(1, 2, 3);
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 1u);
  g.Insert(1, 9, 9);
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 2u);
}

TEST(GraphTest, EraseRemovesAndInvalidatesIndexes) {
  Graph g;
  g.Insert(1, 2, 3);
  g.Insert(4, 5, 6);
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 1u);
  EXPECT_TRUE(g.Erase(Triple(1, 2, 3)));
  EXPECT_FALSE(g.Erase(Triple(1, 2, 3)));
  EXPECT_EQ(g.size(), 1u);
  EXPECT_FALSE(g.Contains(Triple(1, 2, 3)));
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 0u);
  // Re-insert after erase keeps indexes consistent.
  g.Insert(1, 2, 9);
  EXPECT_EQ(g.CountMatches(1, kInvalidTermId, kInvalidTermId), 1u);
}

TEST(GraphTest, SubsetAndUnion) {
  Graph g1;
  g1.Insert(1, 2, 3);
  Graph g2 = g1;
  g2.Insert(4, 5, 6);
  EXPECT_TRUE(g1.IsSubsetOf(g2));
  EXPECT_FALSE(g2.IsSubsetOf(g1));

  Graph u = Graph::Union(g1, g2);
  EXPECT_EQ(u, g2);
}

TEST(GraphTest, IrisReturnsSortedUniqueIds) {
  Graph g;
  g.Insert(5, 1, 5);
  g.Insert(2, 1, 3);
  std::vector<TermId> iris = g.Iris();
  EXPECT_EQ(iris, (std::vector<TermId>{1, 2, 3, 5}));
}

TEST(GraphTest, EqualityIsSetEquality) {
  Graph a;
  a.Insert(1, 2, 3);
  a.Insert(4, 5, 6);
  Graph b;
  b.Insert(4, 5, 6);
  b.Insert(1, 2, 3);
  EXPECT_EQ(a, b);
  b.Insert(7, 8, 9);
  EXPECT_FALSE(a == b);
}

// Interleaved insert/match workloads exercise the index side buffers: each
// Match after an Insert must see all triples, in full index order, without
// rebuilding the base index every time. Every combination of bound
// positions is probed, and CountMatches (range arithmetic, no scan) must
// count what a scan of all triples finds.
TEST(GraphTest, InterleavedInsertAndMatchSeesEveryTriple) {
  Rng rng(314);
  Graph incremental;
  std::vector<Triple> all;
  for (int i = 0; i < 400; ++i) {
    Triple t(rng.NextBelow(20), rng.NextBelow(6), rng.NextBelow(20));
    if (incremental.Insert(t)) all.push_back(t);
    // A Graph built fresh from the same triples has no side buffers; both
    // must report identical matches in identical order.
    Graph fresh;
    for (const Triple& x : all) fresh.Insert(x);
    for (int bound = 0; bound < 8; ++bound) {
      TermId s = (bound & 1) != 0 ? t.s : kInvalidTermId;
      TermId p = (bound & 2) != 0 ? t.p : kInvalidTermId;
      TermId o = (bound & 4) != 0 ? t.o : kInvalidTermId;
      std::vector<Triple> got, want;
      size_t n = incremental.Match(
          s, p, o, [&](const Triple& m) { got.push_back(m); });
      fresh.Match(s, p, o, [&](const Triple& m) { want.push_back(m); });
      ASSERT_EQ(got, want) << "iteration " << i << " bound " << bound;
      ASSERT_FALSE(want.empty());  // the inserted triple itself matches
      size_t scanned =
          std::count_if(all.begin(), all.end(), [&](const Triple& x) {
            return (s == kInvalidTermId || x.s == s) &&
                   (p == kInvalidTermId || x.p == p) &&
                   (o == kInvalidTermId || x.o == o);
          });
      ASSERT_EQ(n, scanned);
      ASSERT_EQ(incremental.CountMatches(s, p, o), scanned);
    }
  }
}

TEST(GraphTest, SideBufferCrossesRebuildThreshold) {
  // Push enough triples through interleaved probes that the side arrays
  // overflow their threshold and fold into the base at least once.
  Graph g;
  size_t expected = 0;
  for (TermId s = 0; s < 40; ++s) {
    for (TermId o = 0; o < 10; ++o) {
      g.Insert(s, 7, o);
      ++expected;
    }
    // Probe after every subject batch to force index maintenance.
    ASSERT_EQ(g.CountMatches(s, kInvalidTermId, kInvalidTermId), 10u);
  }
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 7, kInvalidTermId), expected);
  // Spot-check order on a two-component scan after many incremental adds.
  std::vector<Triple> got;
  g.Match(3, 7, kInvalidTermId, [&](const Triple& t) { got.push_back(t); });
  ASSERT_EQ(got.size(), 10u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], Triple(3, 7, static_cast<TermId>(i)));
  }
}

TEST(GraphTest, EpochBumpsOnMutationOnly) {
  Graph g;
  uint64_t e0 = g.Epoch();
  EXPECT_TRUE(g.Insert(1, 2, 3));
  uint64_t e1 = g.Epoch();
  EXPECT_GT(e1, e0);
  // Duplicate insert and missing erase leave the triple set — and hence
  // the epoch — untouched.
  EXPECT_FALSE(g.Insert(1, 2, 3));
  EXPECT_EQ(g.Epoch(), e1);
  EXPECT_FALSE(g.Erase(Triple(9, 9, 9)));
  EXPECT_EQ(g.Epoch(), e1);
  EXPECT_TRUE(g.Erase(Triple(1, 2, 3)));
  EXPECT_GT(g.Epoch(), e1);
  // Reads never bump.
  uint64_t e2 = g.Epoch();
  (void)g.Contains(Triple(1, 2, 3));
  (void)g.CountMatches(kInvalidTermId, kInvalidTermId, kInvalidTermId);
  EXPECT_EQ(g.Epoch(), e2);
}

TEST(GraphTest, EpochIsProcessGlobalMonotone) {
  // Two independent graphs never reuse each other's mutation epochs: a
  // cache keyed by (name, epoch) can't confuse a replaced graph with its
  // predecessor.
  Graph a;
  EXPECT_TRUE(a.Insert(1, 2, 3));
  Graph b;
  EXPECT_TRUE(b.Insert(1, 2, 3));
  EXPECT_NE(a.Epoch(), b.Epoch());
  uint64_t before = b.Epoch();
  EXPECT_TRUE(a.Insert(4, 5, 6));
  EXPECT_GT(a.Epoch(), before);
}

TEST(GraphTest, CopiesInheritEpochUntilTheyDiverge) {
  Graph g;
  EXPECT_TRUE(g.Insert(1, 2, 3));
  Graph copy = g;
  // Identical content, identical epoch: cached results for one are valid
  // for the other.
  EXPECT_EQ(copy.Epoch(), g.Epoch());
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.Epoch(), g.Epoch());
  // First mutation of either side mints a fresh global value.
  uint64_t shared = g.Epoch();
  EXPECT_TRUE(moved.Insert(7, 8, 9));
  EXPECT_NE(moved.Epoch(), shared);
  EXPECT_EQ(g.Epoch(), shared);
}

TEST(GraphTest, EraseInvalidatesIndexes) {
  Graph g;
  for (TermId i = 0; i < 100; ++i) g.Insert(i, 1, i + 1);
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 1, kInvalidTermId), 100u);
  EXPECT_TRUE(g.Erase(Triple(50, 1, 51)));
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 1, kInvalidTermId), 99u);
  EXPECT_EQ(g.CountMatches(50, 1, kInvalidTermId), 0u);
  // Inserts after an erase keep working through fresh side buffers.
  g.Insert(200, 1, 201);
  EXPECT_EQ(g.CountMatches(kInvalidTermId, 1, kInvalidTermId), 100u);
  EXPECT_EQ(g.CountMatches(200, kInvalidTermId, kInvalidTermId), 1u);
}

}  // namespace
}  // namespace rdfql
