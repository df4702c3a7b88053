// Canonicalization unit tests (query/containment.h): every spelling of
// a pattern collides on one canonical key, and distinct patterns keep
// distinct keys.
#include <gtest/gtest.h>

#include "query/containment.h"
#include "query/pattern.h"

namespace fgpm {
namespace {

Pattern P(std::string_view text) {
  auto p = Pattern::Parse(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return *p;
}

TEST(CanonicalizeTest, SpellingsCollide) {
  // Same pattern four ways: statement order, chain grouping, and the
  // parse-order node numbering all differ; the canonical key must not.
  const char* spellings[] = {
      "A->B; B->C; A->C",
      "B->C; A->C; A->B",
      "A->C; A->B->C",
      "A->B->C; A->C",
  };
  const CanonicalForm base = Canonicalize(P(spellings[0]));
  for (const char* text : spellings) {
    CanonicalForm c = Canonicalize(P(text));
    EXPECT_EQ(c.key, base.key) << text;
    EXPECT_EQ(c.pattern.ToString(), base.pattern.ToString()) << text;
  }
}

TEST(CanonicalizeTest, DistinctPatternsKeepDistinctKeys) {
  EXPECT_NE(Canonicalize(P("A->B")).key, Canonicalize(P("B->A")).key);
  EXPECT_NE(Canonicalize(P("A->B; B->C")).key,
            Canonicalize(P("A->B; A->C")).key);
  // Closure-equivalent, but NOT edge-set-equal: distinct keys.
  EXPECT_NE(Canonicalize(P("A->B; B->C; A->C")).key,
            Canonicalize(P("A->B; B->C")).key);
}

TEST(CanonicalizeTest, MapsRoundTrip) {
  const Pattern p = P("C->A; A->B");
  const CanonicalForm c = Canonicalize(p);
  // Canonical numbering is sorted-label order: A=0, B=1, C=2.
  ASSERT_EQ(c.pattern.num_nodes(), 3u);
  EXPECT_EQ(c.pattern.label(0), "A");
  EXPECT_EQ(c.pattern.label(1), "B");
  EXPECT_EQ(c.pattern.label(2), "C");
  // node_map / edge_map translate original -> canonical; the inverses
  // undo them exactly.
  const auto inv_n = c.InverseNodeMap();
  for (PatternNodeId i = 0; i < p.num_nodes(); ++i) {
    EXPECT_EQ(inv_n[c.node_map[i]], i);
    EXPECT_EQ(p.label(i), c.pattern.label(c.node_map[i]));
  }
  const auto inv_e = c.InverseEdgeMap();
  for (uint32_t e = 0; e < p.num_edges(); ++e) {
    EXPECT_EQ(inv_e[c.edge_map[e]], e);
    const PatternEdge& orig = p.edges()[e];
    const PatternEdge& canon = c.pattern.edges()[c.edge_map[e]];
    EXPECT_EQ(c.node_map[orig.from], canon.from);
    EXPECT_EQ(c.node_map[orig.to], canon.to);
  }
  // Canonical edges are sorted by (from, to).
  for (size_t e = 1; e < c.pattern.num_edges(); ++e) {
    const PatternEdge& a = c.pattern.edges()[e - 1];
    const PatternEdge& b = c.pattern.edges()[e];
    EXPECT_TRUE(a.from < b.from || (a.from == b.from && a.to < b.to));
  }
}

TEST(CanonicalizeTest, SingleLabelPattern) {
  Pattern p;
  p.AddNode("Z");
  const CanonicalForm c = Canonicalize(p);
  EXPECT_EQ(c.pattern.num_nodes(), 1u);
  EXPECT_EQ(c.pattern.num_edges(), 0u);
  EXPECT_EQ(c.key, Canonicalize(p).key);
}

TEST(ContainmentTest, SelfLoopsAndDuplicateEdgesAreUnrepresentable) {
  // The canonical form leans on patterns rejecting self-loops and
  // duplicate edges (a pattern's edge multiset is a set, and
  // (other-label, direction) identifies an edge uniquely). Pin the
  // invariant here so a parser change can't silently invalidate it.
  Pattern p;
  PatternNodeId a = p.AddNode("A");
  PatternNodeId b = p.AddNode("B");
  EXPECT_FALSE(p.AddEdge(a, a).ok());
  ASSERT_TRUE(p.AddEdge(a, b).ok());
  EXPECT_FALSE(p.AddEdge(a, b).ok());
  // Re-adding a label dedups instead of minting a second node, so
  // "repeated edge labels" collapse to the same edge and stay rejected.
  EXPECT_EQ(p.AddNode("A"), a);
  EXPECT_FALSE(p.AddEdge(a, b).ok());
}

}  // namespace
}  // namespace fgpm
