// Flat-arena code layout: serialization round-trips of both builders'
// labelings (codes, cover size and probe verdicts survive SaveMeta /
// LoadMeta) and rejection of truncated metadata.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "reach/two_hop.h"

namespace fgpm {
namespace {

// Nodes with no edges at all: after compaction every stored code is
// empty (a node's only label entry is itself, which the compact layout
// strips).
Graph IsolatedNodes(uint32_t n) {
  Graph g;
  for (uint32_t i = 0; i < n; ++i) g.AddNode(i % 2 == 0 ? "A" : "B");
  g.Finalize();
  return g;
}

// One big cycle: a single SCC, one center, every pair reachable.
Graph SingleScc(uint32_t n) {
  Graph g;
  std::vector<NodeId> ids;
  for (uint32_t i = 0; i < n; ++i) ids.push_back(g.AddNode("C"));
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(ids[i], ids[(i + 1) % n]).ok());
  }
  g.Finalize();
  return g;
}

void ExpectSameLabeling(const TwoHopLabeling& a, const TwoHopLabeling& b,
                        const Graph& g) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_centers(), b.num_centers());
  EXPECT_EQ(a.CoverSize(), b.CoverSize());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(a.CenterOf(v), b.CenterOf(v));
    EXPECT_TRUE(std::ranges::equal(a.InCode(v), b.InCode(v))) << "v=" << v;
    EXPECT_TRUE(std::ranges::equal(a.OutCode(v), b.OutCode(v))) << "v=" << v;
  }
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    EXPECT_EQ(a.Reaches(u, v), b.Reaches(u, v)) << "u=" << u << " v=" << v;
  }
}

class CodeLayoutRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CodeLayoutRoundTrip, GeneratedDags) {
  const uint64_t seed_offset = GetParam();
  std::vector<Graph> graphs;
  graphs.push_back(gen::RandomDag(300, 2.0, 3, 41 + seed_offset));
  graphs.push_back(gen::ErdosRenyi(250, 700, 3, 42 + seed_offset));
  graphs.push_back(IsolatedNodes(40));
  graphs.push_back(SingleScc(25));
  for (const Graph& g : graphs) {
    TwoHopLabeling lab = BuildTwoHopPruned(g);
    std::stringstream ss;
    BinaryWriter w(&ss);
    lab.SaveMeta(&w);
    ASSERT_TRUE(w.ok());
    TwoHopLabeling back;
    BinaryReader r(&ss);
    ASSERT_TRUE(back.LoadMeta(&r).ok());
    ExpectSameLabeling(lab, back, g);
  }
}

// The values offset the generator seeds, so each instance round-trips a
// different pair of random graphs. The instantiation keeps the name and
// values it had when the parameter was a bitmap threshold, so the test
// ids stay stable.
INSTANTIATE_TEST_SUITE_P(Thresholds, CodeLayoutRoundTrip,
                         ::testing::Values(0u, 2u, 128u, 1u << 30));

TEST(CodeLayoutTest, TruncatedMetaIsRejected) {
  Graph g = gen::RandomDag(60, 1.5, 2, 43);
  TwoHopLabeling lab = BuildTwoHopPruned(g);
  std::stringstream ss;
  BinaryWriter w(&ss);
  lab.SaveMeta(&w);
  ASSERT_TRUE(w.ok());
  std::string bytes = ss.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  BinaryReader r(&cut);
  TwoHopLabeling back;
  EXPECT_FALSE(back.LoadMeta(&r).ok());
}

TEST(CodeLayoutTest, GreedyBuilderRoundTripsToo) {
  Graph g = gen::RandomDag(80, 1.8, 2, 47);
  TwoHopLabeling lab = BuildTwoHopGreedy(g);
  std::stringstream ss;
  BinaryWriter w(&ss);
  lab.SaveMeta(&w);
  ASSERT_TRUE(w.ok());
  TwoHopLabeling back;
  BinaryReader r(&ss);
  ASSERT_TRUE(back.LoadMeta(&r).ok());
  ExpectSameLabeling(lab, back, g);
}

}  // namespace
}  // namespace fgpm
