// Property-based testing: randomized graphs x randomized patterns x all
// engines must produce identical result sets (parameterized sweeps).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

enum class GraphKind { kErdosRenyi, kRandomDag, kScaleFree, kXmark };

const char* GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kErdosRenyi:
      return "ErdosRenyi";
    case GraphKind::kRandomDag:
      return "RandomDag";
    case GraphKind::kScaleFree:
      return "ScaleFree";
    case GraphKind::kXmark:
      return "Xmark";
  }
  return "?";
}

Graph MakeGraph(GraphKind kind, uint64_t seed) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return gen::ErdosRenyi(140, 420, 5, seed);
    case GraphKind::kRandomDag:
      return gen::RandomDag(160, 2.2, 5, seed);
    case GraphKind::kScaleFree:
      return gen::ScaleFree(150, 2, 5, seed);
    case GraphKind::kXmark: {
      gen::XMarkOptions opts;
      opts.factor = 0.0008;
      opts.seed = seed;
      return gen::XMarkLike(opts);
    }
  }
  __builtin_unreachable();
}

using ParamT = std::tuple<GraphKind, uint64_t /*seed*/>;

class EngineAgreement : public ::testing::TestWithParam<ParamT> {};

TEST_P(EngineAgreement, RandomPatternsAllEnginesAgree) {
  auto [kind, seed] = GetParam();
  Graph g = MakeGraph(kind, seed);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  bool dag = IsDag(g);

  auto patterns = workload::RandomPatterns(g, /*count=*/6, /*nodes=*/3,
                                           /*extra_edges=*/1, seed * 7 + 1);
  auto more = workload::RandomPatterns(g, /*count=*/4, /*nodes=*/4,
                                       /*extra_edges=*/1, seed * 13 + 5);
  patterns.insert(patterns.end(), more.begin(), more.end());
  ASSERT_FALSE(patterns.empty());

  for (const auto& p : patterns) {
    Result<MatchResult> expect =
        (*matcher)->Match(p, {.engine = Engine::kNaive});
    ASSERT_TRUE(expect.ok());
    expect->SortRows();
    for (Engine e : {Engine::kDps, Engine::kDp, Engine::kCanonical,
                     Engine::kIntDp, Engine::kTsd}) {
      if (e == Engine::kTsd && !dag) continue;
      auto r = (*matcher)->Match(p, {.engine = e});
      ASSERT_TRUE(r.ok()) << EngineName(e) << " on " << p.ToString() << ": "
                          << r.status();
      r->SortRows();
      EXPECT_EQ(r->rows, expect->rows)
          << GraphKindName(kind) << " seed " << seed << " engine "
          << EngineName(e) << " pattern " << p.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndSeeds, EngineAgreement,
    ::testing::Combine(::testing::Values(GraphKind::kErdosRenyi,
                                         GraphKind::kRandomDag,
                                         GraphKind::kScaleFree,
                                         GraphKind::kXmark),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<ParamT>& info) {
      return std::string(GraphKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Invariant: the number of matches of a pattern never increases when an
// edge (constraint) is added.
class MonotonicityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityProperty, AddingEdgesNeverAddsMatches) {
  uint64_t seed = GetParam();
  Graph g = gen::ErdosRenyi(120, 360, 4, seed);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());

  auto base = Pattern::Parse("L0->L1; L1->L2");
  ASSERT_TRUE(base.ok());
  auto constrained = Pattern::Parse("L0->L1; L1->L2; L0->L3; L3->L2");
  ASSERT_TRUE(constrained.ok());
  auto rb = (*matcher)->Match(*base);
  auto rc = (*matcher)->Match(*constrained);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rc.ok());
  // Project constrained rows onto (L0, L1, L2): every projected tuple
  // must appear in the base result.
  std::set<std::vector<NodeId>> base_rows;
  for (std::span<const NodeId> row : rb->rows) {
    base_rows.emplace(row.begin(), row.end());
  }
  for (const auto& row : rc->rows) {
    std::vector<NodeId> proj{row[0], row[1], row[2]};
    EXPECT_TRUE(base_rows.count(proj));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityProperty,
                         ::testing::Values(11ull, 12ull, 13ull, 14ull));

// Invariant: reversing every pattern edge and swapping data-graph edge
// directions yields the same match count.
class ReversalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReversalProperty, ReversedGraphReversedPatternSameCount) {
  uint64_t seed = GetParam();
  Graph g = gen::RandomDag(120, 2.0, 3, seed);
  Graph rev;
  for (LabelId l = 0; l < g.NumLabels(); ++l) rev.InternLabel(g.LabelName(l));
  for (NodeId v = 0; v < g.NumNodes(); ++v) rev.AddNode(g.label_of(v));
  for (const auto& [u, v] : g.Edges()) {
    ASSERT_TRUE(rev.AddEdge(v, u).ok());
  }
  rev.Finalize();

  auto m1 = GraphMatcher::Create(&g);
  auto m2 = GraphMatcher::Create(&rev);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto p = Pattern::Parse("L0->L1; L1->L2");
  auto pr = Pattern::Parse("L1->L0; L2->L1");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(pr.ok());
  auto r1 = (*m1)->Match(*p);
  auto r2 = (*m2)->Match(*pr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows.size(), r2->rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReversalProperty,
                         ::testing::Values(21ull, 22ull, 23ull));

}  // namespace
}  // namespace fgpm
