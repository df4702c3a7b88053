// WCOJ operator and planner tests:
//  * Randomized differential on cyclic patterns (triangles through
//    5-cliques, cycles, diamonds): the kWcoj and kHybrid strategies vs
//    the naive matcher AND vs the binary-plan strategy, at 1, 4 and 8
//    threads — with the exact row-order determinism contract across
//    thread counts.
//  * Hybrid gating: acyclic patterns never get bind steps; forced kWcoj
//    produces pure scan+bind plans that validate.
//  * Plan-cache regression: the cache key includes the join strategy,
//    so toggling strategies never replays a stale plan.
//  * Plan validation rejects malformed bind steps.
//  * EXPLAIN ANALYZE renders bind steps with per-vertex candidate
//    estimates.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "opt/wcoj_planner.h"

namespace fgpm {
namespace {

// Cyclic pattern-graph shapes (labels L0.. resolve in every generated
// graph below). Edges are reachability constraints; what matters for
// WCOJ is the undirected cycle structure of the pattern graph.
const char* kTriangle = "L0->L1; L0->L2; L1->L2";
const char* kDirectedTriangle = "L0->L1; L1->L2; L2->L0";
const char* kDiamond = "L0->L1; L0->L2; L1->L3; L2->L3";
const char* kFourClique = "L0->L1; L0->L2; L0->L3; L1->L2; L1->L3; L2->L3";
const char* kFiveClique =
    "L0->L1; L0->L2; L0->L3; L0->L4; L1->L2; L1->L3; L1->L4; L2->L3; "
    "L2->L4; L3->L4";
const char* kFiveCycle = "L0->L1; L1->L2; L2->L3; L3->L4; L0->L4";

struct StrategyCase {
  JoinStrategy strategy;
  const char* name;
};

class WcojDifferential
    : public ::testing::TestWithParam<std::tuple<int /*graph*/, uint64_t>> {};

Graph MakeTestGraph(int kind, uint64_t seed) {
  switch (kind) {
    case 0:
      // Small and sparse on purpose: reachability on a cyclic graph is
      // dense, so result sets (and the naive oracle) explode quickly.
      return gen::ErdosRenyi(60, 120, 5, seed);  // cyclic, has SCCs
    default:
      return gen::RandomDag(140, 1.8, 5, seed);  // sparse reachability
  }
}

TEST_P(WcojDifferential, CyclicPatternsMatchNaiveAndBinary) {
  auto [kind, seed] = GetParam();
  Graph g = MakeTestGraph(kind, seed);

  // One matcher per thread count; strategies toggle on the same
  // matcher via set_join_strategy (exercising the cache key).
  struct M {
    unsigned threads;
    std::unique_ptr<GraphMatcher> matcher;
  };
  std::vector<M> ms;
  for (unsigned t : {1u, 4u, 8u}) {
    ExecOptions eo;
    eo.num_threads = t;
    auto m = GraphMatcher::Create(&g, {}, eo);
    ASSERT_TRUE(m.ok()) << m.status();
    ms.push_back({t, std::move(*m)});
  }

  std::vector<std::string> patterns = {kTriangle, kDiamond, kFourClique,
                                       kFiveCycle};
  if (kind == 0) patterns.push_back(kDirectedTriangle);
  if (kind != 0) patterns.push_back(kFiveClique);

  for (const std::string& text : patterns) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.ok()) << text;
    auto expect = ms[0].matcher->Match(*p, {.engine = Engine::kNaive});
    ASSERT_TRUE(expect.ok()) << expect.status();
    expect->SortRows();

    for (Engine e : {Engine::kDps, Engine::kDp}) {
      for (const StrategyCase& sc :
           {StrategyCase{JoinStrategy::kBinary, "binary"},
            StrategyCase{JoinStrategy::kWcoj, "wcoj"},
            StrategyCase{JoinStrategy::kHybrid, "hybrid"}}) {
        RowBlock single_rows;
        for (M& m : ms) {
          m.matcher->set_join_strategy(sc.strategy);
          auto r = m.matcher->Match(*p, {.engine = e});
          ASSERT_TRUE(r.ok()) << sc.name << ": " << r.status();
          // Determinism: identical row order across thread counts
          // within one strategy.
          if (m.threads == 1) {
            single_rows = r->rows;
          } else {
            EXPECT_EQ(r->rows, single_rows)
                << sc.name << " threads " << m.threads
                << " differs from single-threaded rows, " << text;
          }
          r->SortRows();
          EXPECT_EQ(r->rows, expect->rows)
              << EngineName(e) << "/" << sc.name << " threads " << m.threads
              << " pattern " << text;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndSeeds, WcojDifferential,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(1ull, 5ull)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return std::string(std::get<0>(info.param) == 0 ? "ErdosRenyi"
                                                      : "RandomDag") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(WcojPlannerTest, CyclicCoreDetection) {
  auto tri = Pattern::Parse(kTriangle);
  ASSERT_TRUE(tri.ok());
  PatternCore core = FindCyclicCore(*tri);
  EXPECT_TRUE(core.has_core());
  EXPECT_EQ(core.core_nodes.size(), 3u);
  EXPECT_EQ(core.core_edges.size(), 3u);
  EXPECT_TRUE(core.appendage_edges.empty());

  // Path: no core.
  auto path = Pattern::Parse("L0->L1; L1->L2; L2->L3");
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(FindCyclicCore(*path).has_core());

  // Triangle with a pendant: pendant edge is an appendage.
  auto pendant = Pattern::Parse("L0->L1; L0->L2; L1->L2; L2->L3");
  ASSERT_TRUE(pendant.ok());
  PatternCore pc = FindCyclicCore(*pendant);
  EXPECT_TRUE(pc.has_core());
  EXPECT_EQ(pc.core_nodes.size(), 3u);
  EXPECT_EQ(pc.appendage_edges.size(), 1u);
}

TEST(WcojPlannerTest, ForcedWcojPlanIsScanPlusBinds) {
  Graph g = gen::RandomDag(80, 1.5, 4, 3);
  ExecOptions eo;
  eo.join_strategy = JoinStrategy::kWcoj;
  auto m = GraphMatcher::Create(&g, {}, eo);
  ASSERT_TRUE(m.ok());
  auto p = Pattern::Parse(kFourClique);
  ASSERT_TRUE(p.ok());
  auto plan = (*m)->MakePlan(*p, Engine::kDps);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->steps.size(), 4u);  // scan + 3 binds
  EXPECT_EQ(plan->steps[0].kind, StepKind::kScanBase);
  size_t consumed = 0;
  for (size_t i = 1; i < plan->steps.size(); ++i) {
    EXPECT_EQ(plan->steps[i].kind, StepKind::kWcojBind);
    consumed += plan->steps[i].wcoj_edges.size();
  }
  EXPECT_EQ(consumed, p->num_edges());
  EXPECT_TRUE(plan->Validate(*p).ok());
  EXPECT_GT(plan->estimated_cost, 0.0);
}

TEST(WcojPlannerTest, HybridKeepsBinaryPlansOnAcyclicPatterns) {
  Graph g = gen::RandomDag(80, 1.5, 4, 3);
  ExecOptions eo;
  eo.join_strategy = JoinStrategy::kHybrid;
  auto m = GraphMatcher::Create(&g, {}, eo);
  ASSERT_TRUE(m.ok());
  for (const char* text : {"L0->L1; L1->L2; L2->L3", "L0->L1; L0->L2",
                           "L0->L1; L1->L2; L1->L3"}) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.ok());
    for (Engine e : {Engine::kDps, Engine::kDp}) {
      auto plan = (*m)->MakePlan(*p, e);
      ASSERT_TRUE(plan.ok());
      for (const PlanStep& s : plan->steps) {
        EXPECT_NE(s.kind, StepKind::kWcojBind)
            << text << " got a bind step under " << EngineName(e);
      }
    }
  }
}

TEST(WcojPlanValidationTest, RejectsMalformedBindSteps) {
  auto p = Pattern::Parse(kTriangle);
  ASSERT_TRUE(p.ok());

  // Empty constraint list.
  {
    Plan plan;
    plan.steps.push_back(PlanStep::ScanBase(0));
    plan.steps.push_back(PlanStep::WcojBind(1, {}));
    EXPECT_FALSE(plan.Validate(*p).ok());
  }
  // Binding an already-bound vertex.
  {
    Plan plan;
    plan.steps.push_back(PlanStep::ScanBase(0));
    plan.steps.push_back(PlanStep::WcojBind(0, {0}));
    EXPECT_FALSE(plan.Validate(*p).ok());
  }
  // Constraint edge not touching the bound vertex: edge 2 is L1->L2,
  // vertex 1 bound via edge 0 first; binding vertex 2 with edge 0
  // (L0->L1) does not touch vertex 2.
  {
    Plan plan;
    plan.steps.push_back(PlanStep::ScanBase(0));
    plan.steps.push_back(PlanStep::WcojBind(1, {0}));
    plan.steps.push_back(PlanStep::WcojBind(2, {0}));
    EXPECT_FALSE(plan.Validate(*p).ok());
  }
  // Edge whose other endpoint is unbound.
  {
    Plan plan;
    plan.steps.push_back(PlanStep::ScanBase(0));
    plan.steps.push_back(PlanStep::WcojBind(1, {0, 2}));  // edge 2: L1->L2
    EXPECT_FALSE(plan.Validate(*p).ok());
  }
  // A correct scan + bind + bind triangle plan validates.
  {
    Plan plan;
    plan.steps.push_back(PlanStep::ScanBase(0));
    plan.steps.push_back(PlanStep::WcojBind(1, {0}));
    plan.steps.push_back(PlanStep::WcojBind(2, {1, 2}));
    EXPECT_TRUE(plan.Validate(*p).ok());
  }
}

TEST(WcojPlanCacheTest, CacheKeyIncludesJoinStrategy) {
  Graph g = gen::ErdosRenyi(90, 220, 4, 7);
  auto m = GraphMatcher::Create(&g, {}, {});  // default kHybrid
  ASSERT_TRUE(m.ok());
  auto p = Pattern::Parse(kTriangle);
  ASSERT_TRUE(p.ok());

  auto r1 = (*m)->Match(*p, {.engine = Engine::kDps});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*m)->plan_cache_size(), 1u);

  // Regression: before the strategy was part of the key, this lookup
  // hit the hybrid plan and executed it under kBinary.
  (*m)->set_join_strategy(JoinStrategy::kBinary);
  auto r2 = (*m)->Match(*p, {.engine = Engine::kDps});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*m)->plan_cache_size(), 2u);
  EXPECT_EQ((*m)->plan_cache_hits(), 0u);

  (*m)->set_join_strategy(JoinStrategy::kWcoj);
  auto r3 = (*m)->Match(*p, {.engine = Engine::kDps});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ((*m)->plan_cache_size(), 3u);

  // Same strategy again: now it hits.
  auto r4 = (*m)->Match(*p, {.engine = Engine::kDps});
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ((*m)->plan_cache_size(), 3u);
  EXPECT_EQ((*m)->plan_cache_hits(), 1u);

  // All three strategies agree on the result set.
  r1->SortRows();
  r2->SortRows();
  r3->SortRows();
  EXPECT_EQ(r1->rows, r2->rows);
  EXPECT_EQ(r1->rows, r3->rows);
}

TEST(WcojExplainTest, BindStepsRenderCandidateEstimates) {
  Graph g = gen::ErdosRenyi(90, 220, 4, 9);
  ExecOptions eo;
  eo.join_strategy = JoinStrategy::kWcoj;
  auto m = GraphMatcher::Create(&g, {}, eo);
  ASSERT_TRUE(m.ok());
  auto ea = (*m)->ExplainAnalyze(kTriangle, {.engine = Engine::kDps});
  ASSERT_TRUE(ea.ok()) << ea.status();
  EXPECT_NE(ea->report.find("BIND("), std::string::npos) << ea->report;
  EXPECT_NE(ea->report.find("cands/row"), std::string::npos) << ea->report;
  EXPECT_NE(ea->report.find("wcoj:"), std::string::npos) << ea->report;
  // The estimates replay the planner's own charges.
  EXPECT_NEAR(ea->explanation.total_cost,
              (*m)->MakePlan(*Pattern::Parse(kTriangle), Engine::kDps)
                  ->estimated_cost,
              1e-6);
  // Execution under the same call is still exact.
  auto naive = (*m)->Match(kTriangle, {.engine = Engine::kNaive});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(ea->result.rows.size(), naive->rows.size());
}

}  // namespace
}  // namespace fgpm
