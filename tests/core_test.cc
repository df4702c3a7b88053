#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>

#include "core/graph_matcher.h"
#include "graph/generators.h"

namespace fgpm {
namespace {

TEST(GraphMatcherTest, CreateRejectsUnfinalizedGraph) {
  Graph g;
  g.AddNode("A");
  EXPECT_EQ(GraphMatcher::Create(&g).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GraphMatcher::Create(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphMatcherTest, QuickstartFlow) {
  Graph g = gen::SupplyChain(30, 1);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  // The paper's motivating pattern.
  auto r = (*matcher)->Match(
      "Supplier->Retailer; Supplier->Wholeseller; Bank->Supplier; "
      "Bank->Retailer; Bank->Wholeseller");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->column_labels.size(), 4u);
  EXPECT_GT(r->stats.elapsed_ms, 0.0);
}

TEST(GraphMatcherTest, AllEnginesAgreeOnDagData) {
  Graph g = gen::RandomDag(200, 2.2, 4, 5);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  const char* q = "L0->L1; L1->L2; L1->L3";
  Result<MatchResult> expect = (*matcher)->Match(q, {.engine = Engine::kNaive});
  ASSERT_TRUE(expect.ok());
  expect->SortRows();
  for (Engine e : {Engine::kDps, Engine::kDp, Engine::kCanonical,
                   Engine::kIntDp, Engine::kTsd}) {
    auto r = (*matcher)->Match(q, {.engine = e});
    ASSERT_TRUE(r.ok()) << EngineName(e) << ": " << r.status();
    r->SortRows();
    EXPECT_EQ(r->rows, expect->rows) << EngineName(e);
  }
}

TEST(GraphMatcherTest, TsdRefusesCyclicData) {
  Graph g = gen::ErdosRenyi(100, 400, 3, 7);
  ASSERT_FALSE(IsDag(g));
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  auto r = (*matcher)->Match("L0->L1", {.engine = Engine::kTsd});
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Other engines handle cycles fine.
  EXPECT_TRUE((*matcher)->Match("L0->L1", {.engine = Engine::kDps}).ok());
  EXPECT_TRUE((*matcher)->Match("L0->L1", {.engine = Engine::kIntDp}).ok());
}

TEST(GraphMatcherTest, TransitiveReductionPreservesResults) {
  Graph g = gen::RandomDag(150, 2.5, 3, 9);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  const char* q = "L0->L1; L1->L2; L0->L2";  // L0->L2 is NOT redundant
  const char* chain = "L0->L1; L1->L2";
  auto plain = (*matcher)->Match(q);
  auto reduced = (*matcher)->Match(q, {.transitive_reduction = true});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reduced.ok());
  plain->SortRows();
  reduced->SortRows();
  // Reachability is transitive, so the chord is implied by the chain and
  // reduction must not change the result set.
  EXPECT_EQ(plain->rows, reduced->rows);
  auto chain_r = (*matcher)->Match(chain);
  ASSERT_TRUE(chain_r.ok());
  EXPECT_EQ(plain->rows.size(), chain_r->rows.size());
}

TEST(GraphMatcherTest, PlanExposesOptimizedPlans) {
  Graph g = gen::ErdosRenyi(100, 300, 4, 11);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  auto p = Pattern::Parse("L0->L1; L1->L2");
  ASSERT_TRUE(p.ok());
  for (Engine e : {Engine::kDps, Engine::kDp, Engine::kCanonical}) {
    auto plan = (*matcher)->MakePlan(*p, e);
    ASSERT_TRUE(plan.ok()) << EngineName(e);
    EXPECT_TRUE(plan->Validate(*p).ok());
    EXPECT_FALSE(plan->ToString(*p).empty());
  }
  EXPECT_FALSE((*matcher)->MakePlan(*p, Engine::kTsd).ok());
}

TEST(GraphMatcherTest, ParseErrorsPropagate) {
  Graph g = gen::ErdosRenyi(50, 100, 2, 13);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ((*matcher)->Match("L0->").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphMatcherTest, EngineNamesStable) {
  EXPECT_STREQ(EngineName(Engine::kDps), "DPS");
  EXPECT_STREQ(EngineName(Engine::kDp), "DP");
  EXPECT_STREQ(EngineName(Engine::kIntDp), "INT-DP");
  EXPECT_STREQ(EngineName(Engine::kTsd), "TSD");
  EXPECT_STREQ(EngineName(Engine::kNaive), "NAIVE");
  EXPECT_STREQ(EngineName(Engine::kCanonical), "CANONICAL");
}

TEST(GraphMatcherTest, IoStatsTrackExecution) {
  Graph g = gen::ErdosRenyi(300, 900, 4, 17);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  auto r = (*matcher)->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.io.pool_hits + r->stats.io.pool_misses, 0u);
}


TEST(GraphMatcherTest, FromSavedDatabase) {
  Graph g = gen::ErdosRenyi(150, 450, 3, 19);
  std::string path = ::testing::TempDir() + "/matcher_db.fgpm";
  RowBlock want;
  {
    auto matcher = GraphMatcher::Create(&g);
    ASSERT_TRUE(matcher.ok());
    auto r = (*matcher)->Match("L0->L1; L1->L2");
    ASSERT_TRUE(r.ok());
    r->SortRows();
    want = r->rows;
    ASSERT_TRUE((*matcher)->db().Save(path).ok());
  }
  auto db = GraphDatabase::Open(path);
  ASSERT_TRUE(db.ok());
  auto matcher = GraphMatcher::FromDatabase(*std::move(db));
  ASSERT_TRUE(matcher.ok());
  auto r = (*matcher)->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r.ok());
  r->SortRows();
  EXPECT_EQ(r->rows, want);
  // Graph-dependent engines refuse gracefully without the graph.
  EXPECT_EQ((*matcher)->Match("L0->L1", {.engine = Engine::kNaive})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*matcher)->Match("L0->L1", {.engine = Engine::kIntDp})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(GraphMatcherTest, FromDatabaseWithGraphEnablesBaselines) {
  Graph g = gen::RandomDag(100, 2.0, 3, 21);
  std::string path = ::testing::TempDir() + "/matcher_db2.fgpm";
  {
    auto matcher = GraphMatcher::Create(&g);
    ASSERT_TRUE(matcher.ok());
    ASSERT_TRUE((*matcher)->db().Save(path).ok());
  }
  auto db = GraphDatabase::Open(path);
  ASSERT_TRUE(db.ok());
  auto matcher = GraphMatcher::FromDatabase(*std::move(db), &g);
  ASSERT_TRUE(matcher.ok());
  auto dps = (*matcher)->Match("L0->L1");
  auto tsd = (*matcher)->Match("L0->L1", {.engine = Engine::kTsd});
  ASSERT_TRUE(dps.ok());
  ASSERT_TRUE(tsd.ok());
  EXPECT_EQ(dps->rows.size(), tsd->rows.size());
  std::remove(path.c_str());
}

TEST(GraphMatcherTest, FromDatabaseRejectsNull) {
  EXPECT_EQ(GraphMatcher::FromDatabase(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}


TEST(GraphMatcherTest, ProjectionDeduplicates) {
  Graph g = gen::ErdosRenyi(120, 360, 3, 23);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  auto full = (*matcher)->Match("L0->L1; L1->L2");
  ASSERT_TRUE(full.ok());
  MatchOptions opts;
  opts.projection = {"L0", "L2"};
  auto proj = (*matcher)->Match("L0->L1; L1->L2", opts);
  ASSERT_TRUE(proj.ok());
  ASSERT_EQ(proj->column_labels,
            (std::vector<std::string>{"L0", "L2"}));
  // Projection can only shrink (distinct pairs <= distinct triples).
  EXPECT_LE(proj->rows.size(), full->rows.size());
  // Every projected row comes from some full row.
  std::set<std::pair<NodeId, NodeId>> expect;
  for (const auto& row : full->rows) expect.insert({row[0], row[2]});
  EXPECT_EQ(proj->rows.size(), expect.size());
  for (const auto& row : proj->rows) {
    EXPECT_TRUE(expect.count({row[0], row[1]}));
  }
}

TEST(GraphMatcherTest, ProjectionUnknownLabelRejected) {
  Graph g = gen::ErdosRenyi(50, 100, 2, 29);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  MatchOptions opts;
  opts.projection = {"Nope"};
  EXPECT_EQ((*matcher)->Match("L0->L1", opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphMatcherTest, ProjectionAppliesToAllEngines) {
  Graph g = gen::RandomDag(100, 2.0, 3, 31);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  MatchOptions base;
  base.projection = {"L1"};
  std::optional<size_t> expect;
  for (Engine e : {Engine::kDps, Engine::kDp, Engine::kIntDp, Engine::kTsd,
                   Engine::kNaive}) {
    MatchOptions opts = base;
    opts.engine = e;
    auto r = (*matcher)->Match("L0->L1; L1->L2", opts);
    ASSERT_TRUE(r.ok()) << EngineName(e);
    EXPECT_EQ(r->column_labels.size(), 1u);
    if (!expect) {
      expect = r->rows.size();
    } else {
      EXPECT_EQ(r->rows.size(), *expect) << EngineName(e);
    }
  }
}

TEST(GraphMatcherTest, PlanCacheReuseAndBypass) {
  Graph g = gen::ErdosRenyi(150, 450, 3, 37);
  auto matcher = GraphMatcher::Create(&g);
  ASSERT_TRUE(matcher.ok());
  EXPECT_EQ((*matcher)->plan_cache_size(), 0u);
  auto r1 = (*matcher)->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*matcher)->plan_cache_size(), 1u);
  auto r2 = (*matcher)->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*matcher)->plan_cache_size(), 1u);
  r1->SortRows();
  r2->SortRows();
  EXPECT_EQ(r1->rows, r2->rows);
  // Different engine -> separate cache entry.
  auto r3 = (*matcher)->Match("L0->L1; L1->L2", {.engine = Engine::kDp});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ((*matcher)->plan_cache_size(), 2u);
  // Bypass leaves the cache untouched.
  MatchOptions nocache;
  nocache.use_plan_cache = false;
  auto r4 = (*matcher)->Match("L1->L2", nocache);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ((*matcher)->plan_cache_size(), 2u);
  (*matcher)->ClearPlanCache();
  EXPECT_EQ((*matcher)->plan_cache_size(), 0u);
}

}  // namespace
}  // namespace fgpm
