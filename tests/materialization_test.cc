// Factorized (late-materialized) temporal tables:
//  * TemporalTable delta-column mechanics: GatherColumn over base and
//    delta levels, span-style AppendRow + Reserve, sort-order
//    provenance.
//  * Fixed-plan exact-row-order equality across 1, 4 and 8 threads
//    (same plan, same database), including fused selects.
//  * Randomized differential: executor rows vs the naive matcher over
//    DAG / Erdos-Renyi / scale-free graphs at 1, 4 and 8 threads —
//    row-identical results everywhere.
//  * Bounded LRU plan cache: eviction order, hit/miss counters,
//    capacity 0 disables caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/graph_matcher.h"
#include "exec/naive_matcher.h"
#include "exec/temporal_table.h"
#include "graph/generators.h"
#include "opt/dps_optimizer.h"
#include "opt/explain.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

TEST(TemporalTableTest, DeltaColumnAccessAndGather) {
  // Base block: two columns, three rows; one delta level fanning row 0
  // out twice and row 2 once; a second level extending two of those.
  TemporalTable t;
  t.AddColumn(0);
  t.AddColumn(1);
  const NodeId r0[] = {10, 20};
  const NodeId r1[] = {11, 21};
  t.AppendRow(r0, 2);
  t.AppendRow(r1, 2);
  t.AppendRow(std::vector<NodeId>{12, 22});
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.base_columns(), 2u);

  auto& d1 = t.AddDeltaColumn(2);
  d1.parent = {0, 0, 2};
  d1.value = {30, 31, 32};
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.base_columns(), 2u);
  EXPECT_EQ(t.NumColumns(), 3u);

  auto& d2 = t.AddDeltaColumn(3);
  d2.parent = {1, 2};
  d2.value = {40, 41};
  ASSERT_EQ(t.NumRows(), 2u);

  // Logical rows: (10, 20, 31, 40) and (12, 22, 32, 41) — every column,
  // base and delta, gathered through the parent chains.
  const std::vector<std::vector<NodeId>> want = {
      {10, 12}, {20, 22}, {31, 32}, {40, 41}};
  std::vector<NodeId> col;
  for (size_t c = 0; c < want.size(); ++c) {
    t.GatherColumn(c, &col);
    EXPECT_EQ(col, want[c]) << "column " << c;
  }

  // The base block is untouched by the delta levels.
  EXPECT_EQ(t.raw_rows(), (std::vector<NodeId>{10, 20, 11, 21, 12, 22}));

  // ByteSize counts base ids + (parent, value) pairs.
  EXPECT_EQ(t.ByteSize(), (6 + 3 * 2 + 2 * 2) * 4ull);
}

TEST(TemporalTableTest, ReserveAndSortOrder) {
  TemporalTable t;
  t.AddColumn(0);
  t.Reserve(100, 1);
  EXPECT_GE(t.raw_rows().capacity(), 100u);
  EXPECT_TRUE(t.sorted_by().empty());
  t.set_sorted_by({0});
  EXPECT_EQ(t.sorted_by(), (std::vector<size_t>{0}));
}

// --- fixed-plan equivalence -----------------------------------------------

class MaterializationFixture : public ::testing::Test {
 protected:
  void BuildDb(Graph g) {
    graph_ = std::make_unique<Graph>(std::move(g));
    db_ = std::make_unique<GraphDatabase>();
    ASSERT_TRUE(db_->Build(*graph_).ok());
  }

  // Same database, same plan, several thread counts: rows must be
  // identical in identical ORDER (a stronger contract than set
  // equality; see operators.h).
  // The single-thread rows land in *rows when given.
  void ExpectRowOrderAgreesAcrossThreads(const Pattern& p, const Plan& plan,
                                         RowBlock* rows = nullptr) {
    RowBlock reference;
    for (unsigned threads : {1u, 4u, 8u}) {
      Executor exec(db_.get(), ExecOptions{.num_threads = threads});
      auto r = exec.Execute(p, plan);
      ASSERT_TRUE(r.ok()) << r.status();
      if (threads == 1) {
        reference = r->rows;
      } else {
        EXPECT_EQ(r->rows, reference)
            << "threads=" << threads << " pattern " << p.ToString();
      }
    }
    if (rows != nullptr) *rows = std::move(reference);
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GraphDatabase> db_;
};

TEST_F(MaterializationFixture, FixedPlansRowOrderIdenticalAcrossThreads) {
  BuildDb(gen::ErdosRenyi(220, 700, 5, 17));
  // Chain (fetch chain), star, and a diamond whose closing edge forces a
  // select — the select is fused into the preceding fetch.
  for (const char* q :
       {"L0->L1; L1->L2; L2->L3", "L0->L1; L0->L2; L0->L3",
        "L0->L1; L1->L3; L0->L2; L2->L3", "L0->L1; L1->L2; L0->L2"}) {
    auto p = Pattern::Parse(q);
    ASSERT_TRUE(p.ok());
    auto plan = OptimizeDps(*p, db_->catalog());
    ASSERT_TRUE(plan.ok()) << plan.status();
    ExpectRowOrderAgreesAcrossThreads(*p, *plan);
  }
}

TEST_F(MaterializationFixture, FactorizedAvoidsCopiesOnFetchChains) {
  BuildDb(gen::RandomDag(300, 3.0, 4, 5));
  auto p = Pattern::Parse("L0->L1; L1->L2; L2->L3");
  ASSERT_TRUE(p.ok());
  auto plan = OptimizeDps(*p, db_->catalog());
  ASSERT_TRUE(plan.ok());

  Executor exec(db_.get());
  auto r = exec.Execute(*p, *plan);
  ASSERT_TRUE(r.ok());
  if (r->rows.empty()) GTEST_SKIP() << "empty result; nothing to measure";
  // step_rows covers every executed plan step and ends at the result.
  ASSERT_EQ(r->stats.step_rows.size(), plan->steps.size());
  EXPECT_EQ(r->stats.step_rows.back(), r->stats.result_rows);

  // The est-vs-actual dump renders without blowing up.
  auto exp = ExplainPlan(*p, *plan, db_->catalog());
  ASSERT_TRUE(exp.ok());
  std::string dump = exp->ToStringWithActuals(r->stats);
  EXPECT_NE(dump.find("act. rows"), std::string::npos);
  EXPECT_NE(dump.find("materialized:"), std::string::npos);
}

// The result block is filled in kMaterializeChunkRows row chunks across
// the pool. A fetch chain returning >= 8 chunks of rows (so 4 and 8
// threads really split the fill) and one returning less than a chunk
// (filled inline on the caller) both come back byte-identical, order
// included, at 1, 4 and 8 threads, and as the naive matcher's row set.
TEST_F(MaterializationFixture, ParallelFillKeepsRowOrderAcrossThreads) {
  // A giant SCC: every chain of labels matches, about 139k 4-chains and
  // 12k 3-chains.
  BuildDb(gen::ErdosRenyi(90, 270, 4, 5));
  struct Case {
    const char* pattern;
    bool multi_chunk;
  };
  for (const Case& c : {Case{"L0->L1; L1->L2; L2->L3", true},
                        Case{"L0->L1; L1->L2", false}}) {
    auto p = Pattern::Parse(c.pattern);
    ASSERT_TRUE(p.ok());
    auto plan = OptimizeDps(*p, db_->catalog());
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_TRUE(std::any_of(
        plan->steps.begin(), plan->steps.end(),
        [](const PlanStep& s) { return s.kind == StepKind::kFetch; }))
        << "not a fetch chain: " << c.pattern;

    RowBlock rows;
    ExpectRowOrderAgreesAcrossThreads(*p, *plan, &rows);
    if (c.multi_chunk) {
      EXPECT_GE(rows.size(), 8 * kMaterializeChunkRows) << c.pattern;
    } else {
      EXPECT_GT(rows.size(), 0u) << c.pattern;
      EXPECT_LT(rows.size(), kMaterializeChunkRows) << c.pattern;
    }
    EXPECT_EQ(rows.width(), p->num_nodes());

    auto naive = NaiveMatch(*graph_, *p);
    ASSERT_TRUE(naive.ok());
    naive->SortRows();
    rows.SortRows();
    EXPECT_EQ(rows, naive->rows) << c.pattern;
  }
}

// --- randomized differential ----------------------------------------------

enum class GraphKind { kRandomDag, kErdosRenyi, kScaleFree };

const char* GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kRandomDag:
      return "RandomDag";
    case GraphKind::kErdosRenyi:
      return "ErdosRenyi";
    case GraphKind::kScaleFree:
      return "ScaleFree";
  }
  return "?";
}

Graph MakeGraph(GraphKind kind, uint64_t seed) {
  switch (kind) {
    case GraphKind::kRandomDag:
      return gen::RandomDag(160, 2.6, 5, seed);
    case GraphKind::kErdosRenyi:
      return gen::ErdosRenyi(150, 480, 5, seed);
    case GraphKind::kScaleFree:
      return gen::ScaleFree(150, 3, 5, seed);
  }
  __builtin_unreachable();
}

using ParamT = std::tuple<GraphKind, uint64_t /*seed*/>;

class MaterializationDifferential : public ::testing::TestWithParam<ParamT> {};

TEST_P(MaterializationDifferential, ModesAgreeWithNaiveAcrossThreadCounts) {
  auto [kind, seed] = GetParam();
  Graph g = MakeGraph(kind, seed);

  // One matcher per thread count over the same graph.
  struct Variant {
    unsigned threads;
    std::unique_ptr<GraphMatcher> matcher;
  };
  std::vector<Variant> variants;
  for (unsigned t : {1u, 4u, 8u}) {
    auto m = GraphMatcher::Create(&g, {}, ExecOptions{.num_threads = t});
    ASSERT_TRUE(m.ok()) << m.status();
    variants.push_back({t, std::move(*m)});
  }

  auto patterns = workload::RandomPatterns(g, /*count=*/5, /*nodes=*/3,
                                           /*extra_edges=*/1, seed * 11 + 3);
  auto more = workload::RandomPatterns(g, /*count=*/3, /*nodes=*/4,
                                       /*extra_edges=*/1, seed * 17 + 7);
  patterns.insert(patterns.end(), more.begin(), more.end());
  ASSERT_FALSE(patterns.empty());

  for (const auto& p : patterns) {
    auto expect = variants[0].matcher->Match(p, {.engine = Engine::kNaive});
    ASSERT_TRUE(expect.ok());
    expect->SortRows();
    for (Engine e : {Engine::kDps, Engine::kDp}) {
      for (auto& v : variants) {
        auto r = v.matcher->Match(p, {.engine = e});
        ASSERT_TRUE(r.ok()) << EngineName(e) << ": " << r.status();
        r->SortRows();
        EXPECT_EQ(r->rows, expect->rows)
            << GraphKindName(kind) << " seed " << seed << " engine "
            << EngineName(e) << " threads " << v.threads << " pattern "
            << p.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndSeeds, MaterializationDifferential,
    ::testing::Combine(::testing::Values(GraphKind::kRandomDag,
                                         GraphKind::kErdosRenyi,
                                         GraphKind::kScaleFree),
                       ::testing::Values(2ull, 5ull)),
    [](const ::testing::TestParamInfo<ParamT>& info) {
      return std::string(GraphKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- LRU plan cache --------------------------------------------------------

TEST(PlanCacheTest, LruEvictionAndCounters) {
  Graph g = gen::ErdosRenyi(80, 240, 4, 3);
  auto m = GraphMatcher::Create(&g, {},
                                ExecOptions{.plan_cache_capacity = 2});
  ASSERT_TRUE(m.ok());
  GraphMatcher& matcher = **m;
  EXPECT_EQ(matcher.plan_cache_capacity(), 2u);

  const char* q0 = "L0->L1";
  const char* q1 = "L1->L2";
  const char* q2 = "L2->L3";
  ASSERT_TRUE(matcher.Match(q0).ok());  // miss -> {q0}
  ASSERT_TRUE(matcher.Match(q1).ok());  // miss -> {q1, q0}
  EXPECT_EQ(matcher.plan_cache_size(), 2u);
  EXPECT_EQ(matcher.plan_cache_hits(), 0u);
  EXPECT_EQ(matcher.plan_cache_misses(), 2u);

  ASSERT_TRUE(matcher.Match(q0).ok());  // hit, refreshes q0 -> {q0, q1}
  EXPECT_EQ(matcher.plan_cache_hits(), 1u);

  ASSERT_TRUE(matcher.Match(q2).ok());  // miss, evicts q1 -> {q2, q0}
  EXPECT_EQ(matcher.plan_cache_size(), 2u);
  ASSERT_TRUE(matcher.Match(q0).ok());  // still cached
  EXPECT_EQ(matcher.plan_cache_hits(), 2u);
  ASSERT_TRUE(matcher.Match(q1).ok());  // evicted above -> miss again
  EXPECT_EQ(matcher.plan_cache_misses(), 4u);
  EXPECT_EQ(matcher.plan_cache_size(), 2u);

  matcher.ClearPlanCache();
  EXPECT_EQ(matcher.plan_cache_size(), 0u);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  Graph g = gen::ErdosRenyi(80, 240, 4, 3);
  auto m = GraphMatcher::Create(&g, {},
                                ExecOptions{.plan_cache_capacity = 0});
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->Match("L0->L1").ok());
  ASSERT_TRUE((*m)->Match("L0->L1").ok());
  EXPECT_EQ((*m)->plan_cache_size(), 0u);
  EXPECT_EQ((*m)->plan_cache_hits(), 0u);
}

TEST(PlanCacheTest, DisabledViaMatchOptionsBypassesCache) {
  Graph g = gen::ErdosRenyi(80, 240, 4, 3);
  auto m = GraphMatcher::Create(&g);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->Match("L0->L1", {.use_plan_cache = false}).ok());
  EXPECT_EQ((*m)->plan_cache_size(), 0u);
}

}  // namespace
}  // namespace fgpm
