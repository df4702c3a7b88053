// Result cache + batched multi-query execution (ctest label `mqo`):
// canonical plan-cache keys, exact cache hits (and fresh execution of
// everything else), MatchBatch row-identity across engines x join
// strategies x thread counts, epoch invalidation after
// ApplyEdgeInsert, and the metrics export.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

std::unique_ptr<GraphMatcher> MakeMatcher(const Graph& g, ExecOptions eo) {
  auto m = GraphMatcher::Create(&g, {}, eo);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(*m);
}

std::vector<std::vector<NodeId>> SortedRows(Result<MatchResult> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  r->SortRows();
  return std::move(r->rows);
}

TEST(PlanCacheCanonicalKeyTest, TwoSpellingsOneMissThenOneHit) {
  Graph g = gen::ErdosRenyi(200, 700, 4, 5);
  auto m = MakeMatcher(g, {});
  // Different statement order AND different parse-order node numbering
  // — under the old raw-text key these were two distinct entries.
  auto r1 = m->Match("L0->L1; L1->L2; L0->L2");
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(m->plan_cache_misses(), 1u);
  EXPECT_EQ(m->plan_cache_hits(), 0u);
  auto r2 = m->Match("L1->L2; L0->L2; L0->L1");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(m->plan_cache_misses(), 1u);
  EXPECT_EQ(m->plan_cache_hits(), 1u);
  EXPECT_EQ(m->plan_cache_size(), 1u);
  // The remapped cached plan answers the second spelling correctly.
  r1->SortRows();
  r2->SortRows();
  EXPECT_EQ(r1->rows.size(), r2->rows.size());
}

TEST(ResultCacheTest, ExactHitServesIdenticalRows) {
  Graph g = gen::ErdosRenyi(300, 1000, 4, 7);
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  auto fresh = m->Match("L0->L1; L1->L2");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->stats.cache_hit, 0);
  // Same pattern, different spelling: exact canonical-key hit. Columns
  // come back in THIS spelling's parse order (L1, L2, L0), so compare
  // against a cache-less execution of the same spelling, not `fresh`.
  auto cached = m->Match("L1->L2; L0->L1");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->stats.cache_hit, 1);
  EXPECT_EQ(fresh->rows.size(), cached->rows.size());
  auto fresh_m = MakeMatcher(g, {});
  cached->SortRows();
  EXPECT_EQ(cached->rows, SortedRows(fresh_m->Match("L1->L2; L0->L1")));
  ASSERT_NE(m->result_cache(), nullptr);
  EXPECT_EQ(m->result_cache()->hits_exact(), 1u);
  EXPECT_GT(m->result_cache()->bytes(), 0u);
}

TEST(ResultCacheTest, ExactHitSkipsPlanning) {
  Graph g = gen::ErdosRenyi(300, 1000, 4, 7);
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  ASSERT_TRUE(m->Match("L0->L1; L1->L2").ok());
  const uint64_t hits = m->plan_cache_hits();
  const uint64_t misses = m->plan_cache_misses();
  // An exact hit is answered from the cached rows without resolving a
  // plan: neither plan-cache counter moves and no optimizer time is
  // charged.
  auto cached = m->Match("L1->L2; L0->L1");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->stats.cache_hit, 1);
  EXPECT_EQ(cached->stats.optimize_ms, 0.0);
  EXPECT_EQ(m->plan_cache_hits(), hits);
  EXPECT_EQ(m->plan_cache_misses(), misses);
}

TEST(ResultCacheTest, LookalikeNeverServedFromCache) {
  Graph g = gen::ErdosRenyi(300, 1200, 4, 13);
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  auto fresh_m = MakeMatcher(g, {});
  // Chain cached; the star has the same label set but another key, so
  // the matcher must execute it fresh — and produce exactly the fresh
  // rows.
  ASSERT_TRUE(m->Match("L0->L1; L1->L2").ok());
  auto star = m->Match("L0->L1; L0->L2");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->stats.cache_hit, 0);
  star->SortRows();
  EXPECT_EQ(star->rows, SortedRows(fresh_m->Match("L0->L1; L0->L2")));
}

TEST(ResultCacheTest, KNeverPolicyOnlyServesExactHits) {
  Graph g = gen::ErdosRenyi(200, 700, 4, 17);
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  ASSERT_TRUE(m->Match("L0->L1; L0->L2").ok());
  // Contained in the cached star (its rows filtered down would answer
  // it), but only exact keys are served: executed fresh.
  auto r = m->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.cache_hit, 0);
  auto exact = m->Match("L0->L2; L0->L1");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->stats.cache_hit, 1);
}

// MatchBatch: results must be row-identical to per-query Match across
// thread counts x engines x join strategies, with dedup doing its
// accounting.
struct BatchCase {
  unsigned threads;
  Engine engine;
  JoinStrategy strategy;
};

// ctest names each case after its printed parameter: the default
// configuration (DPS, hybrid) prints as the bare thread count, the
// others spell out engine and strategy.
void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << c.threads;
  if (c.engine != Engine::kDps || c.strategy != JoinStrategy::kHybrid) {
    *os << "_" << EngineName(c.engine) << "_" << JoinStrategyName(c.strategy);
  }
}

std::vector<BatchCase> BatchCases() {
  std::vector<BatchCase> cases;
  for (unsigned t : {1u, 4u, 8u}) {
    for (Engine e : {Engine::kDps, Engine::kDp, Engine::kCanonical}) {
      for (JoinStrategy s : {JoinStrategy::kBinary, JoinStrategy::kHybrid}) {
        cases.push_back({t, e, s});
      }
    }
  }
  return cases;
}

class BatchDifferential : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchDifferential, MatchesSoloExecution) {
  const auto [threads, engine, strategy] = GetParam();
  Graph g = gen::ErdosRenyi(400, 1600, 5, 31);
  ExecOptions eo;
  eo.num_threads = threads;
  eo.join_strategy = strategy;
  auto m = MakeMatcher(g, eo);
  auto solo = MakeMatcher(g, eo);
  std::vector<std::string> batch = {
      "L0->L1; L1->L2",
      "L1->L2; L0->L1",          // spelling of #0: dedup
      "L0->L1; L0->L2",          // star sharing #0's L0->L1 edge
      "L1->L2; L1->L3",
      "L0->L1; L1->L2; L0->L2",  // chord
      "L2->L3",
      "L0->L1; L1->L2",          // outright repeat
      "L3->L4; L2->L3",
  };
  BatchStats bs;
  auto results = m->MatchBatch(batch, {.engine = engine}, &bs);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), batch.size());
  EXPECT_EQ(bs.queries, batch.size());
  EXPECT_EQ(bs.unique_queries, batch.size() - 2);  // #1 and #6 dedup
  for (size_t i = 0; i < batch.size(); ++i) {
    MatchResult& r = (*results)[i];
    r.SortRows();
    EXPECT_EQ(r.rows, SortedRows(solo->Match(batch[i], {.engine = engine})))
        << EngineName(engine) << " " << JoinStrategyName(strategy)
        << " t=" << threads << " query " << i << ": " << batch[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchDifferential,
                         ::testing::ValuesIn(BatchCases()));

TEST(BatchTest, CacheAndBatchCompose) {
  Graph g = gen::ErdosRenyi(300, 1200, 4, 37);
  ExecOptions eo;
  eo.num_threads = 4;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  std::vector<std::string> warm = {"L0->L1; L1->L2", "L0->L1; L0->L2"};
  ASSERT_TRUE(m->MatchBatch(warm).ok());
  // Second round: one exact repeat, one specific contained in a warm
  // pattern (executed fresh: only exact keys hit), one new.
  std::vector<std::string> round2 = {"L1->L2; L0->L1",
                                     "L0->L1; L1->L2; L0->L2", "L2->L3"};
  BatchStats bs;
  auto results = m->MatchBatch(round2, {}, &bs);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ((*results)[0].stats.cache_hit, 1);
  EXPECT_EQ((*results)[1].stats.cache_hit, 0);
  EXPECT_EQ((*results)[2].stats.cache_hit, 0);
  EXPECT_EQ(bs.cache_exact, 1u);
  auto solo = MakeMatcher(g, {});
  for (size_t i = 0; i < round2.size(); ++i) {
    (*results)[i].SortRows();
    EXPECT_EQ((*results)[i].rows, SortedRows(solo->Match(round2[i]))) << i;
  }
}

TEST(BatchTest, RejectsUnplannedEngines) {
  Graph g = gen::ErdosRenyi(50, 150, 3, 41);
  auto m = MakeMatcher(g, {});
  std::vector<std::string> batch = {"L0->L1"};
  EXPECT_EQ(m->MatchBatch(batch, {.engine = Engine::kNaive}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchTest, ProjectionAppliesPerQuery) {
  Graph g = gen::ErdosRenyi(200, 800, 4, 43);
  auto m = MakeMatcher(g, {});
  std::vector<std::string> batch = {"L0->L1; L1->L2"};
  MatchOptions opts;
  opts.projection = {"L2", "L0"};
  auto results = m->MatchBatch(batch, opts);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ((*results)[0].column_labels.size(), 2u);
  EXPECT_EQ((*results)[0].column_labels[0], "L2");
  EXPECT_EQ((*results)[0].column_labels[1], "L0");
}

TEST(EpochInvalidationTest, EdgeInsertDropsBothCaches) {
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  NodeId c = g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  g.Finalize();
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);

  auto before = m->Match("A->B; B->C");
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->rows.empty());  // no B ~> C yet
  EXPECT_GT(m->plan_cache_size(), 0u);
  // A repeat is served from the result cache...
  auto repeat = m->Match("A->B; B->C");
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->stats.cache_hit, 1);

  // ...until an edge insert moves the database epoch.
  ASSERT_TRUE(g.AddEdge(b, c).ok());
  g.Finalize();
  ASSERT_TRUE(m->db().ApplyEdgeInsert(g, b, c).ok());
  auto after = m->Match("A->B; B->C");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.cache_hit, 0);  // stale rows were NOT served
  EXPECT_EQ(after->rows.size(), 1u);     // and the new edge is visible
  EXPECT_GE(m->cache_invalidations(), 1u);
}

TEST(CacheMetricsTest, CountersReachTheRegistry) {
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled";
  auto& reg = obs::MetricsRegistry::Default();
  auto snap = [&](const char* name) {
    return reg.GetCounter(name)->Value();
  };
  const uint64_t hits0 = snap("fgpm_result_cache_hits_total");
  const uint64_t miss0 = snap("fgpm_result_cache_misses_total");
  const uint64_t ins0 = snap("fgpm_result_cache_inserts_total");
  const uint64_t inval0 = snap("fgpm_cache_invalidations_total");

  Graph g = gen::ErdosRenyi(150, 500, 4, 47);
  ExecOptions eo;
  eo.use_result_cache = true;
  auto m = MakeMatcher(g, eo);
  ASSERT_TRUE(m->Match("L0->L1; L1->L2").ok());  // miss + insert
  ASSERT_TRUE(m->Match("L0->L1; L1->L2").ok());  // exact hit
  m->InvalidatePlanCache();

  EXPECT_EQ(snap("fgpm_result_cache_hits_total"), hits0 + 1);
  EXPECT_GE(snap("fgpm_result_cache_misses_total"), miss0 + 1);
  EXPECT_GE(snap("fgpm_result_cache_inserts_total"), ins0 + 1);
  EXPECT_EQ(snap("fgpm_cache_invalidations_total"), inval0 + 1);

  // Both exporters carry the new families.
  const std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("fgpm_result_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("fgpm_result_cache_bytes"), std::string::npos);
  EXPECT_NE(prom.find("fgpm_batch_queries_total"), std::string::npos);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("fgpm_result_cache_misses_total"), std::string::npos);
}

TEST(ResultCacheTest, BudgetEvictsLru) {
  Graph g = gen::ErdosRenyi(300, 1200, 4, 53);
  ExecOptions eo;
  eo.use_result_cache = true;
  eo.result_cache_mb = 0;  // zero budget: nothing is ever cacheable
  auto m = MakeMatcher(g, eo);
  ASSERT_TRUE(m->Match("L0->L1; L1->L2").ok());
  auto r = m->Match("L0->L1; L1->L2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.cache_hit, 0);  // never inserted, never hit
  ASSERT_NE(m->result_cache(), nullptr);
  EXPECT_EQ(m->result_cache()->size(), 0u);
}

}  // namespace
}  // namespace fgpm
