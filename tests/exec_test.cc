#include <gtest/gtest.h>

#include <memory>

#include "exec/engine.h"
#include "exec/naive_matcher.h"
#include "exec/plan.h"
#include "graph/generators.h"
#include "query/pattern.h"

namespace fgpm {
namespace {

// Paper Figure 1(a) embedding (same as graph_test).
Graph PaperFigure1() {
  Graph g;
  NodeId a0 = g.AddNode("A");
  NodeId b[7], c[4], d[6], e[8];
  for (auto& x : b) x = g.AddNode("B");
  for (auto& x : c) x = g.AddNode("C");
  for (auto& x : d) x = g.AddNode("D");
  for (auto& x : e) x = g.AddNode("E");
  auto E = [&](NodeId u, NodeId v) { EXPECT_TRUE(g.AddEdge(u, v).ok()); };
  E(a0, c[0]);
  E(a0, b[2]);
  E(a0, b[3]);
  E(a0, b[4]);
  E(a0, b[5]);
  E(a0, b[6]);
  E(b[0], c[1]);
  E(b[2], c[1]);
  E(b[3], c[2]);
  E(b[4], c[2]);
  E(b[5], c[3]);
  E(b[6], c[3]);
  E(c[0], d[0]);
  E(c[0], d[1]);
  E(c[1], d[2]);
  E(c[1], d[3]);
  E(c[3], d[4]);
  E(c[3], d[5]);
  E(c[2], e[2]);
  E(d[2], e[1]);
  E(c[0], e[0]);
  E(c[1], e[7]);
  g.Finalize();
  return g;
}

class ExecFixture : public ::testing::Test {
 protected:
  void BuildDb(Graph g) {
    graph_ = std::make_unique<Graph>(std::move(g));
    db_ = std::make_unique<GraphDatabase>();
    ASSERT_TRUE(db_->Build(*graph_).ok());
    exec_ = std::make_unique<Executor>(db_.get());
  }

  void ExpectMatchesNaive(const Pattern& p, const Plan& plan) {
    auto got = exec_->Execute(p, plan);
    ASSERT_TRUE(got.ok()) << got.status();
    auto want = NaiveMatch(*graph_, p);
    ASSERT_TRUE(want.ok()) << want.status();
    got->SortRows();
    want->SortRows();
    EXPECT_EQ(got->rows, want->rows) << plan.ToString(p);
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<GraphDatabase> db_;
  std::unique_ptr<Executor> exec_;
};

// ---- plan structure validation -----------------------------------------

// Page charge is ceil(bytes / 8192): exact multiples of the page size
// must not be charged an extra page, and an empty table occupies none.
TEST(TemporalTablePagesTest, CeilDivisionBoundaries) {
  TemporalTable t;
  t.AddColumn(0);
  EXPECT_EQ(TemporalTablePages(t), 0u);  // no rows, no pages
  // 2047 ids = 8188 bytes -> 1 page; 2048 ids = exactly one page;
  // 2049 ids = 8196 bytes -> 2 pages.
  for (NodeId v = 0; v < 2047; ++v) t.AppendRow({v});
  EXPECT_EQ(TemporalTablePages(t), 1u);
  t.AppendRow({2047});
  EXPECT_EQ(TemporalTablePages(t), 1u);
  t.AppendRow({2048});
  EXPECT_EQ(TemporalTablePages(t), 2u);
}

TEST(PlanValidateTest, AcceptsCanonicalFilterFetch) {
  auto p = Pattern::Parse("A->B; B->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  EXPECT_TRUE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsFetchWithoutFilter) {
  auto p = Pattern::Parse("A->B; B->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Fetch(1, true)};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsUnfetchedFilter) {
  auto p = Pattern::Parse("A->B; B->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}})};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsMissingEdge) {
  auto p = Pattern::Parse("A->B; B->C; C->D");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsFilterOnUnboundColumn) {
  auto p = Pattern::Parse("A->B; B->C; C->D");
  ASSERT_TRUE(p.ok());
  Plan plan;
  // Edge 2 = C->D, but C is unbound after HPSJ(A->B).
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{2, true}}),
                PlanStep::Fetch(2, true), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsSelectOnUnboundColumns) {
  auto p = Pattern::Parse("A->B; B->C; A->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Select(2),
                PlanStep::Filter({{1, true}}), PlanStep::Fetch(1, true)};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, AcceptsTriangleWithSelect) {
  auto p = Pattern::Parse("A->B; B->C; A->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true), PlanStep::Select(2)};
  EXPECT_TRUE(plan.Validate(*p).ok());
}

// ---- execution ----------------------------------------------------------

TEST_F(ExecFixture, SingleLabelScan) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B");
  ASSERT_TRUE(p.ok());
  Plan empty;
  auto r = exec_->Execute(*p, empty);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 7u);
}

TEST_F(ExecFixture, MissingLabelYieldsEmpty) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("A->Zebra");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0)};
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ExecFixture, HpsjBaseAloneMatchesNaive) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->E");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0)};
  ExpectMatchesNaive(*p, plan);
}

TEST_F(ExecFixture, PaperExampleBCD) {
  // The worked example in Section 3.3: (T_B join T_C) join T_D with the
  // 8 result tuples the paper enumerates.
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->C; C->D");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 8u);
  ExpectMatchesNaive(*p, plan);
}

TEST_F(ExecFixture, PaperFigure1PatternHasStatedMatch) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("A->C; B->C; C->D; D->E");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {
      PlanStep::HpsjBase(0),            // binds A, C
      PlanStep::Filter({{1, false}}),   // B->C probing in(C)
      PlanStep::Fetch(1, false),        // binds B
      PlanStep::Filter({{2, true}}),    // C->D probing out(C)
      PlanStep::Fetch(2, true),         // binds D
      PlanStep::Filter({{3, true}}),    // D->E probing out(D)
      PlanStep::Fetch(3, true),         // binds E
  };
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok()) << r.status();
  // Section 2 names (a0, b0, c1, d2, e1) as a match; columns follow the
  // pattern's parse order A, C, B, D, E.
  std::vector<NodeId> stated{0, 9, 1, 14, 19};
  bool found = false;
  for (std::span<const NodeId> row : r->rows) {
    if (std::ranges::equal(row, stated)) found = true;
  }
  EXPECT_TRUE(found);
  ExpectMatchesNaive(*p, plan);
}

TEST_F(ExecFixture, SharedFilterEquivalentToSequential) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->C; C->D; C->E");
  ASSERT_TRUE(p.ok());
  // Shared: both C-probing semijoins in one scan (Remark 3.1).
  Plan shared;
  shared.steps = {PlanStep::HpsjBase(0),
                  PlanStep::Filter({{1, true}, {2, true}}),
                  PlanStep::Fetch(1, true), PlanStep::Fetch(2, true)};
  // Sequential: one semijoin per scan.
  Plan sequential;
  sequential.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                      PlanStep::Filter({{2, true}}), PlanStep::Fetch(1, true),
                      PlanStep::Fetch(2, true)};
  auto a = exec_->Execute(*p, shared);
  auto b = exec_->Execute(*p, sequential);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  a->SortRows();
  b->SortRows();
  EXPECT_EQ(a->rows, b->rows);
  ExpectMatchesNaive(*p, shared);
}

TEST_F(ExecFixture, ReverseFetchDirection) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->C; A->C");
  ASSERT_TRUE(p.ok());
  // After HPSJ(B->C), edge A->C binds A by fetching F-subclusters.
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, false}}),
                PlanStep::Fetch(1, false)};
  ExpectMatchesNaive(*p, plan);
}

TEST_F(ExecFixture, TriangleWithSelect) {
  BuildDb(gen::ErdosRenyi(120, 400, 3, 5));
  Pattern p;
  PatternNodeId a = p.AddNode("L0"), b = p.AddNode("L1"), c = p.AddNode("L2");
  ASSERT_TRUE(p.AddEdge(a, b).ok());
  ASSERT_TRUE(p.AddEdge(b, c).ok());
  ASSERT_TRUE(p.AddEdge(a, c).ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true), PlanStep::Select(2)};
  ExpectMatchesNaive(p, plan);
}

TEST_F(ExecFixture, CyclicPatternOnCyclicGraph) {
  BuildDb(gen::ErdosRenyi(100, 500, 2, 7));
  Pattern p;
  PatternNodeId a = p.AddNode("L0"), b = p.AddNode("L1");
  ASSERT_TRUE(p.AddEdge(a, b).ok());
  ASSERT_TRUE(p.AddEdge(b, a).ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Select(1)};
  ExpectMatchesNaive(p, plan);
}

TEST_F(ExecFixture, EmptyIntermediateShortCircuits) {
  // A graph where A reaches B but B never reaches C.
  Graph g;
  NodeId a = g.AddNode("A"), b = g.AddNode("B");
  g.AddNode("C");
  ASSERT_TRUE(g.AddEdge(a, b).ok());
  g.Finalize();
  BuildDb(std::move(g));
  auto p = Pattern::Parse("A->B; B->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ExecFixture, StatsArePopulated) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->C; C->D");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.operators.wtable_lookups, 0u);
  EXPECT_GT(r->stats.operators.cluster_fetches, 0u);
  EXPECT_GT(r->stats.operators.code_fetches, 0u);
  EXPECT_GT(r->stats.io.page_reads + r->stats.io.pool_hits, 0u);
  EXPECT_EQ(r->stats.result_rows, r->rows.size());
  EXPECT_EQ(r->stats.steps, 3u);
}

// Property test: filter/fetch plans agree with the naive matcher on
// randomized graphs and path/star patterns in both directions.
TEST_F(ExecFixture, RandomizedAgreementPaths) {
  for (uint64_t seed : {101ull, 102ull, 103ull}) {
    BuildDb(gen::ErdosRenyi(150, 450, 4, seed));
    Pattern p;
    PatternNodeId n0 = p.AddNode("L0"), n1 = p.AddNode("L1"),
                  n2 = p.AddNode("L2"), n3 = p.AddNode("L3");
    ASSERT_TRUE(p.AddEdge(n0, n1).ok());
    ASSERT_TRUE(p.AddEdge(n1, n2).ok());
    ASSERT_TRUE(p.AddEdge(n2, n3).ok());
    Plan plan;
    plan.steps = {PlanStep::HpsjBase(1),           // binds L1, L2
                  PlanStep::Filter({{0, false}}),  // L0 -> L1, in(L1)
                  PlanStep::Fetch(0, false),
                  PlanStep::Filter({{2, true}}),  // L2 -> L3, out(L2)
                  PlanStep::Fetch(2, true)};
    ExpectMatchesNaive(p, plan);
  }
}

TEST_F(ExecFixture, RandomizedAgreementStars) {
  for (uint64_t seed : {201ull, 202ull}) {
    BuildDb(gen::RandomDag(200, 2.5, 4, seed));
    Pattern p;
    PatternNodeId hub = p.AddNode("L0");
    PatternNodeId s1 = p.AddNode("L1"), s2 = p.AddNode("L2"),
                  s3 = p.AddNode("L3");
    ASSERT_TRUE(p.AddEdge(hub, s1).ok());
    ASSERT_TRUE(p.AddEdge(hub, s2).ok());
    ASSERT_TRUE(p.AddEdge(s3, hub).ok());
    Plan plan;
    plan.steps = {PlanStep::HpsjBase(0),
                  PlanStep::Filter({{1, true}, {2, false}}),  // shared scan
                  PlanStep::Fetch(1, true), PlanStep::Fetch(2, false)};
    ExpectMatchesNaive(p, plan);
  }
}


TEST(PlanValidateTest, AcceptsScanBaseStart) {
  auto p = Pattern::Parse("A->B; A->C");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::ScanBase(0),  // A
                PlanStep::Filter({{0, true}, {1, true}}),
                PlanStep::Fetch(0, true), PlanStep::Fetch(1, true)};
  EXPECT_TRUE(plan.Validate(*p).ok());
}

TEST(PlanValidateTest, RejectsScanBaseMidPlan) {
  auto p = Pattern::Parse("A->B");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::ScanBase(0)};
  EXPECT_FALSE(plan.Validate(*p).ok());
}

TEST_F(ExecFixture, ScanBaseStartMatchesNaive) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("C->D; C->E");
  ASSERT_TRUE(p.ok());
  // DPS-style: scan base table C, semijoin by both conditions, fetch.
  Plan plan;
  plan.steps = {PlanStep::ScanBase(0),
                PlanStep::Filter({{0, true}, {1, true}}),
                PlanStep::Fetch(0, true), PlanStep::Fetch(1, true)};
  ExpectMatchesNaive(*p, plan);
}

TEST_F(ExecFixture, MultiplePendingSlotsSurviveInterleavedOps) {
  // Exercises the pending-pool bookkeeping: two deferred semijoins kept
  // across a fetch expansion and a select before their own fetches run.
  BuildDb(gen::ErdosRenyi(150, 500, 5, 99));
  Pattern p;
  PatternNodeId a = p.AddNode("L0"), b = p.AddNode("L1"),
                c = p.AddNode("L2"), d = p.AddNode("L3"),
                e = p.AddNode("L4");
  ASSERT_TRUE(p.AddEdge(a, b).ok());  // 0
  ASSERT_TRUE(p.AddEdge(a, c).ok());  // 1
  ASSERT_TRUE(p.AddEdge(a, d).ok());  // 2
  ASSERT_TRUE(p.AddEdge(b, e).ok());  // 3
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0),  // binds a, b
                // defer three semijoins at once
                PlanStep::Filter({{1, true}, {2, true}}),
                PlanStep::Filter({{3, true}}),
                PlanStep::Fetch(3, true),   // expands while 1,2 pending
                PlanStep::Fetch(1, true),
                PlanStep::Fetch(2, true)};
  ExpectMatchesNaive(p, plan);
}

TEST_F(ExecFixture, PendingSlotsSurviveSelect) {
  BuildDb(gen::ErdosRenyi(120, 420, 4, 101));
  Pattern p;
  PatternNodeId a = p.AddNode("L0"), b = p.AddNode("L1"),
                c = p.AddNode("L2"), d = p.AddNode("L3");
  ASSERT_TRUE(p.AddEdge(a, b).ok());  // 0
  ASSERT_TRUE(p.AddEdge(b, c).ok());  // 1
  ASSERT_TRUE(p.AddEdge(a, c).ok());  // 2 (select later)
  ASSERT_TRUE(p.AddEdge(c, d).ok());  // 3
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0),
                PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true),       // binds c
                PlanStep::Filter({{3, true}}),  // pending c->d
                PlanStep::Select(2),            // prunes rows, keeps pending
                PlanStep::Fetch(3, true)};
  ExpectMatchesNaive(p, plan);
}

TEST_F(ExecFixture, TemporalIoChargedPerPass) {
  BuildDb(PaperFigure1());
  auto p = Pattern::Parse("B->C; C->D");
  ASSERT_TRUE(p.ok());
  Plan plan;
  plan.steps = {PlanStep::HpsjBase(0), PlanStep::Filter({{1, true}}),
                PlanStep::Fetch(1, true)};
  auto r = exec_->Execute(*p, plan);
  ASSERT_TRUE(r.ok());
  // HPSJ writes once; filter reads+writes; fetch reads+writes.
  EXPECT_GE(r->stats.operators.temporal_pages_written, 3u);
  EXPECT_GE(r->stats.operators.temporal_pages_read, 2u);
  EXPECT_EQ(r->stats.modeled_io_pages,
            r->stats.io.pool_hits + r->stats.io.pool_misses +
                r->stats.operators.temporal_pages_read +
                r->stats.operators.temporal_pages_written);
}

}  // namespace
}  // namespace fgpm
