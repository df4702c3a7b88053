// End-to-end observability tests: per-step trace spans from the
// executor, EXPLAIN ANALYZE profile reports, the slow-query log, and
// the race-free OperatorStats fold (single-thread vs 8-thread totals
// agree on every thread-count-invariant field, and per-span deltas sum
// back to the query totals at any thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace fgpm {
namespace {

// Triangle pattern: under DPS this exercises HPSJ + filter/fetch and a
// select that the engine fuses into the fetch.
constexpr const char* kTriangle = "L0->L1; L1->L2; L0->L2";

std::unique_ptr<GraphMatcher> MakeMatcher(ExecOptions exec_options = {},
                                          unsigned seed = 77) {
  static Graph g = gen::ErdosRenyi(150, 450, 4, 77);
  (void)seed;
  auto m = GraphMatcher::Create(&g, {}, exec_options);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

TEST(TraceIntegrationTest, SpanPerExecutedStep) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  ExecOptions opts;
  opts.trace_level = 1;
  auto m = MakeMatcher(opts);
  auto r = m->Match(kTriangle);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->stats.trace, nullptr);
  const auto& spans = r->stats.trace->spans();
  // One root span, one span per executed plan-step entry (absorbed
  // selects appear as child spans of their fetch) and the materialize
  // span.
  ASSERT_EQ(spans.size(), 2 + r->stats.step_rows.size());
  EXPECT_EQ(spans[0].category, "query");
  EXPECT_GT(spans[0].wall_us, 0.0);
  const uint64_t* res_rows = spans[0].FindArg("result_rows");
  ASSERT_NE(res_rows, nullptr);
  EXPECT_EQ(*res_rows, r->stats.result_rows);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].category, "operator");
    EXPECT_NE(spans[i].FindArg("rows_out"), nullptr);
    EXPECT_GE(spans[i].parent, 0);
  }
  // step_wall_ms / step_absorbed stay aligned with step_rows.
  EXPECT_EQ(r->stats.step_wall_ms.size(), r->stats.step_rows.size());
  EXPECT_EQ(r->stats.step_absorbed.size(), r->stats.step_rows.size());
}

// Writing the result block is accounted: a materialize span under the
// query span, ExecStats::materialize_ms inside the query's elapsed time,
// and EXPLAIN ANALYZE's "materialized: N rows" line.
TEST(TraceIntegrationTest, MaterializeIsAccounted) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  ExecOptions opts;
  opts.trace_level = 1;
  auto m = MakeMatcher(opts);
  auto r = m->Match(kTriangle);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->stats.result_rows, 0u);
  ASSERT_NE(r->stats.trace, nullptr);
  const auto& spans = r->stats.trace->spans();
  ASSERT_FALSE(spans.empty());
  ASSERT_EQ(spans[0].category, "query");
  size_t found = 0;
  for (const TraceSpan& s : spans) {
    if (s.name != "materialize") continue;
    ++found;
    EXPECT_EQ(s.parent, 0);
    const uint64_t* rows_out = s.FindArg("rows_out");
    ASSERT_NE(rows_out, nullptr);
    EXPECT_EQ(*rows_out, r->stats.result_rows);
  }
  EXPECT_EQ(found, 1u);

  EXPECT_GT(r->stats.materialize_ms, 0.0);
  EXPECT_LE(r->stats.materialize_ms, r->stats.elapsed_ms);

  auto ea = m->ExplainAnalyze(kTriangle);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  const std::string prefix =
      "materialized: " +
      std::to_string(ea->result.stats.operators.rows_materialized) + " rows";
  EXPECT_NE(ea->report.find(prefix), std::string::npos) << ea->report;
}

TEST(TraceIntegrationTest, MultiFusedSelectChildSpansShareFetchInterval) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  // 4-clique: the last node bound by a fetch has two remaining edges
  // into already-bound nodes, so the engine absorbs >=2 selects into
  // one fetch. Regression: emitting the second child span
  // used to read the parent's interval through a reference invalidated
  // by the first AddCompleteSpan's push_back (heap use-after-free).
  constexpr const char* kClique4 =
      "L0->L1; L0->L2; L0->L3; L1->L2; L1->L3; L2->L3";
  ExecOptions opts;
  opts.trace_level = 1;
  // The regression lives in the fused-select span path of binary R-join
  // plans; under the default kHybrid strategy the 4-clique plans as
  // scan+bind steps with no fused selects at all.
  opts.join_strategy = JoinStrategy::kBinary;
  auto m = MakeMatcher(opts);
  auto r = m->Match(kClique4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->stats.trace, nullptr);
  const auto& spans = r->stats.trace->spans();
  // Group fused children by parent fetch; every child mirrors its
  // parent's interval exactly.
  size_t max_children_of_one_fetch = 0;
  std::map<int32_t, size_t> children;
  for (const TraceSpan& s : spans) {
    if (s.FindArg("fused_into_fetch") == nullptr) continue;
    ASSERT_GE(s.parent, 0);
    const TraceSpan& parent = spans[static_cast<size_t>(s.parent)];
    EXPECT_EQ(s.start_us, parent.start_us);
    EXPECT_EQ(s.wall_us, parent.wall_us);
    max_children_of_one_fetch =
        std::max(max_children_of_one_fetch, ++children[s.parent]);
  }
  EXPECT_GE(max_children_of_one_fetch, 2u)
      << "plan no longer fuses two selects into one fetch; "
         "the regression scenario is not exercised";
}

TEST(TraceIntegrationTest, KillSwitchSuppressesSpans) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  ExecOptions opts;
  opts.trace_level = 1;
  auto m = MakeMatcher(opts);
  obs::SetEnabled(false);
  auto r = m->Match(kTriangle);
  obs::SetEnabled(true);
  ASSERT_TRUE(r.ok());
  // obs.h: when disabled, spans are never recorded.
  EXPECT_EQ(r->stats.trace, nullptr);
}

TEST(TraceIntegrationTest, LevelZeroRecordsNoTrace) {
  auto m = MakeMatcher();
  auto r = m->Match(kTriangle);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.trace, nullptr);
  // The always-on step profile is still recorded.
  EXPECT_EQ(r->stats.step_wall_ms.size(), r->stats.step_rows.size());
}

TEST(TraceIntegrationTest, SpanDeltasSumToQueryTotals) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  // 8 workers: the fold protocol must make per-span deltas exact (each
  // operator folds its call-local stats once, on the executor thread).
  ExecOptions opts;
  opts.num_threads = 8;
  opts.trace_level = 1;
  auto m = MakeMatcher(opts);
  auto r = m->Match(kTriangle);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->stats.trace, nullptr);
  // Fields below are only ever touched inside operator calls (unlike
  // rows_materialized, which the final projection also bumps), so the
  // span deltas must sum back to the query totals exactly.
  const char* keys[] = {"rows_scanned",    "rows_pruned",
                        "wtable_lookups",  "code_fetches",
                        "cluster_fetches", "pairs_emitted"};
  const OperatorStats& op = r->stats.operators;
  const uint64_t totals[] = {op.rows_scanned,    op.rows_pruned,
                             op.wtable_lookups,  op.code_fetches,
                             op.cluster_fetches, op.pairs_emitted};
  for (size_t k = 0; k < std::size(keys); ++k) {
    uint64_t sum = 0;
    for (const TraceSpan& s : r->stats.trace->spans()) {
      if (const uint64_t* v = s.FindArg(keys[k])) sum += *v;
    }
    EXPECT_EQ(sum, totals[k]) << keys[k];
  }
}

// Satellite: OperatorStats accumulation is race-free — totals on every
// thread-count-invariant field match a single-threaded run exactly.
// (code_fetches / pairs_emitted legitimately vary with
// chunking; see operators.h.)
TEST(StatsFoldTest, EightThreadTotalsMatchSingleThread) {
  ExecOptions seq;
  seq.num_threads = 1;
  ExecOptions par;
  par.num_threads = 8;
  auto m1 = MakeMatcher(seq);
  auto m8 = MakeMatcher(par);
  for (const char* pattern : {kTriangle, "L0->L1; L1->L2; L2->L3",
                              "L0->L1; L0->L2; L1->L3; L2->L3"}) {
    auto r1 = m1->Match(pattern);
    auto r8 = m8->Match(pattern);
    ASSERT_TRUE(r1.ok() && r8.ok()) << pattern;
    r1->SortRows();
    r8->SortRows();
    EXPECT_EQ(r1->rows, r8->rows) << pattern;
    EXPECT_EQ(r1->stats.step_rows, r8->stats.step_rows) << pattern;
    const OperatorStats& a = r1->stats.operators;
    const OperatorStats& b = r8->stats.operators;
    EXPECT_EQ(a.rows_scanned, b.rows_scanned) << pattern;
    EXPECT_EQ(a.rows_pruned, b.rows_pruned) << pattern;
    EXPECT_EQ(a.wtable_lookups, b.wtable_lookups) << pattern;
    EXPECT_EQ(a.rows_materialized, b.rows_materialized) << pattern;
    EXPECT_EQ(a.temporal_pages_read, b.temporal_pages_read) << pattern;
    EXPECT_EQ(a.temporal_pages_written, b.temporal_pages_written) << pattern;
  }
}

TEST(ExplainAnalyzeTest, ReportShowsEstimatesActualsAndTimes) {
  auto m = MakeMatcher();  // trace_level 0: ExplainAnalyze promotes to 1
  auto ea = m->ExplainAnalyze(kTriangle);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  EXPECT_EQ(ea->explanation.steps.size(),
            ea->result.stats.step_rows.size());
  const std::string& report = ea->report;
  EXPECT_NE(report.find("est. rows"), std::string::npos);
  EXPECT_NE(report.find("act. rows"), std::string::npos);
  EXPECT_NE(report.find("err"), std::string::npos);
  EXPECT_NE(report.find("time (ms)"), std::string::npos);
  EXPECT_NE(report.find("materialized:"), std::string::npos);
  EXPECT_NE(report.find("buffer pool:"), std::string::npos);
  EXPECT_NE(report.find("code cache:"), std::string::npos);
  // The same query through Match returns the same rows.
  auto r = m->Match(kTriangle);
  ASSERT_TRUE(r.ok());
  ea->result.SortRows();
  r->SortRows();
  EXPECT_EQ(ea->result.rows, r->rows);
  if (obs::kCompiledIn) {
    EXPECT_NE(ea->result.stats.trace, nullptr);
    EXPECT_NE(ea->chrome_trace_json.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(ea->chrome_trace_json.find("\"ph\": \"X\""),
              std::string::npos);
  }
}

TEST(ExplainAnalyzeTest, FusedSelectMarkedInReport) {
  // DPS on the triangle produces a select absorbed into the preceding
  // fetch; the report must render it as "[fused]" with no
  // time entry instead of dividing by a missing slot.
  auto m = MakeMatcher();
  auto ea = m->ExplainAnalyze(kTriangle);
  ASSERT_TRUE(ea.ok());
  bool any_absorbed = false;
  for (uint8_t a : ea->result.stats.step_absorbed) any_absorbed |= a != 0;
  if (any_absorbed) {
    EXPECT_NE(ea->report.find("[fused]"), std::string::npos);
  }
}

TEST(ExplainAnalyzeTest, RejectsUnplannedEngines) {
  auto m = MakeMatcher();
  MatchOptions opts;
  opts.engine = Engine::kNaive;
  auto ea = m->ExplainAnalyze(kTriangle, opts);
  EXPECT_EQ(ea.status().code(), StatusCode::kInvalidArgument);
}

TEST(SlowQueryLogTest, ThresholdZeroLogsEveryQuery) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  ExecOptions opts;
  opts.slow_query_ms = 0.0;  // everything is slow
  auto m = MakeMatcher(opts);
  ASSERT_TRUE(m->Match(kTriangle).ok());
  ASSERT_TRUE(m->Match("L0->L1").ok());
  ASSERT_EQ(m->slow_queries().size(), 2u);
  EXPECT_EQ(m->slow_queries()[0].pattern_text,
            Pattern::Parse(kTriangle)->ToString());
  EXPECT_EQ(m->slow_queries()[1].engine, Engine::kDps);
  EXPECT_GT(m->slow_queries()[0].elapsed_ms, 0.0);
  m->ClearSlowQueries();
  EXPECT_TRUE(m->slow_queries().empty());
}

TEST(SlowQueryLogTest, WorksWithObsDisabled) {
  // The slow log is a diagnostic gated only on slow_query_ms: it must
  // fill even with the runtime kill switch off or FGPM_OBS=OFF (only
  // the fgpm_match_slow_queries_total counter depends on obs).
  ExecOptions opts;
  opts.slow_query_ms = 0.0;
  auto m = MakeMatcher(opts);
  obs::SetEnabled(false);
  auto ok = m->Match(kTriangle).ok();
  obs::SetEnabled(true);
  ASSERT_TRUE(ok);
  ASSERT_EQ(m->slow_queries().size(), 1u);
  EXPECT_EQ(m->slow_queries()[0].pattern_text,
            Pattern::Parse(kTriangle)->ToString());
}

TEST(SlowQueryLogTest, DisabledByDefault) {
  auto m = MakeMatcher();
  ASSERT_TRUE(m->Match(kTriangle).ok());
  EXPECT_TRUE(m->slow_queries().empty());
}

TEST(SlowQueryLogTest, BoundedCapacity) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  ExecOptions opts;
  opts.slow_query_ms = 0.0;
  auto m = MakeMatcher(opts);
  for (size_t i = 0; i < GraphMatcher::kSlowLogCapacity + 5; ++i) {
    ASSERT_TRUE(m->Match("L0->L1").ok());
  }
  EXPECT_EQ(m->slow_queries().size(), GraphMatcher::kSlowLogCapacity);
}

TEST(MetricsIntegrationTest, QueriesBumpDefaultRegistry) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter* exec_queries = reg.GetCounter("fgpm_exec_queries_total");
  obs::Counter* match_queries = reg.GetCounter("fgpm_match_queries_total");
  obs::Counter* cache_hits = reg.GetCounter("fgpm_plan_cache_hits_total");
  uint64_t exec_before = exec_queries->Value();
  uint64_t match_before = match_queries->Value();
  auto m = MakeMatcher();
  ASSERT_TRUE(m->Match(kTriangle).ok());
  EXPECT_EQ(exec_queries->Value(), exec_before + 1);
  EXPECT_EQ(match_queries->Value(), match_before + 1);
  uint64_t hits_before = cache_hits->Value();
  ASSERT_TRUE(m->Match(kTriangle).ok());  // plan-cache hit
  EXPECT_EQ(cache_hits->Value(), hits_before + 1);
  // The exporters include the engine instrumentation.
  std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("fgpm_exec_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("fgpm_bufferpool_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("fgpm_match_latency_usec_bucket"), std::string::npos);
}

TEST(MetricsIntegrationTest, KillSwitchStopsCounting) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "FGPM_OBS=OFF";
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter* exec_queries = reg.GetCounter("fgpm_exec_queries_total");
  auto m = MakeMatcher();
  obs::SetEnabled(false);
  uint64_t before = exec_queries->Value();
  ASSERT_TRUE(m->Match(kTriangle).ok());
  obs::SetEnabled(true);
  EXPECT_EQ(exec_queries->Value(), before);
}

}  // namespace
}  // namespace fgpm
