#include "exec/engine.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/scheduler.h"
#include "common/timer.h"
#include "exec/temporal_table.h"
#include "exec/wcoj.h"
#include "obs/metrics.h"

namespace fgpm {

namespace {

// Registry handles resolved once per process; the per-query fold below
// is a handful of relaxed adds on thread-sharded cells.
struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* result_rows;
  obs::Counter* steps;
  obs::Counter* code_fetches;
  obs::Counter* cluster_fetches;
  obs::Counter* wtable_lookups;
  obs::Counter* rows_materialized;
  obs::Counter* wcoj_binds;
  obs::Counter* wcoj_kway_probes;
  obs::Counter* wcoj_kway_hits;
  obs::Counter* wcoj_reach_pruned;
  obs::Histogram* latency_usec;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      EngineMetrics e;
      e.queries = r.GetCounter("fgpm_exec_queries_total",
                               "Plans executed by the R-join engine");
      e.result_rows =
          r.GetCounter("fgpm_exec_result_rows_total", "Result rows produced");
      e.steps = r.GetCounter("fgpm_exec_steps_total", "Plan steps executed");
      e.code_fetches = r.GetCounter("fgpm_exec_code_fetches_total",
                                    "getCenters graph-code retrievals");
      e.cluster_fetches = r.GetCounter("fgpm_exec_cluster_fetches_total",
                                       "R-join index getF/getT reads");
      e.wtable_lookups =
          r.GetCounter("fgpm_exec_wtable_lookups_total", "W-table lookups");
      e.rows_materialized = r.GetCounter("fgpm_exec_rows_materialized_total",
                                         "Full-width rows materialized");
      e.wcoj_binds = r.GetCounter("fgpm_exec_wcoj_binds_total",
                                  "WCOJ vertex-bind steps executed");
      e.wcoj_kway_probes =
          r.GetCounter("fgpm_exec_wcoj_kway_probes_total",
                       "k-way intersection candidate probes");
      e.wcoj_kway_hits = r.GetCounter("fgpm_exec_wcoj_kway_hits_total",
                                      "k-way intersection survivors");
      e.wcoj_reach_pruned =
          r.GetCounter("fgpm_exec_wcoj_reach_pruned_total",
                       "WCOJ candidates pruned by reachability probes");
      e.latency_usec = r.GetHistogram("fgpm_exec_query_latency_usec",
                                      "Plan execution wall time (us)");
      return e;
    }();
    return m;
  }
};

IoSnapshot IoDelta(const IoSnapshot& after, const IoSnapshot& before) {
  IoSnapshot d;
  d.page_reads = after.page_reads - before.page_reads;
  d.page_writes = after.page_writes - before.page_writes;
  d.pool_hits = after.pool_hits - before.pool_hits;
  d.pool_misses = after.pool_misses - before.pool_misses;
  d.code_cache_hits = after.code_cache_hits - before.code_cache_hits;
  d.code_cache_misses = after.code_cache_misses - before.code_cache_misses;
  return d;
}

// The span side of the stats-delta protocol: operators fold their
// call-local stats exactly once (operators.h), so after-minus-before
// around one step is that step's delta. Only nonzero deltas become args
// to keep traces compact; rows_in/rows_out are always attached.
void AttachSpanArgs(QueryTrace* trace, uint32_t span, uint64_t rows_in,
                    uint64_t rows_out, const OperatorStats& before,
                    const OperatorStats& after, const IoSnapshot& io) {
  trace->AddArg(span, "rows_in", rows_in);
  trace->AddArg(span, "rows_out", rows_out);
  auto delta = [&](const char* key, uint64_t b, uint64_t a) {
    if (a != b) trace->AddArg(span, key, a - b);
  };
  delta("rows_scanned", before.rows_scanned, after.rows_scanned);
  delta("rows_pruned", before.rows_pruned, after.rows_pruned);
  delta("pairs_emitted", before.pairs_emitted, after.pairs_emitted);
  delta("code_fetches", before.code_fetches, after.code_fetches);
  delta("cluster_fetches", before.cluster_fetches, after.cluster_fetches);
  delta("wtable_lookups", before.wtable_lookups, after.wtable_lookups);
  delta("rows_materialized", before.rows_materialized,
        after.rows_materialized);
  delta("kway_intersect_probes", before.kway_intersect_probes,
        after.kway_intersect_probes);
  delta("kway_intersect_hits", before.kway_intersect_hits,
        after.kway_intersect_hits);
  delta("wcoj_reach_pruned", before.wcoj_reach_pruned,
        after.wcoj_reach_pruned);
  delta("temporal_pages_read", before.temporal_pages_read,
        after.temporal_pages_read);
  delta("temporal_pages_written", before.temporal_pages_written,
        after.temporal_pages_written);
  delta("pool_hits", 0, io.pool_hits);
  delta("pool_misses", 0, io.pool_misses);
  delta("code_cache_hits", 0, io.code_cache_hits);
  delta("code_cache_misses", 0, io.code_cache_misses);
  delta("page_reads", 0, io.page_reads);
}

// Runs plan.steps against `table`, with factorized select fusion,
// per-step stats (steps/step_rows/step_wall_ms/step_absorbed) and
// optional spans (trace may be null).
Status RunPlanSteps(const GraphDatabase& db, const Pattern& pattern,
                    const std::vector<LabelId>& node_labels, const Plan& plan,
                    bool factorized, TemporalTable* table, ExecStats* stats,
                    QueryTrace* trace, uint32_t query_span, ThreadPool* pool,
                    ExecScratch* scratch, uint64_t* wcoj_binds) {
  const std::vector<PlanStep>& steps = plan.steps;
  for (size_t si = 0; si < steps.size(); ++si) {
    const PlanStep& step = steps[si];
    size_t absorbed = 0;
    std::vector<uint32_t> fused;
    if (factorized && step.kind == StepKind::kFetch) {
      // Fuse the consecutive selects that touch the node this fetch
      // binds (their other endpoint is bound already — plans
      // validate selects): the predicates run on candidates inside
      // the expansion loop, before anything is appended.
      const PatternEdge& e = pattern.edges()[step.edge];
      PatternNodeId nn = step.bound_is_source ? e.to : e.from;
      size_t j = si + 1;
      while (j < steps.size() && steps[j].kind == StepKind::kSelect) {
        const PatternEdge& se = pattern.edges()[steps[j].edge];
        if (se.from != nn && se.to != nn) break;
        fused.push_back(steps[j].edge);
        ++j;
      }
      absorbed = fused.size();
    }

    const uint64_t rows_in = table->NumRows();
    uint32_t span = 0;
    OperatorStats ops_before;
    IoSnapshot io_before_step;
    if (trace) {
      span = trace->BeginSpan(StepLabel(pattern, step), "operator",
                              static_cast<int32_t>(query_span));
      ops_before = stats->operators;
      io_before_step = db.Io();
    }
    // Phase label for the scheduler profiler: morsels this step fans
    // out carry "match;<step>" so folded stacks attribute worker busy
    // time to plan steps. Interning only happens while profiling.
    std::optional<ScopedSchedLabel> sched_label;
    if (Scheduler::ProfilingEnabled()) {
      sched_label.emplace(
          Scheduler::InternLabel("match;" + StepLabel(pattern, step)));
    }
    WallTimer step_timer;

    switch (step.kind) {
      case StepKind::kHpsjBase:
        FGPM_RETURN_IF_ERROR(HpsjBaseJoin(db, pattern, node_labels, step.edge,
                                          table, &stats->operators, pool,
                                          scratch));
        break;
      case StepKind::kScanBase:
        FGPM_RETURN_IF_ERROR(ScanBase(db, pattern, node_labels, step.scan_node,
                                      table, &stats->operators));
        break;
      case StepKind::kFilter:
        FGPM_RETURN_IF_ERROR(ApplyFilter(db, pattern, node_labels,
                                         step.filters, table,
                                         &stats->operators, pool, scratch));
        break;
      case StepKind::kFetch:
        FGPM_RETURN_IF_ERROR(ApplyFetch(db, pattern, node_labels, step.edge,
                                        step.bound_is_source, table,
                                        &stats->operators, pool, scratch,
                                        fused));
        break;
      case StepKind::kSelect:
        FGPM_RETURN_IF_ERROR(ApplySelect(db, pattern, node_labels, step.edge,
                                         table, &stats->operators, pool,
                                         scratch));
        break;
      case StepKind::kWcojBind:
        ++*wcoj_binds;
        FGPM_RETURN_IF_ERROR(ApplyWcojBind(db, pattern, node_labels, step,
                                           table, &stats->operators, pool,
                                           scratch));
        break;
    }

    const double step_ms = step_timer.ElapsedMillis();
    // Absorbed selects still count as executed plan steps and
    // record the (shared) post-fetch row count; their time is
    // inside the fetch's entry.
    stats->steps += static_cast<uint32_t>(1 + absorbed);
    uint64_t nrows = table->NumRows();
    for (size_t k = 0; k <= absorbed; ++k) {
      stats->step_rows.push_back(nrows);
      stats->step_wall_ms.push_back(k == 0 ? step_ms : 0.0);
      stats->step_absorbed.push_back(k == 0 ? 0 : 1);
    }
    if (trace) {
      trace->EndSpan(span);
      AttachSpanArgs(trace, span, rows_in, nrows, ops_before,
                     stats->operators, IoDelta(db.Io(), io_before_step));
      // Fused selects become child spans mirroring the fetch's
      // interval — parent/child links make the absorption visible
      // in chrome://tracing instead of the steps just vanishing.
      // Copy the interval: AddCompleteSpan grows spans_ and would
      // invalidate a reference held across iterations.
      const double parent_start_us = trace->spans()[span].start_us;
      const double parent_wall_us = trace->spans()[span].wall_us;
      for (size_t k = 0; k < absorbed; ++k) {
        uint32_t child = trace->AddCompleteSpan(
            StepLabel(pattern, steps[si + 1 + k]), "operator",
            static_cast<int32_t>(span), parent_start_us, parent_wall_us, 0);
        trace->AddArg(child, "fused_into_fetch", 1);
        trace->AddArg(child, "rows_out", nrows);
      }
    }
    si += absorbed;
    // An empty intermediate stays empty; skip the remaining steps.
    if (nrows == 0) break;
  }
  return Status::OK();
}

// The single materialization point: projects `table` into
// result->rows in pattern-node order (plans bind labels in plan
// order). Each column of a factorized table is gathered once,
// sequentially.
void MaterializeTable(const Pattern& pattern, const TemporalTable& table,
                      MatchResult* result) {
  if (table.NumColumns() != pattern.num_nodes()) {
    // Execution emptied out before binding all labels — result stays
    // empty, which is correct (an empty intermediate join is empty
    // forever).
    return;
  }
  std::vector<size_t> col_of(pattern.num_nodes());
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    auto c = table.ColumnOf(i);
    FGPM_CHECK(c.has_value());
    col_of[i] = *c;
  }
  const size_t nrows = table.NumRows();
  result->rows.reserve(nrows);
  if (!table.deltas().empty()) {
    std::vector<std::vector<NodeId>> cols(pattern.num_nodes());
    for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
      table.GatherColumn(col_of[i], &cols[i]);
    }
    for (size_t r = 0; r < nrows; ++r) {
      std::vector<NodeId> row(pattern.num_nodes());
      for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
        row[i] = cols[i][r];
      }
      result->rows.push_back(std::move(row));
    }
  } else {
    size_t ncols = table.NumColumns();
    for (size_t r = 0; r < nrows; ++r) {
      std::vector<NodeId> row(pattern.num_nodes());
      for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
        row[i] = table.raw_rows()[r * ncols + col_of[i]];
      }
      result->rows.push_back(std::move(row));
    }
  }
  result->stats.operators.rows_materialized += nrows;
}

}  // namespace

void MatchResult::SortRows() { std::sort(rows.begin(), rows.end()); }

bool ResolveNodeLabels(const GraphDatabase& db, const Pattern& pattern,
                       std::vector<LabelId>* node_labels) {
  std::vector<LabelId> resolved(pattern.num_nodes());
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    auto l = db.catalog().FindLabel(pattern.label(i));
    if (!l) return false;
    resolved[i] = *l;
  }
  *node_labels = std::move(resolved);
  return true;
}

Result<MatchResult> Executor::Execute(const Pattern& pattern,
                                      const Plan& plan,
                                      int trace_level_override) {
  FGPM_RETURN_IF_ERROR(plan.Validate(pattern));

  // The runtime kill switch suppresses span recording too, not just
  // metric writes (obs.h documents "spans are never recorded").
  const int trace_level =
      obs::kCompiledIn && obs::Enabled()
          ? (trace_level_override >= 0 ? trace_level_override
                                       : options_.trace_level)
          : 0;

  WallTimer timer;
  IoSnapshot io_before = db_->Io();

  std::shared_ptr<QueryTrace> trace;
  uint32_t query_span = 0;
  if (trace_level >= 1) {
    trace = std::make_shared<QueryTrace>();
    query_span = trace->BeginSpan(pattern.ToString(), "query");
  }

  MatchResult result;
  uint64_t wcoj_binds = 0;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    result.column_labels.push_back(pattern.label(i));
  }

  // Resolve pattern labels; a label with no extent means zero matches.
  std::vector<LabelId> node_labels;
  if (ResolveNodeLabels(*db_, pattern, &node_labels)) {
    if (pattern.num_edges() == 0) {
      // Single-label pattern: scan the base table.
      FGPM_RETURN_IF_ERROR(
          db_->table(node_labels[0]).Scan([&](const GraphCodeRecord& rec) {
            result.rows.push_back({rec.node});
          }));
    } else {
      TemporalTable table(options_.materialization);
      const bool factorized =
          options_.materialization == Materialization::kFactorized;
      FGPM_RETURN_IF_ERROR(RunPlanSteps(*db_, pattern, node_labels, plan,
                                        factorized, &table, &result.stats,
                                        trace.get(), query_span, pool_.get(),
                                        &scratch_, &wcoj_binds));
      MaterializeTable(pattern, table, &result);
    }
  }

  result.stats.result_rows = result.rows.size();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.io = IoDelta(db_->Io(), io_before);
  result.stats.modeled_io_pages =
      result.stats.io.pool_hits + result.stats.io.pool_misses +
      result.stats.operators.temporal_pages_read +
      result.stats.operators.temporal_pages_written;

  if (trace) {
    trace->EndSpan(query_span);
    trace->AddArg(query_span, "result_rows", result.stats.result_rows);
    trace->AddArg(query_span, "pool_hits", result.stats.io.pool_hits);
    trace->AddArg(query_span, "pool_misses", result.stats.io.pool_misses);
    trace->AddArg(query_span, "code_cache_hits",
                  result.stats.io.code_cache_hits);
    trace->AddArg(query_span, "code_cache_misses",
                  result.stats.io.code_cache_misses);
    result.stats.trace = std::move(trace);
  }

  if (obs::kCompiledIn && obs::Enabled()) {
    const EngineMetrics& m = EngineMetrics::Get();
    const OperatorStats& op = result.stats.operators;
    m.queries->Increment();
    m.result_rows->Increment(result.stats.result_rows);
    m.steps->Increment(result.stats.steps);
    m.code_fetches->Increment(op.code_fetches);
    m.cluster_fetches->Increment(op.cluster_fetches);
    m.wtable_lookups->Increment(op.wtable_lookups);
    m.rows_materialized->Increment(op.rows_materialized);
    m.wcoj_binds->Increment(wcoj_binds);
    m.wcoj_kway_probes->Increment(op.kway_intersect_probes);
    m.wcoj_kway_hits->Increment(op.kway_intersect_hits);
    m.wcoj_reach_pruned->Increment(op.wcoj_reach_pruned);
    m.latency_usec->Observe(
        static_cast<uint64_t>(result.stats.elapsed_ms * 1e3));
  }
  return result;
}

}  // namespace fgpm
