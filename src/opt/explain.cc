#include "opt/explain.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace fgpm {
namespace {

// Cost-model error as "estimated / actual". The two degenerate cases
// the naive division mishandles: a step the execution never reached
// (no actual at all) renders "-", and an actual of zero rows renders
// "1.00x" when the estimate also rounds to zero (both agree on
// "empty") or "inf" when the model predicted survivors that never
// materialized.
void FormatErrRatio(char* buf, size_t n, double est, uint64_t act,
                    bool executed) {
  if (!executed) {
    std::snprintf(buf, n, "-");
  } else if (act == 0) {
    std::snprintf(buf, n, est < 0.5 ? "1.00x" : "inf");
  } else {
    std::snprintf(buf, n, "%.2fx", est / static_cast<double>(act));
  }
}

}  // namespace

std::string PlanExplanation::ToString() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-40s %14s %12s %12s\n", "step",
                "est. rows", "step cost", "cum. cost");
  out += buf;
  for (const StepEstimate& s : steps) {
    std::snprintf(buf, sizeof(buf), "%-40s %14.0f %12.1f %12.1f\n",
                  s.description.c_str(), s.rows_out, s.step_cost,
                  s.cumulative_cost);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "total: %.1f page-units, ~%.0f rows\n",
                total_cost, result_rows);
  out += buf;
  return out;
}

std::string PlanExplanation::ToStringWithActuals(const ExecStats& stats) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %14s %14s %8s %12s %12s %12s\n",
                "step", "est. rows", "act. rows", "err", "time (ms)",
                "step cost", "cum. cost");
  out += buf;
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepEstimate& s = steps[i];
    // step_rows / step_wall_ms / step_absorbed are aligned and only as
    // long as the execution got (an emptied intermediate skips the
    // tail); missing entries render "-" across the actual columns.
    const bool executed = i < stats.step_rows.size();
    const bool absorbed =
        i < stats.step_absorbed.size() && stats.step_absorbed[i] != 0;
    char actual[32], err[32], time_ms[32];
    if (executed) {
      std::snprintf(actual, sizeof(actual), "%llu",
                    static_cast<unsigned long long>(stats.step_rows[i]));
    } else {
      std::snprintf(actual, sizeof(actual), "-");
    }
    FormatErrRatio(err, sizeof(err), s.rows_out,
                   executed ? stats.step_rows[i] : 0, executed);
    if (absorbed || !executed || i >= stats.step_wall_ms.size()) {
      // An absorbed select's time is inside its fetch's entry.
      std::snprintf(time_ms, sizeof(time_ms), "-");
    } else {
      std::snprintf(time_ms, sizeof(time_ms), "%.3f", stats.step_wall_ms[i]);
    }
    std::string desc = s.description;
    if (absorbed) desc += " [fused]";
    std::snprintf(buf, sizeof(buf), "%-40s %14.0f %14s %8s %12s %12.1f %12.1f\n",
                  desc.c_str(), s.rows_out, actual, err, time_ms, s.step_cost,
                  s.cumulative_cost);
    out += buf;
    if (s.is_bind) {
      // Per-vertex candidate sizes: estimated vs actual surviving
      // candidates per input row for this bind's k-way intersection.
      // An unreached step or an emptied input renders "-" (zero-row
      // divide guard).
      char act_fan[32];
      const bool have_in = i > 0 && i - 1 < stats.step_rows.size() &&
                           stats.step_rows[i - 1] != 0;
      if (executed && have_in) {
        std::snprintf(act_fan, sizeof(act_fan), "%.2f",
                      static_cast<double>(stats.step_rows[i]) /
                          static_cast<double>(stats.step_rows[i - 1]));
      } else {
        std::snprintf(act_fan, sizeof(act_fan), "-");
      }
      std::snprintf(buf, sizeof(buf),
                    "  cands/row: est %.2f, act %s\n", s.est_fanout, act_fan);
      out += buf;
    }
  }
  char total_err[32];
  FormatErrRatio(total_err, sizeof(total_err), result_rows, stats.result_rows,
                 true);
  std::snprintf(buf, sizeof(buf),
                "total: %.1f page-units, ~%.0f rows est., %llu rows actual "
                "(err %s), %.3f ms (optimize %.3f ms)\n",
                total_cost, result_rows,
                static_cast<unsigned long long>(stats.result_rows), total_err,
                stats.elapsed_ms, stats.optimize_ms);
  out += buf;
  const OperatorStats& op = stats.operators;
  std::snprintf(buf, sizeof(buf),
                "materialized: %llu rows, copy bytes avoided: %llu\n",
                static_cast<unsigned long long>(op.rows_materialized),
                static_cast<unsigned long long>(op.copy_bytes_avoided));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "temporal pages: %llu read, %llu written\n",
                static_cast<unsigned long long>(op.temporal_pages_read),
                static_cast<unsigned long long>(op.temporal_pages_written));
  out += buf;
  const bool any_bind =
      std::any_of(steps.begin(), steps.end(),
                  [](const StepEstimate& s) { return s.is_bind; });
  if (any_bind || op.kway_intersect_probes != 0 || op.wcoj_reach_pruned != 0) {
    std::snprintf(buf, sizeof(buf),
                  "wcoj: %llu/%llu k-way probes survived, %llu candidates "
                  "pruned by reach\n",
                  static_cast<unsigned long long>(op.kway_intersect_hits),
                  static_cast<unsigned long long>(op.kway_intersect_probes),
                  static_cast<unsigned long long>(op.wcoj_reach_pruned));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "buffer pool: %llu hits, %llu misses; code cache: %llu hits, "
                "%llu misses; page reads: %llu\n",
                static_cast<unsigned long long>(stats.io.pool_hits),
                static_cast<unsigned long long>(stats.io.pool_misses),
                static_cast<unsigned long long>(stats.io.code_cache_hits),
                static_cast<unsigned long long>(stats.io.code_cache_misses),
                static_cast<unsigned long long>(stats.io.page_reads));
  out += buf;
  return out;
}

Result<PlanExplanation> ExplainPlan(const Pattern& pattern, const Plan& plan,
                                    const Catalog& catalog,
                                    CostParams params) {
  FGPM_RETURN_IF_ERROR(plan.Validate(pattern));
  CostModel model(&catalog, params);

  std::vector<LabelId> labels(pattern.num_nodes(), 0);
  bool resolvable = true;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    auto l = catalog.FindLabel(pattern.label(i));
    if (!l) {
      resolvable = false;
      break;
    }
    labels[i] = *l;
  }

  PlanExplanation out;
  if (!resolvable) {
    for (const PlanStep& step : plan.steps) {
      out.steps.push_back({StepLabel(pattern, step), 0, 0, 0});
    }
    return out;
  }

  // Replays the exact charges DP/DPS make per move — including the
  // materialization charge at the output width (popcount of the running
  // bound-node set) — so explain totals equal optimizer estimates.
  const auto& edges = pattern.edges();
  double rows = 0, cost = 0;
  uint32_t bound = 0;
  for (const PlanStep& step : plan.steps) {
    double step_cost = 0;
    double est_fanout = 0;
    bool is_bind = false;
    switch (step.kind) {
      case StepKind::kHpsjBase: {
        LabelId x = labels[edges[step.edge].from];
        LabelId y = labels[edges[step.edge].to];
        rows = model.BaseJoinSize(x, y);
        bound |= (1u << edges[step.edge].from) | (1u << edges[step.edge].to);
        step_cost = model.HpsjBaseCost(x, y) +
                    model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
      case StepKind::kScanBase: {
        LabelId l = labels[step.scan_node];
        rows = static_cast<double>(catalog.ExtentSize(l));
        bound |= 1u << step.scan_node;
        step_cost = model.ScanBaseCost(l) +
                    model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
      case StepKind::kFilter: {
        // Distinct probed pattern nodes in this (possibly shared) scan.
        std::vector<PatternNodeId> cols;
        double survival = 1.0;
        for (const FilterItem& item : step.filters) {
          const PatternEdge& e = edges[item.edge];
          PatternNodeId bound_node = item.bound_is_source ? e.from : e.to;
          if (std::find(cols.begin(), cols.end(), bound_node) == cols.end()) {
            cols.push_back(bound_node);
          }
          survival *= model.SemijoinSurvival(labels[e.from], labels[e.to],
                                             item.bound_is_source);
        }
        step_cost = model.FilterCost(rows, static_cast<int>(cols.size()),
                                     static_cast<int>(step.filters.size()));
        rows *= survival;
        step_cost += model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
      case StepKind::kFetch: {
        const PatternEdge& e = edges[step.edge];
        LabelId x = labels[e.from], y = labels[e.to];
        step_cost = model.FetchCost(rows, x, y, step.bound_is_source);
        double survival =
            model.SemijoinSurvival(x, y, step.bound_is_source);
        double fanout = model.ExtendFanout(x, y, step.bound_is_source);
        rows *= std::max(1.0, fanout / std::max(1e-12, survival));
        bound |= 1u << (step.bound_is_source ? e.to : e.from);
        step_cost += model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
      case StepKind::kSelect: {
        const PatternEdge& e = edges[step.edge];
        step_cost = model.SelectCost(rows);
        rows *= model.SelectSelectivity(labels[e.from], labels[e.to]);
        step_cost += model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
      case StepKind::kWcojBind: {
        // Mirrors the DP/DPS bind-move charge exactly: selectivity is
        // the product over all consumed edges, the driver is the
        // minimum-fanout constraint.
        double sel = 1.0;
        double min_fanout = std::numeric_limits<double>::infinity();
        LabelId dx = 0, dy = 0;
        bool dfwd = false;
        for (uint32_t e : step.wcoj_edges) {
          const PatternEdge& pe = edges[e];
          bool fwd = (pe.to == step.scan_node);
          LabelId x = labels[pe.from], y = labels[pe.to];
          sel *= model.SelectSelectivity(x, y);
          double f = model.ExtendFanout(x, y, fwd);
          if (f < min_fanout) {
            min_fanout = f;
            dx = x;
            dy = y;
            dfwd = fwd;
          }
        }
        const double rows_in = rows;
        est_fanout =
            static_cast<double>(catalog.ExtentSize(labels[step.scan_node])) *
            sel;
        is_bind = true;
        rows = rows_in * est_fanout;
        bound |= 1u << step.scan_node;
        step_cost =
            model.WcojBindCost(rows_in,
                               static_cast<int>(step.wcoj_edges.size()), dx,
                               dy, dfwd, rows) +
            model.MaterializeCost(rows, std::popcount(bound));
        break;
      }
    }
    cost += step_cost;
    out.steps.push_back(
        {StepLabel(pattern, step), rows, step_cost, cost, est_fanout, is_bind});
  }
  out.total_cost = cost;
  out.result_rows = rows;
  return out;
}

}  // namespace fgpm
