// Query-suite runner shared by the xmark_paper and heavy_parallel
// workloads: a fixed list of (matcher, pattern) cases executed one at a
// time through GraphMatcher::Match, each result checked against a
// reference checksum computed beforehand by a different engine path.
//
// Untraced passes time only the Match calls and the pass as a whole.
// Traced passes add the outside calls that attribute time to layers:
// GraphMatcher::MakePlan (opt), ExplainPlan vs ExecStats::step_rows
// (cardinality q-error), GraphDatabase::Io() deltas (storage, code
// cache), Scheduler::GetStats() deltas and getrusage CPU time.
#ifndef PERFBENCH_SUITE_H_
#define PERFBENCH_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_matcher.h"
#include "harness.h"

namespace perfbench {

struct Case {
  std::string name;
  fgpm::GraphMatcher* matcher = nullptr;  // the timed matcher
  fgpm::Pattern pattern;
  fgpm::MatchOptions options;
  uint64_t ref_checksum = 0;
  uint64_t ref_rows = 0;
};

// Computes each case's reference checksum by running `reference(i)`,
// which must answer case i through another engine path.
template <typename Fn>
void ComputeReferences(std::vector<Case>* cases, Fn&& reference,
                       Report* report) {
  for (size_t i = 0; i < cases->size(); ++i) {
    fgpm::Result<fgpm::MatchResult> r = reference(i);
    if (!r.ok()) {
      report->Wrong("reference for " + (*cases)[i].name + ": " +
                    r.status().ToString());
      continue;
    }
    (*cases)[i].ref_checksum = fgpm::RowSetChecksum(r->rows);
    (*cases)[i].ref_rows = r->rows.size();
  }
}

// Timings of untraced passes.
struct SuiteTimes {
  // Time of each pass inside Match calls (result checks and freeing the
  // rows are the benchmark's work, not the engine's).
  std::vector<double> pass_s;
  std::vector<std::vector<double>> pass_query_ms;  // [pass][case] Match wall
  // Execution time per case: ExecStats::elapsed_ms - optimize_ms.
  std::vector<std::vector<double>> case_exec_ms;
};

// Sets the end-to-end metrics of a suite workload:
//   throughput_qps  — patterns per second over one pass (the suite's
//                     pattern count / median pass time in Match, over
//                     the quieter half of the passes, QuietHalf);
//   latency_p50_ms  — the geometric mean over patterns of each pattern's
//                     median Match latency over all passes. (The median
//                     of all executions, or of the patterns, sits on one
//                     or two mid-suite patterns — on heavy_parallel the
//                     scheduling-bound ER triangle — and jumps with them
//                     from run to run.);
//   latency_tail_ms — the p95 of all executions (callers run enough
//                     passes for 200 of them, so ten or more lie beyond).
// The latencies use every pass so that stalls hitting some of them show;
// their quieter-half values are stamped for diagnosis, with the pass
// count, sample count and percentile used.
void SetSuiteMetrics(const SuiteTimes& t, size_t patterns, Report* report);

// Untraced measurement: whole passes over the suite until `seconds` of
// pass time have elapsed (at least `min_passes`). Every result is
// checked; a mismatch counts as a failed operation.
SuiteTimes RunPasses(const std::vector<Case>& cases, double seconds,
                     int min_passes, Report* report);

// Per-layer totals over traced passes.
struct LayerTotals {
  uint64_t queries = 0;
  std::vector<double> pass_s;  // time of each traced pass inside Match
  double pass_wall_ms = 0;     // wall time of all traced passes
  double match_wall_ms = 0;    // Match calls only
  double make_plan_ms = 0;
  double optimize_ms = 0;
  double elapsed_ms = 0;   // ExecStats::elapsed_ms: optimize + execute
  double step_ms[6] = {};  // by fgpm::StepKind
  uint64_t peak_rows = 0;  // max over queries of max step_rows
  fgpm::OperatorStats ops;
  uint64_t result_rows = 0;
  uint64_t modeled_io_pages = 0;
  fgpm::IoSnapshot io;  // GraphDatabase::Io() deltas, summed
  std::vector<double> qerrors;
  uint64_t sched_busy_ns = 0, sched_tasks = 0, sched_steals = 0;
  double cpu_s = 0;
  std::vector<std::vector<double>> case_exec_ms;
};
// Runs one case with the outside layer calls and folds it into *t;
// *exec_ms (if non-null) gets its execution time. False when
// the query failed or its result disagreed with the reference.
bool TraceQuery(const Case& c, LayerTotals* t, Report* report,
                double* exec_ms);

// Runs traced passes for `seconds` (at least one) and accumulates.
void RunTracedPasses(const std::vector<Case>& cases, double seconds,
                     LayerTotals* totals, Report* report);

// Sets the opt / exec / sched / storage / gdb / core / attribution
// metrics from traced totals.
void SetLayerMetrics(const LayerTotals& t, Report* report);

// *sum += after - before, field by field.
void AddIo(const fgpm::IoSnapshot& before, const fgpm::IoSnapshot& after,
           fgpm::IoSnapshot* sum);

// Sets the buffer-pool (storage.*) and code-cache (gdb.code_cache_*)
// metrics from GraphDatabase::Io() deltas over `queries` queries.
void SetIoMetrics(const fgpm::IoSnapshot& io, double queries, Report* report);

// trace.overhead_frac: how much slower the Match calls of traced passes
// ran than those of plain passes — the end-to-end figure's movement —
// as medians over the quieter half of each.
double TraceOverhead(const std::vector<double>& plain_pass_s,
                     const std::vector<double>& traced_pass_s);

// Scheduler::GetStats() summed over workers, for deltas.
struct SchedSnapshot {
  uint64_t busy_ns = 0, tasks = 0, steals = 0;
  static SchedSnapshot Now();
};

}  // namespace perfbench

#endif  // PERFBENCH_SUITE_H_
