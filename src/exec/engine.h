// Plan executor: runs a left-deep R-join/R-semijoin plan against a
// GraphDatabase and materializes the distinct match tuples.
#ifndef FGPM_EXEC_ENGINE_H_
#define FGPM_EXEC_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/row_block.h"  // MatchResult::rows, RowSetChecksum
#include "common/status.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "gdb/database.h"
#include "obs/trace.h"
#include "query/pattern.h"

namespace fgpm {

struct ExecStats {
  double elapsed_ms = 0;
  double optimize_ms = 0;  // plan-selection time (set by GraphMatcher)
  // Time to write the result block from the final temporal table (or,
  // for a single-label pattern, from the base-table scan); inside
  // elapsed_ms, outside every plan step.
  double materialize_ms = 0;
  uint64_t result_rows = 0;
  // How the result was produced: 0 = fresh execution, 1 = result-cache
  // exact hit (rows copied). Set by GraphMatcher.
  uint8_t cache_hit = 0;
  IoSnapshot io;           // delta over the execution
  OperatorStats operators;
  uint32_t steps = 0;
  // Row count after each plan step, indexed by plan-step position. A
  // select fused into the preceding fetch records the post-fetch count;
  // steps skipped because the intermediate emptied out record nothing
  // (so step_rows.size() <= plan.steps.size()). Explain renders these
  // against the optimizer's estimates.
  std::vector<uint64_t> step_rows;
  // Wall time of each executed plan step, aligned with step_rows. A
  // select absorbed into the preceding fused fetch records 0 here (its
  // time is inside the fetch's entry) and 1 in step_absorbed.
  std::vector<double> step_wall_ms;
  std::vector<uint8_t> step_absorbed;
  // Total page I/O under the paper's storage model: buffer-pool accesses
  // for indexes/tables plus disk-resident temporal-table passes. INT-DP
  // fills this with its own list-scan/re-sort estimate.
  uint64_t modeled_io_pages = 0;
  // Per-step spans (operator kind, wall/CPU time, stats deltas) when the
  // query ran at trace_level >= 1; null otherwise. Shared so projecting
  // or copying stats keeps the trace alive.
  std::shared_ptr<const QueryTrace> trace;
};

struct MatchResult {
  // Column i binds pattern node i (label column_labels[i]).
  std::vector<std::string> column_labels;
  RowBlock rows;  // distinct tuples, width column_labels.size()
  ExecStats stats;

  // Canonical ordering for comparisons in tests.
  void SortRows() { rows.SortRows(); }
};

// Rows per chunk of the parallel result fill. A result of at most one
// chunk is filled inline on the calling thread: small results (the
// serving path's common case) never post morsels or wake workers.
inline constexpr size_t kMaterializeChunkRows = 16384;

// Intra-operator parallelism and caching knobs. Result rows, in order,
// are identical for every thread count (see operators.h); elapsed time
// and chunking-affected counters (code_fetches) may differ.
// num_threads == 1 keeps the sequential code paths.
struct ExecOptions {
  unsigned num_threads = 1;  // 0 = one worker per hardware thread
  // GraphMatcher plan-cache bound (entries). 0 disables caching.
  size_t plan_cache_capacity = 256;
  // Result cache (GraphMatcher): answer a repeated query (any spelling
  // of the same canonical pattern) by copying its cached rows instead
  // of re-executing from base tables. Off by default — opt in for
  // serving-style workloads; A/B benches that re-run one pattern would
  // otherwise measure the cache, not the engine. Invalidated
  // automatically when GraphDatabase::epoch() moves (ApplyEdgeInsert).
  bool use_result_cache = false;
  // Memory budget of the result cache in MiB (LRU once over budget;
  // single results larger than the whole budget are never cached).
  size_t result_cache_mb = 64;
  // Observability. trace_level 0 keeps only the always-on aggregates
  // (ExecStats counters + registry metrics — the <3% overhead budget);
  // trace_level >= 1 records a QueryTrace span per plan step carrying
  // wall/CPU time plus the step's OperatorStats and buffer-pool /
  // code-cache deltas. Forced to 0 when built with FGPM_OBS=OFF.
  int trace_level = 0;
  // GraphMatcher-level slow-query log threshold in milliseconds
  // (elapsed = optimize + execute). Negative disables the log.
  double slow_query_ms = -1;
  // Which join operators the planner may use (see plan.h). kHybrid lets
  // the cost model mix WCOJ vertex binds over a pattern's cyclic core
  // with binary R-join steps; acyclic patterns keep binary plans.
  JoinStrategy join_strategy = JoinStrategy::kHybrid;
};

// Resolves every pattern label against the catalog. Returns false (and
// leaves node_labels untouched) when any label has no extent — the
// query's result is empty by definition.
bool ResolveNodeLabels(const GraphDatabase& db, const Pattern& pattern,
                       std::vector<LabelId>* node_labels);

class Executor {
 public:
  explicit Executor(const GraphDatabase* db, ExecOptions options = {})
      : db_(db), options_(options) {
    if (ResolveThreads(options.num_threads) > 1) {
      pool_ = std::make_unique<ThreadPool>(options.num_threads);
    }
    scratch_.Configure(pool_ ? pool_->size() : 1);
  }

  // Validates and runs `plan` for `pattern`. A pattern label absent from
  // the database yields an empty (not erroneous) result.
  // `trace_level_override` >= 0 replaces ExecOptions::trace_level for
  // this call (EXPLAIN ANALYZE forces spans on a level-0 executor).
  Result<MatchResult> Execute(const Pattern& pattern, const Plan& plan,
                              int trace_level_override = -1);

  unsigned num_threads() const { return pool_ ? pool_->size() : 1; }
  const ExecOptions& options() const { return options_; }
  // Retargets the planner between queries (plans themselves execute
  // under whatever strategy built them). GraphMatcher's plan-cache key
  // includes the strategy, so toggling never replays a stale plan.
  void set_join_strategy(JoinStrategy s) { options_.join_strategy = s; }

 private:
  const GraphDatabase* db_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when single-threaded
  // Reused probe buffers, threaded through the operators of every
  // Execute call (see ExecScratch).
  ExecScratch scratch_;
};

}  // namespace fgpm

#endif  // FGPM_EXEC_ENGINE_H_
