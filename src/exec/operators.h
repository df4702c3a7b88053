// Physical operators of the R-join/R-semijoin engine:
//   HpsjBaseJoin — Algorithm 1 (HPSJ) over two base tables.
//   ApplyFilter  — Algorithm 2 Filter == R-semijoin; a call carries one
//                  or more semijoins evaluated in ONE scan of the
//                  temporal table with shared getCenters fetches
//                  (Remark 3.1).
//   ApplyFetch   — Algorithm 2 Fetch: expands pending centers through
//                  the cluster-based R-join index into a new delta
//                  column (temporal_table.h), expands each distinct
//                  pending-pool entry once, and can evaluate fused
//                  select edges on candidates *before* they are
//                  appended (fused_selects).
//   ApplySelect  — self R-join (Eq. 5): reachability selection between
//                  two bound columns via graph codes.
//
// Parallelism: every operator takes an optional ThreadPool. HPSJ fans
// out over 2-hop centers; filter/fetch/select fan out over contiguous
// temporal-table row ranges. Each chunk emits into its own buffer;
// filter/fetch/select merge chunks in chunk order, and HPSJ dedups its
// packed pair set through fixed hash buckets that are sorted + uniqued
// independently and concatenated in bucket order. Either way the
// produced ROWS — and each row's pending center list CentersFor(r) —
// are identical for every thread count, including the sequential
// pool == nullptr path. The internal pending-pool layout may differ
// with chunking (pools deduplicate per chunk), as may work counters:
// code_fetches and cluster_fetches depend on how rows were partitioned
// across chunks. The produced rows never do — dedup only
// short-circuits recomputations whose result is a pure function of the
// probed node.
#ifndef FGPM_EXEC_OPERATORS_H_
#define FGPM_EXEC_OPERATORS_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/plan.h"
#include "exec/temporal_table.h"
#include "gdb/database.h"
#include "query/pattern.h"

namespace fgpm {

struct OperatorStats {
  uint64_t rows_scanned = 0;     // temporal rows examined by filters
  uint64_t rows_pruned = 0;      // rows dropped by filters/selects
  uint64_t pairs_emitted = 0;    // tuples produced before dedup
  uint64_t code_fetches = 0;     // getCenters / graph-code retrievals
  uint64_t cluster_fetches = 0;  // getF/getT cluster reads
  uint64_t wtable_lookups = 0;
  // Temporal tables are disk-resident in the paper's system (Shore):
  // each operator re-reads its input table and writes its output table.
  // We keep them in memory for speed but charge the equivalent page I/O
  // so DP-vs-DPS I/O comparisons mean what they meant in the paper.
  uint64_t temporal_pages_read = 0;
  uint64_t temporal_pages_written = 0;
  // Never written; the perfbench harness still reads them.
  uint64_t reach_memo_probes = 0;
  uint64_t reach_memo_hits = 0;
  // Materialization accounting: full-width rows written into the
  // row-major base block or the result set.
  uint64_t rows_materialized = 0;
  // WCOJ bind accounting: k-way intersection work (candidates tested
  // against a non-driver set / candidates surviving every set) and
  // candidates that survived the set intersection but were dropped by a
  // per-candidate reachability probe.
  uint64_t kway_intersect_probes = 0;
  uint64_t kway_intersect_hits = 0;
  uint64_t wcoj_reach_pruned = 0;

  // Stats-delta protocol: every operator accumulates into a call-local
  // OperatorStats and folds it into the caller's struct exactly once,
  // on success (worker chunks fold into the call-local struct on the
  // calling thread after the parallel region joins). So the caller's
  // struct only ever changes by one Add per operator call — the
  // executor snapshots it around each plan step to attribute deltas to
  // that step's trace span, race-free at any thread count.
  void Add(const OperatorStats& o) {
    rows_scanned += o.rows_scanned;
    rows_pruned += o.rows_pruned;
    pairs_emitted += o.pairs_emitted;
    code_fetches += o.code_fetches;
    cluster_fetches += o.cluster_fetches;
    wtable_lookups += o.wtable_lookups;
    temporal_pages_read += o.temporal_pages_read;
    temporal_pages_written += o.temporal_pages_written;
    rows_materialized += o.rows_materialized;
    kway_intersect_probes += o.kway_intersect_probes;
    kway_intersect_hits += o.kway_intersect_hits;
    wcoj_reach_pruned += o.wcoj_reach_pruned;
  }
};

// Operator-owned scratch the Executor threads through a query:
// reusable buffers that hoist per-call allocations out of the hot probe
// loops. Operators accept scratch == nullptr (tests and benches calling
// them directly) and fall back to local temporaries.
struct ExecScratch {
  struct Worker {
    GraphCodeRecord rx, ry;  // reused decoded-code records
  };
  std::vector<Worker> workers;
  // W(X, Y) probe buffers, reused call over call (capacity persists):
  // one for HPSJ's borrowed-buffer LookupSpan, one pool for filter items.
  std::vector<CenterId> wtable_scratch;
  std::vector<std::vector<CenterId>> wcenters_pool;

  void Configure(unsigned num_workers) {
    workers.assign(std::max(1u, num_workers), Worker{});
  }
};

// Runs body over chunks of [0, n): inline when no pool is given (or the
// pool has one worker — ThreadPool::ParallelFor already inlines that),
// fanned out otherwise. Chunk decomposition never affects operator
// output (chunks are merged in chunk order), only scheduling.
void RunChunked(ThreadPool* pool, size_t n, size_t chunk_size,
                const ThreadPool::Body& body);

// Chunk size for fanning `n` items out across the pool: one chunk (full
// hoisting, zero overhead) when sequential, ~8 chunks per worker when
// parallel so skew still balances, floored at `min_chunk` items to keep
// per-chunk setup amortized.
size_t ChunkFor(size_t n, ThreadPool* pool, size_t min_chunk);

// Charged pages for one pass over a temporal table's current contents
// (base block + delta levels + per-row pending center lists).
uint64_t TemporalTablePages(const TemporalTable& table);

// node_labels[i]: data-graph LabelId for pattern node i. Callers must
// have verified all labels exist (missing label => empty result upstream).
// Opens a plan with one base table: a single-column temporal table of
// ext(X) (the paper's DPS plans can semijoin a base table before any
// R-join — Figure 3, status S1).
Status ScanBase(const GraphDatabase& db, const Pattern& pattern,
                const std::vector<LabelId>& node_labels,
                PatternNodeId scan_node, TemporalTable* out,
                OperatorStats* stats);

Status HpsjBaseJoin(const GraphDatabase& db, const Pattern& pattern,
                    const std::vector<LabelId>& node_labels, uint32_t edge,
                    TemporalTable* out, OperatorStats* stats,
                    ThreadPool* pool = nullptr, ExecScratch* scratch = nullptr);

Status ApplyFilter(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels,
                   const std::vector<FilterItem>& items, TemporalTable* table,
                   OperatorStats* stats, ThreadPool* pool = nullptr,
                   ExecScratch* scratch = nullptr);

// `fused_selects`: pattern edges whose other endpoint is already bound,
// evaluated per candidate inside the expansion loop — rejected
// candidates are never appended.
Status ApplyFetch(const GraphDatabase& db, const Pattern& pattern,
                  const std::vector<LabelId>& node_labels, uint32_t edge,
                  bool bound_is_source, TemporalTable* table,
                  OperatorStats* stats, ThreadPool* pool = nullptr,
                  ExecScratch* scratch = nullptr,
                  const std::vector<uint32_t>& fused_selects = {});

Status ApplySelect(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels, uint32_t edge,
                   TemporalTable* table, OperatorStats* stats,
                   ThreadPool* pool = nullptr, ExecScratch* scratch = nullptr);

}  // namespace fgpm

#endif  // FGPM_EXEC_OPERATORS_H_
