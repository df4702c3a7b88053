// Worst-case-optimal vertex binding (leapfrog-triejoin style) for
// cyclic patterns: one ApplyWcojBind call extends every row of the
// temporal table by one pattern vertex whose candidate set is the k-way
// intersection of the per-constraint reachable sets.
//
// For a constraint edge X -> V with X bound to u, the V-labeled nodes
// reachable from u are exactly  ∪ { T-subcluster(c, V) : c ∈ out(u) ∩
// W(X, V) }  — the same expansion the Fetch operator performs, so the
// bound vertex's candidates agree with any binary plan. Per row the
// operator adaptively splits the constraints: the smallest estimated
// expansion drives, near-sized expansions are materialized and pruned
// via IntersectKWayU32 (bitmap sidecars are built over large expansions
// so the k-way primitive can take its bitmap-AND fast path), and
// expansions that would dwarf the driver degrade to per-candidate
// reachability probes (GetCodes plus one code intersection).
//
// Expansions are memoized per (probed node, constraint) within a row
// chunk — rows repeating a bound node share one expansion, mirroring
// the filter/fetch pool dedup. Chunks emit into local buffers merged in
// chunk order, so the produced rows are identical for every thread
// count (the work counters, as everywhere, are not).
//
// On a factorized table the bound vertex becomes a new delta level; in
// eager mode the row block is re-widened like FetchEager. Pending
// filter slots (hybrid plans can bind mid-pipeline) are carried through
// unchanged.
#ifndef FGPM_EXEC_WCOJ_H_
#define FGPM_EXEC_WCOJ_H_

#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "exec/temporal_table.h"
#include "gdb/database.h"
#include "query/pattern.h"

namespace fgpm {

// Binds step.scan_node using the constraint edges in step.wcoj_edges
// (every edge's other endpoint must already be a column of `table`).
// Follows the operator contract of operators.h: optional pool/scratch,
// stats folded once on success, deterministic rows at any thread count.
Status ApplyWcojBind(const GraphDatabase& db, const Pattern& pattern,
                     const std::vector<LabelId>& node_labels,
                     const PlanStep& step, TemporalTable* table,
                     OperatorStats* stats, ThreadPool* pool = nullptr,
                     ExecScratch* scratch = nullptr);

}  // namespace fgpm

#endif  // FGPM_EXEC_WCOJ_H_
