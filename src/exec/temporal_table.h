// Temporal (intermediate) table: rows bind a subset of pattern labels;
// rows may carry *pending* center sets produced by R-semijoins whose
// Fetch has not run yet (the separation DPS exploits, Section 4.2).
//
// One row representation: a row-major NodeId block (`rows_`) holds the
// columns bound before the first fetch (HPSJ and scan produce it;
// filters and selects compact it). Each fetch or WCOJ bind appends a
// DeltaColumn of (parent_row, new_node) pairs that reference the
// previous level, so a chain of fetches forms a factorized prefix
// tree. Full rows exist only when FillRows writes them into the
// result block (once, at output).
//
// NumRows() always refers to the deepest level — the logical row count.
// Filters and selects compact only the deepest level; earlier levels
// keep unreferenced rows (they are shared prefixes, dropping them would
// mean rewriting every child level for no semantic gain).
#ifndef FGPM_EXEC_TEMPORAL_TABLE_H_
#define FGPM_EXEC_TEMPORAL_TABLE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "query/pattern.h"
#include "reach/two_hop.h"

namespace fgpm {

class TemporalTable {
 public:
  // One fetch (or WCOJ bind) level: row r of this level extends row
  // parent[r] of the previous level with value[r] bound to pattern node
  // `node`.
  struct DeltaColumn {
    PatternNodeId node = 0;
    std::vector<uint32_t> parent;
    std::vector<NodeId> value;
  };

  // Bound pattern nodes, in binding order: base columns first, then one
  // per delta level.
  const std::vector<PatternNodeId>& schema() const { return schema_; }
  size_t NumColumns() const { return schema_.size(); }
  size_t base_columns() const { return schema_.size() - deltas_.size(); }
  size_t NumRows() const {
    if (!deltas_.empty()) return deltas_.back().value.size();
    return rows_.size() / std::max<size_t>(1, schema_.size());
  }

  // Column index of a pattern node, if bound.
  std::optional<size_t> ColumnOf(PatternNodeId node) const;

  // --- base block construction -------------------------------------------
  // Base columns/rows; delta levels must not exist yet when appending.
  void AddColumn(PatternNodeId node) { schema_.push_back(node); }
  void AppendRow(const std::vector<NodeId>& row) {
    AppendRow(row.data(), row.size());
  }
  // Span-style overload: operators append straight from their buffers
  // instead of building a scratch vector per emitted row.
  void AppendRow(const NodeId* row, size_t n) {
    rows_.insert(rows_.end(), row, row + n);
  }
  void Reserve(size_t rows, size_t cols) { rows_.reserve(rows * cols); }
  // The row-major base block (all columns when no deltas exist).
  std::vector<NodeId>& raw_rows() { return rows_; }
  const std::vector<NodeId>& raw_rows() const { return rows_; }

  // --- delta levels ------------------------------------------------------
  DeltaColumn& AddDeltaColumn(PatternNodeId node) {
    schema_.push_back(node);
    deltas_.emplace_back();
    deltas_.back().node = node;
    return deltas_.back();
  }
  std::vector<DeltaColumn>& deltas() { return deltas_; }
  const std::vector<DeltaColumn>& deltas() const { return deltas_; }

  // Materializes column `col` for every current (deepest-level) row by
  // composing parent chains top-down: O(rows * depth), sequential reads.
  void GatherColumn(size_t col, std::vector<NodeId>* out) const;

  // Writes full rows [begin, end) of the deepest level, row-major, to
  // `out` (row `begin` first): id k of a row is the value of table
  // column col_order[k]. Walks the delta levels bottom-up through
  // `parent`; reads only, so disjoint ranges may fill concurrently.
  void FillRows(std::span<const size_t> col_order, size_t begin, size_t end,
                NodeId* out) const;

  // Bytes of the current representation (base block + delta levels),
  // excluding pending pools. Basis of the charged temporal-table I/O.
  uint64_t ByteSize() const;

  // --- sort-order provenance ---------------------------------------------
  // Nonempty means: the current rows are lexicographically sorted AND
  // distinct under these columns (so downstream consumers can skip
  // re-sorting). Set by operators that produce provably sorted output
  // (single-center HPSJ, fetch over a sorted parent order); cleared
  // when the property cannot be guaranteed. Filters/selects preserve it
  // (a subsequence of sorted distinct rows stays sorted and distinct).
  const std::vector<size_t>& sorted_by() const { return sorted_by_; }
  void set_sorted_by(std::vector<size_t> cols) { sorted_by_ = std::move(cols); }

  // --- pending semijoin state -------------------------------------------
  struct PendingSlot {
    uint32_t edge = 0;
    bool bound_is_source = false;
    // The intersections X_i of probed codes with W(X,Y) (Algorithm 2,
    // Filter), deduplicated in a pool: row r's centers are
    // pool[row_index[r]]. Fetch expansions copy only the 4-byte index,
    // not the vector, and rows whose probed node coincides share one
    // pool entry, so a fetch can expand each distinct entry once.
    std::vector<std::vector<CenterId>> pool;
    std::vector<uint32_t> row_index;

    const std::vector<CenterId>& CentersFor(size_t row) const {
      return pool[row_index[row]];
    }
  };
  std::vector<PendingSlot>& pending() { return pending_; }
  const std::vector<PendingSlot>& pending() const { return pending_; }

  // Index of the pending slot for (edge, dir), if present.
  std::optional<size_t> PendingSlotFor(uint32_t edge,
                                       bool bound_is_source) const;

 private:
  std::vector<PatternNodeId> schema_;
  std::vector<NodeId> rows_;
  std::vector<DeltaColumn> deltas_;
  std::vector<size_t> sorted_by_;
  std::vector<PendingSlot> pending_;
};

}  // namespace fgpm

#endif  // FGPM_EXEC_TEMPORAL_TABLE_H_
