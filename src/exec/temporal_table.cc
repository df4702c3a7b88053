#include "exec/temporal_table.h"

#include "common/logging.h"

namespace fgpm {

std::optional<size_t> TemporalTable::ColumnOf(PatternNodeId node) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == node) return i;
  }
  return std::nullopt;
}

std::optional<size_t> TemporalTable::PendingSlotFor(
    uint32_t edge, bool bound_is_source) const {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].edge == edge &&
        pending_[i].bound_is_source == bound_is_source) {
      return i;
    }
  }
  return std::nullopt;
}

void TemporalTable::GatherColumn(size_t col, std::vector<NodeId>* out) const {
  const size_t bc = base_columns();
  const size_t nrows = NumRows();
  out->clear();
  out->resize(nrows);
  if (deltas_.empty()) {
    for (size_t r = 0; r < nrows; ++r) (*out)[r] = rows_[r * bc + col];
    return;
  }
  const size_t depth = deltas_.size();
  const size_t target_level = col >= bc ? col - bc + 1 : 0;
  if (target_level == depth) {
    const std::vector<NodeId>& v = deltas_.back().value;
    std::copy(v.begin(), v.end(), out->begin());
    return;
  }
  // Compose parent arrays: idx[r] = the row's ancestor at `level`.
  std::vector<uint32_t> idx(deltas_[depth - 1].parent);
  size_t level = depth - 1;
  while (level > target_level) {
    const std::vector<uint32_t>& par = deltas_[level - 1].parent;
    for (uint32_t& i : idx) i = par[i];
    --level;
  }
  if (target_level == 0) {
    for (size_t r = 0; r < nrows; ++r) (*out)[r] = rows_[idx[r] * bc + col];
  } else {
    const std::vector<NodeId>& v = deltas_[target_level - 1].value;
    for (size_t r = 0; r < nrows; ++r) (*out)[r] = v[idx[r]];
  }
}

void TemporalTable::FillRows(std::span<const size_t> col_order, size_t begin,
                             size_t end, NodeId* out) const {
  const size_t width = col_order.size();
  const size_t bc = base_columns();
  // pos[c] = where table column c goes within an output row.
  std::vector<size_t> pos(NumColumns());
  for (size_t k = 0; k < width; ++k) pos[col_order[k]] = k;
  // idx[i] = row begin + i's ancestor at the level being written.
  std::vector<uint32_t> idx(end - begin);
  for (size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<uint32_t>(begin + i);
  }
  for (size_t level = deltas_.size(); level-- > 0;) {
    const DeltaColumn& d = deltas_[level];
    NodeId* o = out + pos[bc + level];
    for (uint32_t& i : idx) {
      *o = d.value[i];
      i = d.parent[i];
      o += width;
    }
  }
  NodeId* o = out;
  for (uint32_t i : idx) {
    const NodeId* base = rows_.data() + static_cast<size_t>(i) * bc;
    for (size_t c = 0; c < bc; ++c) o[pos[c]] = base[c];
    o += width;
  }
}

uint64_t TemporalTable::ByteSize() const {
  uint64_t bytes = rows_.size() * 4ull;
  for (const DeltaColumn& d : deltas_) {
    bytes += d.parent.size() * 4ull + d.value.size() * 4ull;
  }
  return bytes;
}

}  // namespace fgpm
