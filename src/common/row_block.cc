#include "common/row_block.h"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "common/hash.h"

namespace fgpm {

RowBlock::RowBlock(
    std::initializer_list<std::initializer_list<uint32_t>> rows)
    : width_(rows.size() == 0 ? 0 : rows.begin()->size()) {
  Reserve(rows.size());
  for (const auto& row : rows) Append(row);
}

void RowBlock::SortRows() {
  if (num_rows_ < 2) return;
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Row ra = (*this)[a], rb = (*this)[b];
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(),
                                        rb.end());
  });
  decltype(ids_) sorted(ids_.size());
  uint32_t* out = sorted.data();
  for (uint32_t r : order) {
    const Row row = (*this)[r];
    out = std::copy(row.begin(), row.end(), out);
  }
  ids_.swap(sorted);
}

RowBlock RowBlock::SelectColumns(std::span<const uint32_t> cols) const {
  RowBlock out(cols.size());
  uint32_t* o = out.AppendUninitialized(num_rows_);
  for (Row row : *this) {
    for (uint32_t c : cols) *o++ = row[c];
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const RowBlock& rows) {
  constexpr size_t kMaxRows = 32;
  os << "{";
  size_t n = 0;
  for (RowBlock::Row row : rows) {
    if (n == kMaxRows) {
      os << " ...";
      break;
    }
    os << (n++ == 0 ? " (" : ", (");
    for (size_t i = 0; i < row.size(); ++i) os << (i ? ", " : "") << row[i];
    os << ")";
  }
  return os << " } (" << rows.size() << " rows)";
}

uint64_t RowSetChecksum(const RowBlock& rows) {
  RowHash h;
  uint64_t sum = 0;
  for (RowBlock::Row row : rows) {
    sum += HashMix(static_cast<uint64_t>(h(row)));
  }
  return sum;
}

}  // namespace fgpm
