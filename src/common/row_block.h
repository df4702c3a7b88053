// RowBlock: the one row form of match results. A width plus one
// contiguous buffer of ids, row-major, `width` ids per row; rows are
// exposed as spans into it. The executor fills a result's block in
// parallel, each row chunk writing its own slice (exec/engine.cc); the
// result cache, the wire protocol and the sharded join copy, move and
// append blocks without ever allocating a container per row.
//
//   RowBlock b(3);
//   b.Append({1, 2, 3});
//   for (std::span<const uint32_t> row : b) ... row[0] ...
#ifndef FGPM_COMMON_ROW_BLOCK_H_
#define FGPM_COMMON_ROW_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace fgpm {

// An allocator whose value-less construct() default-initializes, so a
// vector resize leaves trivially constructible elements unwritten. A
// block about to be overwritten is then not zeroed first — that would
// be a serial pass, and it would take every first-touch page fault on
// the allocating thread instead of on the threads that fill it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class RowBlock {
 public:
  using Row = std::span<const uint32_t>;

  // Forward iterator over rows; dereferences to a Row.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Row;

    Iterator() = default;
    Iterator(const uint32_t* p, size_t width) : p_(p), width_(width) {}
    Row operator*() const { return {p_, width_}; }
    Iterator& operator++() {
      p_ += width_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator t = *this;
      p_ += width_;
      return t;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.p_ == b.p_;
    }

   private:
    const uint32_t* p_ = nullptr;
    size_t width_ = 0;
  };

  RowBlock() = default;
  explicit RowBlock(size_t width) : width_(width) {}
  // Literal rows, all of one width (tests, examples).
  RowBlock(std::initializer_list<std::initializer_list<uint32_t>> rows);

  size_t width() const { return width_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  Row operator[](size_t r) const { return {ids_.data() + r * width_, width_}; }
  Iterator begin() const { return {ids_.data(), width_}; }
  Iterator end() const { return {ids_.data() + ids_.size(), width_}; }

  // The row-major ids: size() * width() of them.
  const uint32_t* data() const { return ids_.data(); }

  // A block of width 0 holds no rows (every pattern binds a node).
  void Append(Row row) {
    FGPM_DCHECK(width_ > 0 && row.size() == width_);
    ids_.insert(ids_.end(), row.begin(), row.end());
    ++num_rows_;
  }
  void Append(std::initializer_list<uint32_t> row) {
    Append(Row(row.begin(), row.size()));
  }
  // Appends `n` rows whose ids the caller then writes, and returns the
  // first of them. The pointer is valid until the next append.
  uint32_t* AppendUninitialized(size_t n) {
    FGPM_DCHECK(width_ > 0 || n == 0);
    const size_t at = ids_.size();
    ids_.resize(at + n * width_);
    num_rows_ += n;
    return ids_.data() + at;
  }
  void Reserve(size_t rows) { ids_.reserve(rows * width_); }

  // Sorts rows lexicographically: sorts row indexes, then permutes the
  // ids once into a fresh buffer.
  void SortRows();

  // The same rows with their ids picked or reordered: id k of row r of
  // the result is (*this)[r][cols[k]]. Column permutations between
  // pattern spellings and projections are both this.
  RowBlock SelectColumns(std::span<const uint32_t> cols) const;

  // Equal row sequences. Two empty blocks are equal whatever their
  // widths: both are the empty set of rows.
  bool operator==(const RowBlock& o) const {
    if (num_rows_ != o.num_rows_) return false;
    if (num_rows_ == 0) return true;
    return width_ == o.width_ && ids_ == o.ids_;
  }

 private:
  size_t width_ = 0;
  size_t num_rows_ = 0;
  std::vector<uint32_t, DefaultInitAllocator<uint32_t>> ids_;
};

// Prints `{ (1, 2), (3, 4) }`, at most 32 rows (test failure messages).
std::ostream& operator<<(std::ostream& os, const RowBlock& rows);

// Order-independent fingerprint of a set of result rows: commutative
// (+) over per-row mixed hashes (RowHash, common/hash.h), so any
// reordering checks equal while a changed, missing or duplicated row
// does not. Shared by the wire protocol's checksum-only responses and
// the benches' row-identity verification — both sides must agree on
// the algorithm.
uint64_t RowSetChecksum(const RowBlock& rows);

}  // namespace fgpm

#endif  // FGPM_COMMON_ROW_BLOCK_H_
