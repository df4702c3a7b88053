// Result cache: bounded, memory-budgeted storage of match results keyed
// by canonical pattern form (Canonicalize, query/containment.h). A
// query is answered from the cache only on an exact hit — its
// canonical key matches — and the cached rows are copied out.
//
// Each entry is the result's RowBlock in canonical node order, so one
// entry serves every spelling of its pattern. Eviction is LRU by bytes
// (common/lru_cache.h); a single result larger than the whole budget is
// never cached. The cache is deliberately single-threaded (owned by one
// GraphMatcher, like the plan cache); invalidation is the owner's job —
// GraphMatcher drops the whole cache when GraphDatabase::epoch() moves.
#ifndef FGPM_CORE_RESULT_CACHE_H_
#define FGPM_CORE_RESULT_CACHE_H_

#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/row_block.h"

namespace fgpm {

class ResultCache {
 public:
  explicit ResultCache(size_t budget_bytes) : entries_(budget_bytes) {}

  // Exact lookup; refreshes recency and bumps hits_exact on success,
  // misses otherwise. The pointer stays valid until the next
  // Insert/Clear.
  const RowBlock* LookupExact(const std::string& key);

  // Inserts a copy of `rows` (already in canonical node order) under
  // `key`. Replaces an existing entry for the same key. Oversized
  // results (entry alone over the whole budget) are skipped before
  // copying; otherwise least-recently-used entries are evicted until
  // within budget.
  void Insert(const std::string& key, const RowBlock& rows);

  void Clear() { entries_.Clear(); }

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return entries_.weight(); }
  size_t budget_bytes() const { return entries_.budget(); }
  uint64_t hits_exact() const { return hits_exact_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return entries_.evictions(); }
  uint64_t inserts() const { return inserts_; }

 private:
  LruCache<std::string, RowBlock> entries_;  // weighted by EntryBytes
  uint64_t hits_exact_ = 0;
  uint64_t misses_ = 0;
  uint64_t inserts_ = 0;
};

}  // namespace fgpm

#endif  // FGPM_CORE_RESULT_CACHE_H_
