#include "core/result_cache.h"

namespace fgpm {

namespace {

// Bookkeeping bytes per entry beyond the row block: the key lives twice
// (LRU index + LRU list), plus index node / list node / block header.
// An estimate is fine — the budget bounds memory, it does not meter it.
size_t EntryBytes(const std::string& key, size_t num_ids) {
  return num_ids * sizeof(uint32_t) + 2 * key.size() + 160;
}

}  // namespace

const RowBlock* ResultCache::LookupExact(const std::string& key) {
  const RowBlock* e = entries_.Get(key);
  if (e != nullptr) {
    ++hits_exact_;
  } else {
    ++misses_;
  }
  return e;
}

void ResultCache::Insert(const std::string& key, const RowBlock& rows) {
  const size_t entry_bytes = EntryBytes(key, rows.size() * rows.width());
  // Would evict everything for nothing; skip before copying the rows.
  if (entry_bytes > entries_.budget()) return;
  entries_.Put(key, rows, entry_bytes);
  ++inserts_;
}

}  // namespace fgpm
