#include "core/result_cache.h"

#include "common/logging.h"

namespace fgpm {

namespace {

// Bookkeeping bytes per entry beyond the row block: the key lives twice
// (LRU index + LRU list), plus index node / list node / Entry overhead.
// An estimate is fine — the budget bounds memory, it does not meter it.
size_t EntryBytes(const std::string& key, size_t num_ids) {
  return num_ids * sizeof(NodeId) + 2 * key.size() + 160;
}

}  // namespace

const ResultCache::Entry* ResultCache::LookupExact(const std::string& key) {
  const Entry* e = entries_.Get(key);
  if (e != nullptr) {
    ++hits_exact_;
  } else {
    ++misses_;
  }
  return e;
}

void ResultCache::Insert(const std::string& key, size_t arity,
                         const std::vector<std::vector<NodeId>>& rows) {
  const size_t entry_bytes = EntryBytes(key, rows.size() * arity);
  // Would evict everything for nothing; skip before copying the rows.
  if (entry_bytes > entries_.budget()) return;

  Entry e;
  e.arity = arity;
  e.num_rows = rows.size();
  e.rows.reserve(rows.size() * arity);
  for (const auto& row : rows) {
    FGPM_CHECK(row.size() == arity);
    e.rows.insert(e.rows.end(), row.begin(), row.end());
  }
  entries_.Put(key, std::move(e), entry_bytes);
  ++inserts_;
}

}  // namespace fgpm
