#include "core/result_cache.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/sorted_vector.h"
#include "gdb/graph_codes.h"
#include "reach/reach_memo.h"

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
  if (e != nullptr) ++hits_exact_;
  return e;
}

std::optional<ResultCache::ContainmentHit> ResultCache::FindContaining(
    const Pattern& specific) {
  const Entry* best = nullptr;
  const std::string* best_key = nullptr;
  ContainmentMapping best_mapping;
  for (const auto& [key, entry, weight] : entries_) {
    if (entry.pattern.num_nodes() != specific.num_nodes()) continue;
    auto m = Contains(entry.pattern, specific);
    if (!m) continue;
    const bool better =
        best == nullptr ||
        m->residual.size() < best_mapping.residual.size() ||
        (m->residual.size() == best_mapping.residual.size() &&
         entry.num_rows < best->num_rows);
    if (better) {
      best = &entry;
      best_key = &key;
      best_mapping = std::move(*m);
    }
  }
  if (best == nullptr) return std::nullopt;
  entries_.Get(*best_key);  // refresh recency
  return ContainmentHit{best, std::move(best_mapping)};
}

void ResultCache::Insert(const std::string& key, Pattern pattern,
                         const std::vector<std::vector<NodeId>>& rows) {
  const size_t arity = pattern.num_nodes();
  const size_t entry_bytes = EntryBytes(key, rows.size() * arity);
  // Would evict everything for nothing; skip before copying the rows.
  if (entry_bytes > entries_.budget()) return;

  Entry e;
  e.pattern = std::move(pattern);
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

Status ReplayContainment(const GraphDatabase& db, const Pattern& specific,
                         const std::vector<LabelId>& node_labels,
                         const ResultCache::Entry& entry,
                         const ContainmentMapping& mapping, ThreadPool* pool,
                         std::vector<ReachMemo>* memos_pool,
                         std::vector<std::vector<NodeId>>* out_rows,
                         OperatorStats* stats) {
  const size_t arity = entry.arity;
  FGPM_CHECK(arity == specific.num_nodes());
  const size_t nrows = entry.num_rows;

  // Column permutation general -> specific: out[g2s[g]] = row[g].
  const std::vector<PatternNodeId>& g2s = mapping.general_to_specific;

  const size_t chunk =
      pool == nullptr ? std::max<size_t>(nrows, 1)
                      : std::max<size_t>(256, nrows / (4 * pool->size() + 1));
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<NodeId> rows;  // survivors, specific node order
    uint64_t scanned = 0;
    uint64_t pruned = 0;
    uint64_t code_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  const unsigned workers = pool != nullptr ? pool->size() : 1;
  // One reachability memo per worker: residual probes repeat node pairs
  // exactly like the select operator (the same endpoints recur across
  // cached rows), so the memo collapses duplicates into one hash probe.
  // The tables come from the caller's pool — sizing one allocates, so
  // only first use (or a worker-count bump) pays; repeats epoch-clear.
  std::vector<ReachMemo>& memos = *memos_pool;
  if (memos.size() < workers) memos.resize(workers);
  for (auto& m : memos) {
    if (!m.enabled()) {
      m.Reset(kReachMemoEntries);
    } else {
      m.Clear();
    }
  }

  auto body = [&](unsigned wk, size_t c, size_t begin, size_t end) {
    ChunkOut& part = parts[c];
    ReachMemo* memo =
        wk < memos.size() && memos[wk].enabled() ? &memos[wk] : nullptr;
    GraphCodeRecord rx, ry;
    std::vector<NodeId> out(arity);
    for (size_t r = begin; r < end; ++r) {
      ++part.scanned;
      const NodeId* row = entry.rows.data() + r * arity;
      for (PatternNodeId g = 0; g < arity; ++g) out[g2s[g]] = row[g];
      bool keep = true;
      for (const PatternEdge& e : mapping.residual) {
        const NodeId u = out[e.from], v = out[e.to];
        bool reachable;
        uint32_t slot = 0;
        bool hit = false;
        if (memo != nullptr) slot = memo->Acquire(PackPair(u, v), &hit);
        if (hit) {
          reachable = memo->value(slot) != 0;
        } else {
          Status s = db.GetCodes(u, node_labels[e.from], &rx);
          if (s.ok()) s = db.GetCodes(v, node_labels[e.to], &ry);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          part.code_fetches += 2;
          reachable = SortedIntersects(rx.out, ry.in);
          if (memo != nullptr) memo->set_value(slot, reachable ? 1u : 0u);
        }
        if (!reachable) {
          keep = false;
          break;
        }
      }
      if (keep) {
        part.rows.insert(part.rows.end(), out.begin(), out.end());
      } else {
        ++part.pruned;
      }
    }
  };
  if (pool == nullptr || nchunks <= 1) {
    if (nrows > 0) body(0, 0, 0, nrows);
  } else {
    pool->ParallelFor(nrows, chunk, body);
  }
  for (const Status& s : errs) {
    if (!s.ok()) return s;
  }

  // Deterministic output: chunks merge in index order, so the replayed
  // row order never depends on the thread count.
  for (ChunkOut& part : parts) {
    stats->rows_scanned += part.scanned;
    stats->rows_pruned += part.pruned;
    stats->code_fetches += part.code_fetches;
    for (size_t i = 0; i + arity <= part.rows.size(); i += arity) {
      out_rows->emplace_back(part.rows.begin() + i,
                             part.rows.begin() + i + arity);
    }
  }
  return Status::OK();
}

}  // namespace fgpm
