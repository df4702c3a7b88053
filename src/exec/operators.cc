#include "exec/operators.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/sorted_vector.h"

namespace fgpm {

void RunChunked(ThreadPool* pool, size_t n, size_t chunk_size,
                const ThreadPool::Body& body) {
  if (chunk_size == 0) chunk_size = 1;
  if (pool == nullptr) {
    for (size_t begin = 0; begin < n; begin += chunk_size) {
      body(0, begin / chunk_size, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  pool->ParallelFor(n, chunk_size, body);
}

size_t ChunkFor(size_t n, ThreadPool* pool, size_t min_chunk) {
  if (n == 0) return 1;
  if (pool == nullptr || pool->size() <= 1) return n;
  size_t target = n / (static_cast<size_t>(pool->size()) * 8) + 1;
  return std::max(min_chunk, target);
}

namespace {

// First non-OK status in chunk order (deterministic error reporting).
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// Fetch and the WCOJ bind emit, per input row, the row extended by
// every candidate in ascending order. When the input rows were already
// lexicographically sorted and distinct under sorted_by, the output is
// sorted and distinct under sorted_by + {new column}.
void ExtendSortOrder(TemporalTable* table, size_t new_col) {
  if (table->sorted_by().empty()) return;
  std::vector<size_t> sb = table->sorted_by();
  sb.push_back(new_col);
  table->set_sorted_by(std::move(sb));
}

}  // namespace

uint64_t TemporalTablePages(const TemporalTable& table) {
  // 4 bytes per stored id (row block + delta levels) plus, per row and
  // pending slot, the row's center list (as the paper's (r_i, X_i)
  // pairs are materialized).
  uint64_t bytes = table.ByteSize();
  for (const auto& slot : table.pending()) {
    for (uint32_t idx : slot.row_index) bytes += 4ull * slot.pool[idx].size();
  }
  return (bytes + 8191) / 8192;
}

namespace {

// Single fold point of the stats-delta protocol (see operators.h):
// operator bodies below write a call-local OperatorStats which lands in
// the caller's struct in exactly one Add, and only on success.
Status FoldStats(Status s, OperatorStats* stats, const OperatorStats& local) {
  if (s.ok()) stats->Add(local);
  return s;
}

Status ScanBaseImpl(const GraphDatabase& db, const Pattern& pattern,
                    const std::vector<LabelId>& node_labels,
                    PatternNodeId scan_node, TemporalTable* out,
                    OperatorStats* stats) {
  (void)pattern;
  out->AddColumn(scan_node);
  out->Reserve(db.catalog().ExtentSize(node_labels[scan_node]), 1);
  FGPM_RETURN_IF_ERROR(
      db.table(node_labels[scan_node]).Scan([&](const GraphCodeRecord& r) {
        ++stats->rows_scanned;
        out->AppendRow(&r.node, 1);
      }));
  // Extents are loaded in ascending node order, so the scan is sorted.
  out->set_sorted_by({0});
  stats->rows_materialized += out->NumRows();
  stats->temporal_pages_written += TemporalTablePages(*out);
  return Status::OK();
}

Status HpsjBaseJoinImpl(const GraphDatabase& db, const Pattern& pattern,
                        const std::vector<LabelId>& node_labels, uint32_t edge,
                        TemporalTable* out, OperatorStats* stats,
                        ThreadPool* pool, ExecScratch* scratch) {
  const PatternEdge& e = pattern.edges()[edge];
  LabelId x = node_labels[e.from], y = node_labels[e.to];

  out->AddColumn(e.from);
  out->AddColumn(e.to);

  // Borrowed-buffer W-table probe: the scratch vector's capacity is
  // reused query over query; the span stays valid for the whole call
  // (nothing below touches the scratch buffer).
  std::vector<CenterId> local_centers;
  std::vector<CenterId>* cbuf =
      scratch ? &scratch->wtable_scratch : &local_centers;
  FGPM_ASSIGN_OR_RETURN(std::span<const CenterId> centers,
                        db.wtable().LookupSpan(x, y, cbuf));
  ++stats->wtable_lookups;

  if (centers.size() == 1) {
    // Single center: F(w) x T(w) has no duplicate pairs, and cluster
    // lists come back sorted (built in ascending node order), so the
    // cross product is already the sorted distinct output — skip the
    // bucketed dedup entirely and record the sort order.
    std::vector<NodeId> fs, ts;
    FGPM_RETURN_IF_ERROR(db.rjoin_index().GetF(centers[0], x, &fs));
    FGPM_RETURN_IF_ERROR(db.rjoin_index().GetT(centers[0], y, &ts));
    stats->cluster_fetches += 2;
    const uint64_t cross = static_cast<uint64_t>(fs.size()) * ts.size();
    stats->pairs_emitted += cross;
    std::vector<NodeId>& rows = out->raw_rows();
    rows.resize(2 * cross);
    size_t k = 0;
    for (NodeId u : fs) {
      for (NodeId v : ts) {
        rows[k++] = u;
        rows[k++] = v;
      }
    }
    out->set_sorted_by({0, 1});
    stats->rows_materialized += cross;
    stats->temporal_pages_written += TemporalTablePages(*out);
    return Status::OK();
  }

  // A pair can appear under several centers; HPSJ output is a set.
  // Workers emit packed (u, v) keys into chunk-local buffers, hashed
  // into a fixed number of buckets so the dedup itself parallelizes:
  // equal keys always land in the same bucket, each bucket is sorted +
  // uniqued independently, and the output is the buckets concatenated
  // in bucket order — thread-count invariant, no cross-worker locks,
  // and a large constant factor cheaper than a shared per-pair hash
  // set.
  constexpr size_t kBuckets = 64;
  constexpr uint64_t kMix = 0x9e3779b97f4a7c15ull;
  auto bucket_of = [](uint64_t key) {
    return static_cast<size_t>((key * kMix) >> 58);
  };
  const size_t n = centers.size();
  const size_t chunk = ChunkFor(n, pool, 1);
  const size_t nchunks = ThreadPool::NumChunks(n, chunk);
  struct ChunkOut {
    std::vector<std::vector<uint64_t>> buckets;
    std::vector<size_t> sorted;  // per bucket: length of sorted+unique prefix
    size_t buffered = 0;
    uint64_t pairs_emitted = 0;
    uint64_t cluster_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  RunChunked(pool, n, chunk, [&](unsigned, size_t c, size_t begin,
                                 size_t end) {
    ChunkOut& part = parts[c];
    part.buckets.resize(kBuckets);
    part.sorted.assign(kBuckets, 0);
    std::vector<NodeId> fs, ts;  // reused across the chunk's centers
    // Amortized local dedup bounds the buffers near their unique size
    // even when cross products are duplicate-heavy.
    size_t dedup_watermark = 1u << 22;
    for (size_t i = begin; i < end; ++i) {
      CenterId w = centers[i];
      Status s = db.rjoin_index().GetF(w, x, &fs);
      if (s.ok()) s = db.rjoin_index().GetT(w, y, &ts);
      if (!s.ok()) {
        errs[c] = std::move(s);
        return;
      }
      part.cluster_fetches += 2;
      uint64_t cross = static_cast<uint64_t>(fs.size()) * ts.size();
      part.pairs_emitted += cross;
      part.buffered += cross;
      for (NodeId u : fs) {
        uint64_t hi = static_cast<uint64_t>(u) << 32;
        for (NodeId v : ts) {
          uint64_t key = hi | v;
          part.buckets[bucket_of(key)].push_back(key);
        }
      }
      if (part.buffered >= dedup_watermark) {
        part.buffered = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
          auto& vec = part.buckets[b];
          // Sort only the fresh tail and merge it into the prefix that
          // earlier rounds already sorted + uniqued.
          auto mid = vec.begin() + part.sorted[b];
          std::sort(mid, vec.end());
          std::inplace_merge(vec.begin(), mid, vec.end());
          vec.erase(std::unique(vec.begin(), vec.end()), vec.end());
          part.sorted[b] = vec.size();
          part.buffered += vec.size();
        }
        dedup_watermark = std::max<size_t>(1u << 22, part.buffered * 2);
      }
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));
  for (const ChunkOut& part : parts) {
    stats->pairs_emitted += part.pairs_emitted;
    stats->cluster_fetches += part.cluster_fetches;
  }

  // Per-bucket merge in parallel: gather every chunk's slice of the
  // bucket, sort, unique. Bucket contents are a pure function of the
  // emitted key set, so neither chunking nor scheduling shows through.
  std::vector<std::vector<uint64_t>> merged(kBuckets);
  RunChunked(pool, kBuckets, 1, [&](unsigned, size_t, size_t begin,
                                    size_t end) {
    for (size_t b = begin; b < end; ++b) {
      size_t total = 0;
      for (const ChunkOut& part : parts) {
        if (!part.buckets.empty()) total += part.buckets[b].size();
      }
      std::vector<uint64_t>& m = merged[b];
      m.reserve(total);
      for (const ChunkOut& part : parts) {
        if (part.buckets.empty()) continue;
        m.insert(m.end(), part.buckets[b].begin(), part.buckets[b].end());
      }
      std::sort(m.begin(), m.end());
      m.erase(std::unique(m.begin(), m.end()), m.end());
    }
  });
  parts.clear();
  parts.shrink_to_fit();

  std::vector<size_t> offset(kBuckets + 1, 0);
  for (size_t b = 0; b < kBuckets; ++b) {
    offset[b + 1] = offset[b] + merged[b].size();
  }
  std::vector<NodeId>& rows = out->raw_rows();
  rows.resize(2 * offset[kBuckets]);
  RunChunked(pool, kBuckets, 1, [&](unsigned, size_t, size_t begin,
                                    size_t end) {
    for (size_t b = begin; b < end; ++b) {
      NodeId* dst = rows.data() + 2 * offset[b];
      for (uint64_t k : merged[b]) {
        *dst++ = PairFirst(k);
        *dst++ = PairSecond(k);
      }
    }
  });
  stats->rows_materialized += offset[kBuckets];
  stats->temporal_pages_written += TemporalTablePages(*out);
  return Status::OK();
}

Status ApplyFilterImpl(const GraphDatabase& db, const Pattern& pattern,
                       const std::vector<LabelId>& node_labels,
                       const std::vector<FilterItem>& items,
                       TemporalTable* table, OperatorStats* stats,
                       ThreadPool* pool, ExecScratch* scratch) {
  if (items.empty()) return Status::InvalidArgument("empty filter");
  stats->temporal_pages_read += TemporalTablePages(*table);
  const auto& edges = pattern.edges();

  struct ItemCtx {
    FilterItem item;
    size_t col = 0;      // probed column in the temporal table
    LabelId col_label = 0;
    bool use_out = false;  // probe out(x) vs in(y)
  };
  // W(X, Y) buffers hoisted into executor-owned scratch: their capacity
  // survives across filter calls (and queries) instead of being
  // reallocated per call.
  std::vector<std::vector<CenterId>> local_wcenters;
  std::vector<std::vector<CenterId>>& wcenters =
      scratch ? scratch->wcenters_pool : local_wcenters;
  if (wcenters.size() < items.size()) wcenters.resize(items.size());
  std::vector<ItemCtx> ctx(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const PatternEdge& e = edges[items[i].edge];
    PatternNodeId bound = items[i].bound_is_source ? e.from : e.to;
    auto col = table->ColumnOf(bound);
    if (!col) return Status::InvalidArgument("filter column not bound");
    ctx[i].item = items[i];
    ctx[i].col = *col;
    ctx[i].col_label = node_labels[bound];
    ctx[i].use_out = items[i].bound_is_source;
    FGPM_RETURN_IF_ERROR(db.wtable().Lookup(
        node_labels[e.from], node_labels[e.to], &wcenters[i]));
    ++stats->wtable_lookups;
  }

  const size_t ncols = table->NumColumns();
  const size_t nrows = table->NumRows();
  // Delta-chained tables probe through gathered column buffers (random
  // access would walk the parent chain per row); flat tables read the
  // row block directly.
  const bool chained = !table->deltas().empty();
  const std::vector<NodeId>& rows = table->raw_rows();
  std::vector<std::vector<NodeId>> gathered(ctx.size());
  std::vector<const NodeId*> colv(ctx.size(), nullptr);
  if (chained) {
    for (size_t i = 0; i < ctx.size(); ++i) {
      bool shared = false;
      for (size_t j = 0; j < i && !shared; ++j) {
        if (ctx[j].col == ctx[i].col) {
          colv[i] = colv[j];
          shared = true;
        }
      }
      if (shared) continue;
      table->GatherColumn(ctx[i].col, &gathered[i]);
      colv[i] = gathered[i].data();
    }
  }

  // Surviving-row center sets per old pending slot (pools are shared and
  // carried over; only row indexes are filtered), plus one fresh slot
  // per filter item.
  std::vector<TemporalTable::PendingSlot> new_pending;
  for (const auto& slot : table->pending()) {
    new_pending.push_back({slot.edge, slot.bound_is_source, slot.pool, {}});
  }
  size_t first_fresh = new_pending.size();
  for (const auto& c : ctx) {
    new_pending.push_back({c.item.edge, c.item.bound_is_source, {}, {}});
  }

  // Row-range partitions; each chunk scans its rows with its own shared
  // getCenters fetches (Remark 3.1) and buffers survivors. Fresh pools
  // are deduplicated per chunk by probed node (Xi is a pure function of
  // (node, item)), so rows repeating a node share one pool entry — the
  // property that lets a later fetch expand each entry once.
  const size_t chunk = ChunkFor(nrows, pool, 256);
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<NodeId> rows;       // flat survivors (full row copies)
    std::vector<uint32_t> kept;     // chained survivors (deepest row indexes)
    std::vector<std::vector<uint32_t>> carried;  // per old pending slot
    // Per item: chunk-local deduped Xi pool + per-survivor entry index.
    std::vector<std::vector<std::vector<CenterId>>> fresh_pool;
    std::vector<std::vector<uint32_t>> fresh_idx;
    uint64_t rows_scanned = 0;
    uint64_t rows_pruned = 0;
    uint64_t code_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  RunChunked(pool, nrows, chunk, [&](unsigned, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.carried.resize(first_fresh);
    part.fresh_pool.resize(ctx.size());
    part.fresh_idx.resize(ctx.size());
    // One scan; one getCenters per (row, distinct column) shared across
    // items (Remark 3.1).
    std::unordered_map<size_t, GraphCodeRecord> col_codes;
    // Per item: probed node -> chunk-local pool index (-1: empty Xi).
    std::vector<std::unordered_map<NodeId, int32_t>> seen(ctx.size());
    std::vector<uint32_t> idx_buf(ctx.size(), 0);
    std::vector<CenterId> xi;
    for (size_t r = begin; r < end; ++r) {
      ++part.rows_scanned;
      col_codes.clear();
      bool ok = true;
      for (size_t i = 0; i < ctx.size() && ok; ++i) {
        NodeId node = chained ? colv[i][r] : rows[r * ncols + ctx[i].col];
        auto [sit, inserted] = seen[i].try_emplace(node, -1);
        if (!inserted) {
          if (sit->second < 0) {
            ok = false;
          } else {
            idx_buf[i] = static_cast<uint32_t>(sit->second);
          }
          continue;
        }
        auto it = col_codes.find(ctx[i].col);
        if (it == col_codes.end()) {
          GraphCodeRecord rec;
          Status s = db.GetCodes(node, ctx[i].col_label, &rec);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          ++part.code_fetches;
          it = col_codes.emplace(ctx[i].col, std::move(rec)).first;
        }
        const auto& code = ctx[i].use_out ? it->second.out : it->second.in;
        // Hybrid kernel (galloping / SIMD merge) writing into the
        // hoisted per-item buffer (capacity reused across rows;
        // W(X, Y) is often much larger than a node's code, the
        // galloping regime).
        SortedIntersectInto(code, wcenters[i], &xi);
        if (xi.empty()) {
          ok = false;  // sit->second stays -1 (known-empty)
        } else {
          sit->second = static_cast<int32_t>(part.fresh_pool[i].size());
          idx_buf[i] = static_cast<uint32_t>(sit->second);
          part.fresh_pool[i].push_back(std::move(xi));
        }
      }
      if (!ok) {
        ++part.rows_pruned;
        continue;
      }
      if (chained) {
        part.kept.push_back(static_cast<uint32_t>(r));
      } else {
        part.rows.insert(part.rows.end(), rows.begin() + r * ncols,
                         rows.begin() + (r + 1) * ncols);
      }
      for (size_t s = 0; s < first_fresh; ++s) {
        part.carried[s].push_back(table->pending()[s].row_index[r]);
      }
      for (size_t i = 0; i < ctx.size(); ++i) {
        part.fresh_idx[i].push_back(idx_buf[i]);
      }
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  size_t kept_rows = 0;
  for (const ChunkOut& part : parts) {
    kept_rows += chained ? part.kept.size()
                         : part.rows.size() / std::max<size_t>(1, ncols);
    stats->rows_scanned += part.rows_scanned;
    stats->rows_pruned += part.rows_pruned;
    stats->code_fetches += part.code_fetches;
  }
  for (size_t s = 0; s < first_fresh; ++s) {
    new_pending[s].row_index.reserve(kept_rows);
  }
  for (size_t i = 0; i < ctx.size(); ++i) {
    new_pending[first_fresh + i].row_index.reserve(kept_rows);
  }
  if (chained) {
    // Compact only the deepest delta level; shared prefixes stay put.
    TemporalTable::DeltaColumn& deep = table->deltas().back();
    std::vector<uint32_t> new_parent;
    std::vector<NodeId> new_value;
    new_parent.reserve(kept_rows);
    new_value.reserve(kept_rows);
    for (const ChunkOut& part : parts) {
      for (uint32_t r : part.kept) {
        new_parent.push_back(deep.parent[r]);
        new_value.push_back(deep.value[r]);
      }
    }
    deep.parent = std::move(new_parent);
    deep.value = std::move(new_value);
  } else {
    std::vector<NodeId> new_rows;
    new_rows.reserve(kept_rows * ncols);
    for (ChunkOut& part : parts) {
      new_rows.insert(new_rows.end(), part.rows.begin(), part.rows.end());
    }
    table->raw_rows() = std::move(new_rows);
    stats->rows_materialized += kept_rows;
  }
  for (ChunkOut& part : parts) {
    for (size_t s = 0; s < first_fresh; ++s) {
      new_pending[s].row_index.insert(new_pending[s].row_index.end(),
                                      part.carried[s].begin(),
                                      part.carried[s].end());
    }
    for (size_t i = 0; i < ctx.size(); ++i) {
      TemporalTable::PendingSlot& slot = new_pending[first_fresh + i];
      uint32_t offset = static_cast<uint32_t>(slot.pool.size());
      for (auto& centers : part.fresh_pool[i]) {
        slot.pool.push_back(std::move(centers));
      }
      for (uint32_t idx : part.fresh_idx[i]) {
        slot.row_index.push_back(idx + offset);
      }
    }
  }

  table->pending() = std::move(new_pending);
  stats->temporal_pages_written += TemporalTablePages(*table);
  return Status::OK();
}

// Fetch: append a (parent, value) delta column. Each distinct
// pending-pool entry is expanded through the cluster index exactly once
// (rows sharing a probed node share a pool entry since the filter
// dedup), single-center expansions skip the redundant re-sort, and
// fused select edges prune candidates before they are appended.
Status ApplyFetchImpl(const GraphDatabase& db, const Pattern& pattern,
                      const std::vector<LabelId>& node_labels, uint32_t edge,
                      bool bound_is_source, TemporalTable* table,
                      OperatorStats* stats, ThreadPool* pool,
                      ExecScratch* scratch,
                      const std::vector<uint32_t>& fused_selects) {
  auto slot_idx = table->PendingSlotFor(edge, bound_is_source);
  if (!slot_idx) return Status::InvalidArgument("fetch without filter");
  stats->temporal_pages_read += TemporalTablePages(*table);
  const auto& edges = pattern.edges();
  const PatternNodeId new_node =
      bound_is_source ? edges[edge].to : edges[edge].from;
  const LabelId new_label = node_labels[new_node];
  const size_t ncols = table->NumColumns();
  const size_t nrows = table->NumRows();
  const auto& slot = table->pending()[*slot_idx];

  std::vector<TemporalTable::PendingSlot> new_pending;
  std::vector<size_t> kept_slots;
  for (size_t s = 0; s < table->pending().size(); ++s) {
    if (s == *slot_idx) continue;
    kept_slots.push_back(s);
    new_pending.push_back({table->pending()[s].edge,
                           table->pending()[s].bound_is_source,
                           table->pending()[s].pool,
                           {}});
  }

  // Fused select contexts: the other endpoint's values, gathered once
  // for the pre-fetch rows.
  struct Fused {
    uint32_t edge = 0;
    bool new_is_source = false;
    LabelId from_label = 0, to_label = 0;
    std::vector<NodeId> other_vals;
  };
  std::vector<Fused> fused(fused_selects.size());
  for (size_t k = 0; k < fused_selects.size(); ++k) {
    const PatternEdge& fe = edges[fused_selects[k]];
    Fused& f = fused[k];
    f.edge = fused_selects[k];
    f.new_is_source = (fe.from == new_node);
    if (!f.new_is_source && fe.to != new_node) {
      return Status::InvalidArgument("fused select does not touch fetched node");
    }
    PatternNodeId other = f.new_is_source ? fe.to : fe.from;
    auto oc = table->ColumnOf(other);
    if (!oc) return Status::InvalidArgument("fused select column not bound");
    f.from_label = node_labels[fe.from];
    f.to_label = node_labels[fe.to];
    table->GatherColumn(*oc, &f.other_vals);
  }

  // Phase 1: expand each referenced pool entry once. A pool entry is a
  // pure function of the probed node, so its expansion (the sorted set
  // of reachable new-label nodes) is too.
  const auto& pool_entries = slot.pool;
  const std::vector<uint32_t>& ridx = slot.row_index;
  std::vector<uint8_t> used(pool_entries.size(), 0);
  for (size_t r = 0; r < nrows; ++r) used[ridx[r]] = 1;

  const size_t npool = pool_entries.size();
  std::vector<std::vector<NodeId>> expansions(npool);
  {
    const size_t chunk = ChunkFor(npool, pool, 8);
    const size_t nchunks = ThreadPool::NumChunks(npool, chunk);
    struct ExpOut {
      uint64_t cluster_fetches = 0;
      uint64_t pairs_emitted = 0;
    };
    std::vector<ExpOut> eparts(nchunks);
    std::vector<Status> errs(nchunks);
    RunChunked(pool, npool, chunk, [&](unsigned, size_t c, size_t begin,
                                       size_t end) {
      ExpOut& part = eparts[c];
      std::vector<NodeId> cluster;  // reused across the chunk's entries
      for (size_t p = begin; p < end; ++p) {
        if (!used[p]) continue;
        std::vector<NodeId>& exp = expansions[p];
        const auto& centers = pool_entries[p];
        if (centers.size() == 1) {
          // A single cluster list is already sorted + unique (built in
          // ascending node order) — no re-sort needed.
          Status s = bound_is_source
                         ? db.rjoin_index().GetT(centers[0], new_label, &exp)
                         : db.rjoin_index().GetF(centers[0], new_label, &exp);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          ++part.cluster_fetches;
          part.pairs_emitted += exp.size();
          continue;
        }
        for (CenterId w : centers) {
          Status s = bound_is_source
                         ? db.rjoin_index().GetT(w, new_label, &cluster)
                         : db.rjoin_index().GetF(w, new_label, &cluster);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          ++part.cluster_fetches;
          part.pairs_emitted += cluster.size();
          exp.insert(exp.end(), cluster.begin(), cluster.end());
        }
        std::sort(exp.begin(), exp.end());
        exp.erase(std::unique(exp.begin(), exp.end()), exp.end());
      }
    });
    FGPM_RETURN_IF_ERROR(FirstError(errs));
    for (const ExpOut& part : eparts) {
      stats->cluster_fetches += part.cluster_fetches;
      stats->pairs_emitted += part.pairs_emitted;
    }
  }

  // Phase 2: emit (parent, value) pairs per row, running fused select
  // predicates on each candidate before it is appended.
  const size_t chunk = ChunkFor(nrows, pool, 256);
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<uint32_t> parent;
    std::vector<NodeId> value;
    std::vector<std::vector<uint32_t>> kept;  // per kept pending slot
    uint64_t rows_scanned = 0;
    uint64_t rows_pruned = 0;
    uint64_t code_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  RunChunked(pool, nrows, chunk, [&](unsigned wk, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.kept.resize(kept_slots.size());
    ExecScratch::Worker* ws =
        scratch != nullptr && wk < scratch->workers.size()
            ? &scratch->workers[wk]
            : nullptr;
    GraphCodeRecord local_rx, local_ry;
    GraphCodeRecord& rx = ws != nullptr ? ws->rx : local_rx;
    GraphCodeRecord& ry = ws != nullptr ? ws->ry : local_ry;
    for (size_t r = begin; r < end; ++r) {
      const std::vector<NodeId>& cand = expansions[ridx[r]];
      if (fused.empty()) {
        part.parent.insert(part.parent.end(), cand.size(),
                           static_cast<uint32_t>(r));
        part.value.insert(part.value.end(), cand.begin(), cand.end());
        for (size_t k = 0; k < kept_slots.size(); ++k) {
          part.kept[k].insert(
              part.kept[k].end(), cand.size(),
              table->pending()[kept_slots[k]].row_index[r]);
        }
        continue;
      }
      for (NodeId v : cand) {
        ++part.rows_scanned;
        bool pass = true;
        for (const Fused& f : fused) {
          NodeId u = f.new_is_source ? v : f.other_vals[r];
          NodeId w2 = f.new_is_source ? f.other_vals[r] : v;
          Status s = db.GetCodes(u, f.from_label, &rx);
          if (s.ok()) s = db.GetCodes(w2, f.to_label, &ry);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          part.code_fetches += 2;
          if (!SortedIntersects(rx.out, ry.in)) {
            pass = false;
            break;
          }
        }
        if (!pass) {
          ++part.rows_pruned;
          continue;
        }
        part.parent.push_back(static_cast<uint32_t>(r));
        part.value.push_back(v);
        for (size_t k = 0; k < kept_slots.size(); ++k) {
          part.kept[k].push_back(
              table->pending()[kept_slots[k]].row_index[r]);
        }
      }
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  size_t out_rows = 0;
  for (const ChunkOut& part : parts) {
    out_rows += part.parent.size();
    stats->rows_scanned += part.rows_scanned;
    stats->rows_pruned += part.rows_pruned;
    stats->code_fetches += part.code_fetches;
  }

  TemporalTable::DeltaColumn& d = table->AddDeltaColumn(new_node);
  d.parent.reserve(out_rows);
  d.value.reserve(out_rows);
  for (size_t k = 0; k < kept_slots.size(); ++k) {
    new_pending[k].row_index.reserve(out_rows);
  }
  for (ChunkOut& part : parts) {
    d.parent.insert(d.parent.end(), part.parent.begin(), part.parent.end());
    d.value.insert(d.value.end(), part.value.begin(), part.value.end());
    for (size_t k = 0; k < kept_slots.size(); ++k) {
      new_pending[k].row_index.insert(new_pending[k].row_index.end(),
                                      part.kept[k].begin(),
                                      part.kept[k].end());
    }
  }
  table->pending() = std::move(new_pending);
  ExtendSortOrder(table, ncols);
  stats->temporal_pages_written += TemporalTablePages(*table);
  return Status::OK();
}

Status ApplySelectImpl(const GraphDatabase& db, const Pattern& pattern,
                       const std::vector<LabelId>& node_labels, uint32_t edge,
                       TemporalTable* table, OperatorStats* stats,
                       ThreadPool* pool, ExecScratch* scratch) {
  const PatternEdge& e = pattern.edges()[edge];
  auto cx = table->ColumnOf(e.from), cy = table->ColumnOf(e.to);
  if (!cx || !cy) return Status::InvalidArgument("select columns not bound");
  stats->temporal_pages_read += TemporalTablePages(*table);

  const size_t ncols = table->NumColumns();
  const size_t nrows = table->NumRows();
  const bool chained = !table->deltas().empty();
  const std::vector<NodeId>& rows = table->raw_rows();
  std::vector<NodeId> gx, gy;
  if (chained) {
    table->GatherColumn(*cx, &gx);
    table->GatherColumn(*cy, &gy);
  }
  std::vector<TemporalTable::PendingSlot> new_pending;
  for (const auto& slot : table->pending()) {
    new_pending.push_back({slot.edge, slot.bound_is_source, slot.pool, {}});
  }

  const size_t chunk = ChunkFor(nrows, pool, 256);
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<NodeId> rows;       // flat survivors
    std::vector<uint32_t> kept_rows;  // chained survivors
    std::vector<std::vector<uint32_t>> kept;  // per pending slot
    uint64_t rows_scanned = 0;
    uint64_t rows_pruned = 0;
    uint64_t code_fetches = 0;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  RunChunked(pool, nrows, chunk, [&](unsigned wk, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.kept.resize(table->pending().size());
    ExecScratch::Worker* ws =
        scratch != nullptr && wk < scratch->workers.size()
            ? &scratch->workers[wk]
            : nullptr;
    GraphCodeRecord local_rx, local_ry;
    GraphCodeRecord& rx = ws != nullptr ? ws->rx : local_rx;
    GraphCodeRecord& ry = ws != nullptr ? ws->ry : local_ry;
    for (size_t r = begin; r < end; ++r) {
      ++part.rows_scanned;
      NodeId u = chained ? gx[r] : rows[r * ncols + *cx];
      NodeId v = chained ? gy[r] : rows[r * ncols + *cy];
      Status s = db.GetCodes(u, node_labels[e.from], &rx);
      if (s.ok()) s = db.GetCodes(v, node_labels[e.to], &ry);
      if (!s.ok()) {
        errs[c] = std::move(s);
        return;
      }
      part.code_fetches += 2;
      // Labels differ, so u != v; the code intersection decides (it
      // covers same-SCC pairs through the shared component center).
      if (!SortedIntersects(rx.out, ry.in)) {
        ++part.rows_pruned;
        continue;
      }
      if (chained) {
        part.kept_rows.push_back(static_cast<uint32_t>(r));
      } else {
        part.rows.insert(part.rows.end(), rows.begin() + r * ncols,
                         rows.begin() + (r + 1) * ncols);
      }
      for (size_t s2 = 0; s2 < table->pending().size(); ++s2) {
        part.kept[s2].push_back(table->pending()[s2].row_index[r]);
      }
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  size_t kept_rows = 0;
  for (ChunkOut& part : parts) {
    kept_rows += chained ? part.kept_rows.size()
                         : part.rows.size() / std::max<size_t>(1, ncols);
    stats->rows_scanned += part.rows_scanned;
    stats->rows_pruned += part.rows_pruned;
    stats->code_fetches += part.code_fetches;
    for (size_t s = 0; s < table->pending().size(); ++s) {
      new_pending[s].row_index.insert(new_pending[s].row_index.end(),
                                      part.kept[s].begin(),
                                      part.kept[s].end());
    }
  }
  if (chained) {
    TemporalTable::DeltaColumn& deep = table->deltas().back();
    std::vector<uint32_t> new_parent;
    std::vector<NodeId> new_value;
    new_parent.reserve(kept_rows);
    new_value.reserve(kept_rows);
    for (const ChunkOut& part : parts) {
      for (uint32_t r : part.kept_rows) {
        new_parent.push_back(deep.parent[r]);
        new_value.push_back(deep.value[r]);
      }
    }
    deep.parent = std::move(new_parent);
    deep.value = std::move(new_value);
  } else {
    std::vector<NodeId> new_rows;
    new_rows.reserve(kept_rows * ncols);
    for (ChunkOut& part : parts) {
      new_rows.insert(new_rows.end(), part.rows.begin(), part.rows.end());
    }
    table->raw_rows() = std::move(new_rows);
    stats->rows_materialized += kept_rows;
  }
  table->pending() = std::move(new_pending);
  stats->temporal_pages_written += TemporalTablePages(*table);
  return Status::OK();
}

}  // namespace

Status ScanBase(const GraphDatabase& db, const Pattern& pattern,
                const std::vector<LabelId>& node_labels,
                PatternNodeId scan_node, TemporalTable* out,
                OperatorStats* stats) {
  OperatorStats local;
  return FoldStats(
      ScanBaseImpl(db, pattern, node_labels, scan_node, out, &local), stats,
      local);
}

Status HpsjBaseJoin(const GraphDatabase& db, const Pattern& pattern,
                    const std::vector<LabelId>& node_labels, uint32_t edge,
                    TemporalTable* out, OperatorStats* stats,
                    ThreadPool* pool, ExecScratch* scratch) {
  OperatorStats local;
  return FoldStats(HpsjBaseJoinImpl(db, pattern, node_labels, edge, out,
                                    &local, pool, scratch),
                   stats, local);
}

Status ApplyFilter(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels,
                   const std::vector<FilterItem>& items, TemporalTable* table,
                   OperatorStats* stats, ThreadPool* pool,
                   ExecScratch* scratch) {
  OperatorStats local;
  return FoldStats(ApplyFilterImpl(db, pattern, node_labels, items, table,
                                   &local, pool, scratch),
                   stats, local);
}

Status ApplyFetch(const GraphDatabase& db, const Pattern& pattern,
                  const std::vector<LabelId>& node_labels, uint32_t edge,
                  bool bound_is_source, TemporalTable* table,
                  OperatorStats* stats, ThreadPool* pool,
                  ExecScratch* scratch,
                  const std::vector<uint32_t>& fused_selects) {
  OperatorStats local;
  return FoldStats(
      ApplyFetchImpl(db, pattern, node_labels, edge, bound_is_source, table,
                     &local, pool, scratch, fused_selects),
      stats, local);
}

Status ApplySelect(const GraphDatabase& db, const Pattern& pattern,
                   const std::vector<LabelId>& node_labels, uint32_t edge,
                   TemporalTable* table, OperatorStats* stats,
                   ThreadPool* pool, ExecScratch* scratch) {
  OperatorStats local;
  return FoldStats(ApplySelectImpl(db, pattern, node_labels, edge, table,
                                   &local, pool, scratch),
                   stats, local);
}

}  // namespace fgpm
