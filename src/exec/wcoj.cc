#include "exec/wcoj.h"

#include <algorithm>
#include <unordered_map>

#include "common/intersect_kernels.h"
#include "common/sorted_vector.h"

namespace fgpm {
namespace {

// Mirrors the chunk helpers of operators.cc (kept file-local there).
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

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void ExtendSortOrder(TemporalTable* table, size_t new_col) {
  if (table->sorted_by().empty()) return;
  std::vector<size_t> sb = table->sorted_by();
  sb.push_back(new_col);
  table->set_sorted_by(std::move(sb));
}

Status FoldStats(Status s, OperatorStats* stats, const OperatorStats& local) {
  if (s.ok()) stats->Add(local);
  return s;
}

// Expansions at least this long get a chunked-bitmap sidecar so the
// k-way intersection can take its bitmap-AND fast path; below it, the
// SIMD array kernels win.
constexpr uint32_t kDefaultCodeBitmapThreshold = 128;

// A constraint expansion dwarfing the driver's estimate by more than
// this ratio is not materialized; its candidates are verified by
// per-candidate reachability probes instead.
constexpr double kMaterializeSlack = 8.0;

// One constraint edge of the bind, resolved against the table.
struct ConstraintCtx {
  uint32_t edge = 0;
  bool forward = false;  // bound endpoint is the edge source
  size_t col = 0;        // bound endpoint's column in the table
  LabelId col_label = 0;
  double avg_sub = 1.0;  // catalog: avg F/T-subcluster size per center
};

// Chunk-local memoized expansion of one (bound node, constraint):
// centers = code ∩ W, values = the reachable new-label nodes once
// expanded, plus an optional chunked-bitmap sidecar over values.
struct Expansion {
  std::vector<CenterId> centers;
  std::vector<NodeId> values;
  std::vector<uint32_t> chunk_ids;
  std::vector<uint64_t> words;
  bool expanded = false;

  SortedSetView View() const {
    return {values.data(), values.size(), chunk_ids.data(), words.data(),
            chunk_ids.size()};
  }
};

Status ApplyWcojBindImpl(const GraphDatabase& db, const Pattern& pattern,
                         const std::vector<LabelId>& node_labels,
                         const PlanStep& step, TemporalTable* table,
                         OperatorStats* stats, ThreadPool* pool,
                         ExecScratch* scratch) {
  if (step.wcoj_edges.empty()) {
    return Status::InvalidArgument("bind step without constraints");
  }
  stats->temporal_pages_read += TemporalTablePages(*table);
  const auto& edges = pattern.edges();
  const PatternNodeId new_node = step.scan_node;
  const LabelId new_label = node_labels[new_node];
  const size_t k = step.wcoj_edges.size();

  // Resolve each constraint and prefetch its W(X, Y) center list into
  // the executor-owned pool (capacity persists across calls).
  std::vector<std::vector<CenterId>> local_wcenters;
  std::vector<std::vector<CenterId>>& wcenters =
      scratch ? scratch->wcenters_pool : local_wcenters;
  if (wcenters.size() < k) wcenters.resize(k);
  std::vector<ConstraintCtx> ctx(k);
  for (size_t i = 0; i < k; ++i) {
    const PatternEdge& e = edges[step.wcoj_edges[i]];
    ConstraintCtx& c = ctx[i];
    c.edge = step.wcoj_edges[i];
    c.forward = (e.to == new_node);
    if (!c.forward && e.from != new_node) {
      return Status::InvalidArgument("bind constraint does not touch vertex");
    }
    const PatternNodeId bound = c.forward ? e.from : e.to;
    auto col = table->ColumnOf(bound);
    if (!col) return Status::InvalidArgument("bind constraint not bound");
    c.col = *col;
    c.col_label = node_labels[bound];
    const LabelId lx = node_labels[e.from], ly = node_labels[e.to];
    FGPM_RETURN_IF_ERROR(db.wtable().Lookup(lx, ly, &wcenters[i]));
    ++stats->wtable_lookups;
    const auto& ps = db.catalog().Stats(lx, ly);
    const double centers = std::max<double>(1.0, ps.num_centers);
    c.avg_sub =
        std::max(1.0, (c.forward ? ps.sum_t : ps.sum_f) / centers);
  }

  const size_t ncols = table->NumColumns();
  const size_t nrows = table->NumRows();
  const bool chained = !table->deltas().empty();
  const bool factorized = table->mode() == Materialization::kFactorized;
  const std::vector<NodeId>& rows = table->raw_rows();

  // Gathered bound columns (delta-chained tables only), shared when two
  // constraints probe the same column.
  std::vector<std::vector<NodeId>> gathered(k);
  std::vector<const NodeId*> colv(k, nullptr);
  if (chained) {
    for (size_t i = 0; i < k; ++i) {
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

  // Pending filter slots are carried through: pools are shared, the
  // per-row indexes are re-emitted per output row.
  std::vector<TemporalTable::PendingSlot> new_pending;
  for (const auto& slot : table->pending()) {
    new_pending.push_back({slot.edge, slot.bound_is_source, slot.pool, {}});
  }

  const size_t chunk = ChunkFor(nrows, pool, 128);
  const size_t nchunks = ThreadPool::NumChunks(nrows, chunk);
  struct ChunkOut {
    std::vector<uint32_t> parent;  // factorized output
    std::vector<NodeId> value;
    std::vector<NodeId> rows;  // eager output (full row copies)
    std::vector<std::vector<uint32_t>> kept;  // per pending slot
    uint64_t rows_scanned = 0;
    uint64_t rows_pruned = 0;
    uint64_t code_fetches = 0;
    uint64_t cluster_fetches = 0;
    uint64_t pairs_emitted = 0;
    uint64_t reach_pruned = 0;
    KWayStats kway;
  };
  std::vector<ChunkOut> parts(nchunks);
  std::vector<Status> errs(nchunks);
  RunChunked(pool, nrows, chunk, [&](unsigned wk, size_t c, size_t begin,
                                     size_t end) {
    ChunkOut& part = parts[c];
    part.kept.resize(new_pending.size());
    ExecScratch::Worker* ws =
        scratch != nullptr && wk < scratch->workers.size()
            ? &scratch->workers[wk]
            : nullptr;
    GraphCodeRecord local_rx, local_ry;
    GraphCodeRecord& rx = ws != nullptr ? ws->rx : local_rx;
    GraphCodeRecord& ry = ws != nullptr ? ws->ry : local_ry;

    // Chunk-local expansion memo per constraint: probed node -> pool
    // index (-1 = empty center set, row cannot match).
    std::vector<std::unordered_map<NodeId, int32_t>> seen(k);
    std::vector<std::vector<Expansion>> pools(k);
    std::unordered_map<size_t, GraphCodeRecord> col_codes;  // per row
    std::vector<CenterId> xi;
    std::vector<NodeId> cluster;
    std::vector<uint32_t> out_buf, tmp_buf;
    std::vector<SortedSetView> views;
    std::vector<size_t> set_idx, probe_idx, entry_idx(k);

    // Expands an entry's centers through the cluster index once; the
    // result (the sorted set of reachable new-label nodes) is a pure
    // function of (probed node, constraint).
    auto expand = [&](const ConstraintCtx& cc, Expansion* ent) -> Status {
      if (ent->expanded) return Status::OK();
      if (ent->centers.size() == 1) {
        FGPM_RETURN_IF_ERROR(
            cc.forward
                ? db.rjoin_index().GetT(ent->centers[0], new_label,
                                        &ent->values)
                : db.rjoin_index().GetF(ent->centers[0], new_label,
                                        &ent->values));
        ++part.cluster_fetches;
        part.pairs_emitted += ent->values.size();
      } else {
        for (CenterId w : ent->centers) {
          FGPM_RETURN_IF_ERROR(
              cc.forward ? db.rjoin_index().GetT(w, new_label, &cluster)
                         : db.rjoin_index().GetF(w, new_label, &cluster));
          ++part.cluster_fetches;
          part.pairs_emitted += cluster.size();
          ent->values.insert(ent->values.end(), cluster.begin(),
                             cluster.end());
        }
        std::sort(ent->values.begin(), ent->values.end());
        ent->values.erase(
            std::unique(ent->values.begin(), ent->values.end()),
            ent->values.end());
      }
      if (ent->values.size() >= kDefaultCodeBitmapThreshold) {
        BuildChunkedBitmap(ent->values.data(), ent->values.size(),
                           &ent->chunk_ids, &ent->words);
      }
      ent->expanded = true;
      return Status::OK();
    };

    for (size_t r = begin; r < end; ++r) {
      ++part.rows_scanned;
      col_codes.clear();
      bool ok = true;
      for (size_t i = 0; i < k && ok; ++i) {
        const NodeId node =
            chained ? colv[i][r] : rows[r * ncols + ctx[i].col];
        auto [sit, inserted] = seen[i].try_emplace(node, -1);
        if (!inserted) {
          if (sit->second < 0) {
            ok = false;
          } else {
            entry_idx[i] = static_cast<size_t>(sit->second);
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
        const auto& code = ctx[i].forward ? it->second.out : it->second.in;
        SortedIntersectInto(code, wcenters[i], &xi);
        if (xi.empty()) {
          ok = false;  // sit->second stays -1 (known-empty)
        } else {
          sit->second = static_cast<int32_t>(pools[i].size());
          entry_idx[i] = static_cast<size_t>(sit->second);
          Expansion ent;
          ent.centers = xi;
          pools[i].push_back(std::move(ent));
        }
      }
      if (!ok) {
        ++part.rows_pruned;
        continue;
      }

      // Driver choice: the constraint with the smallest (estimated)
      // expansion drives the intersection.
      size_t driver = 0;
      double driver_est = 0.0;
      for (size_t i = 0; i < k; ++i) {
        const Expansion& ent = pools[i][entry_idx[i]];
        const double est = ent.expanded
                               ? static_cast<double>(ent.values.size())
                               : ent.centers.size() * ctx[i].avg_sub;
        if (i == 0 || est < driver_est) {
          driver = i;
          driver_est = est;
        }
      }
      {
        Status s = expand(ctx[driver], &pools[driver][entry_idx[driver]]);
        if (!s.ok()) {
          errs[c] = std::move(s);
          return;
        }
      }
      if (pools[driver][entry_idx[driver]].values.empty()) {
        ++part.rows_pruned;
        continue;
      }
      const double driver_size = static_cast<double>(
          pools[driver][entry_idx[driver]].values.size());

      // Partition the remaining constraints: materialize near-driver-
      // sized expansions for the k-way intersection, degrade the rest
      // to per-candidate reachability probes.
      set_idx.clear();
      probe_idx.clear();
      set_idx.push_back(driver);
      for (size_t i = 0; i < k; ++i) {
        if (i == driver) continue;
        Expansion& ent = pools[i][entry_idx[i]];
        const double est = ent.expanded
                               ? static_cast<double>(ent.values.size())
                               : ent.centers.size() * ctx[i].avg_sub;
        if (ent.expanded || est <= kMaterializeSlack * driver_size) {
          Status s = expand(ctx[i], &ent);
          if (!s.ok()) {
            errs[c] = std::move(s);
            return;
          }
          set_idx.push_back(i);
        } else {
          probe_idx.push_back(i);
        }
      }

      const uint32_t* cand = nullptr;
      size_t ncand = 0;
      if (set_idx.size() == 1) {
        const Expansion& d = pools[driver][entry_idx[driver]];
        cand = d.values.data();
        ncand = d.values.size();
      } else {
        views.clear();
        for (size_t i : set_idx) views.push_back(pools[i][entry_idx[i]].View());
        const size_t need =
            pools[driver][entry_idx[driver]].values.size() + kIntersectPad;
        if (out_buf.size() < need) out_buf.resize(need);
        if (tmp_buf.size() < need) tmp_buf.resize(need);
        ncand = IntersectKWayU32(views.data(), views.size(), out_buf.data(),
                                 tmp_buf.data(), &part.kway);
        cand = out_buf.data();
      }
      if (ncand == 0) {
        ++part.rows_pruned;
        continue;
      }

      for (size_t j = 0; j < ncand; ++j) {
        const NodeId v = cand[j];
        bool pass = true;
        for (size_t i : probe_idx) {
          const NodeId bound_node =
              chained ? colv[i][r] : rows[r * ncols + ctx[i].col];
          const NodeId u = ctx[i].forward ? bound_node : v;
          const NodeId w2 = ctx[i].forward ? v : bound_node;
          const LabelId ul = ctx[i].forward ? ctx[i].col_label : new_label;
          const LabelId wl = ctx[i].forward ? new_label : ctx[i].col_label;
          Status s = db.GetCodes(u, ul, &rx);
          if (s.ok()) s = db.GetCodes(w2, wl, &ry);
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
          ++part.reach_pruned;
          continue;
        }
        if (factorized) {
          part.parent.push_back(static_cast<uint32_t>(r));
          part.value.push_back(v);
        } else {
          part.rows.insert(part.rows.end(), rows.begin() + r * ncols,
                           rows.begin() + (r + 1) * ncols);
          part.rows.push_back(v);
        }
        for (size_t s = 0; s < new_pending.size(); ++s) {
          part.kept[s].push_back(table->pending()[s].row_index[r]);
        }
      }
    }
  });
  FGPM_RETURN_IF_ERROR(FirstError(errs));

  size_t out_rows = 0;
  for (const ChunkOut& part : parts) {
    out_rows += factorized ? part.parent.size()
                           : part.rows.size() / (ncols + 1);
    stats->rows_scanned += part.rows_scanned;
    stats->rows_pruned += part.rows_pruned;
    stats->code_fetches += part.code_fetches;
    stats->cluster_fetches += part.cluster_fetches;
    stats->pairs_emitted += part.pairs_emitted;
    stats->kway_intersect_probes += part.kway.probes;
    stats->kway_intersect_hits += part.kway.hits;
    stats->wcoj_reach_pruned += part.reach_pruned;
  }

  for (auto& slot : new_pending) slot.row_index.reserve(out_rows);
  if (factorized) {
    TemporalTable::DeltaColumn& d = table->AddDeltaColumn(new_node);
    d.parent.reserve(out_rows);
    d.value.reserve(out_rows);
    for (ChunkOut& part : parts) {
      d.parent.insert(d.parent.end(), part.parent.begin(),
                      part.parent.end());
      d.value.insert(d.value.end(), part.value.begin(), part.value.end());
      for (size_t s = 0; s < new_pending.size(); ++s) {
        new_pending[s].row_index.insert(new_pending[s].row_index.end(),
                                        part.kept[s].begin(),
                                        part.kept[s].end());
      }
    }
    stats->copy_bytes_avoided += out_rows * ((ncols + 1) * 4 - 8);
  } else {
    std::vector<NodeId> new_rows;
    new_rows.reserve(out_rows * (ncols + 1));
    for (ChunkOut& part : parts) {
      new_rows.insert(new_rows.end(), part.rows.begin(), part.rows.end());
      for (size_t s = 0; s < new_pending.size(); ++s) {
        new_pending[s].row_index.insert(new_pending[s].row_index.end(),
                                        part.kept[s].begin(),
                                        part.kept[s].end());
      }
    }
    table->AddColumn(new_node);
    table->raw_rows() = std::move(new_rows);
    stats->rows_materialized += out_rows;
  }
  table->pending() = std::move(new_pending);
  ExtendSortOrder(table, ncols);
  stats->temporal_pages_written += TemporalTablePages(*table);
  return Status::OK();
}

}  // namespace

Status ApplyWcojBind(const GraphDatabase& db, const Pattern& pattern,
                     const std::vector<LabelId>& node_labels,
                     const PlanStep& step, TemporalTable* table,
                     OperatorStats* stats, ThreadPool* pool,
                     ExecScratch* scratch) {
  OperatorStats local;
  return FoldStats(ApplyWcojBindImpl(db, pattern, node_labels, step, table,
                                     &local, pool, scratch),
                   stats, local);
}

}  // namespace fgpm
