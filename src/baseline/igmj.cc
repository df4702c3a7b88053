#include "baseline/igmj.h"

#include <algorithm>

#include "common/timer.h"
#include "opt/dp_optimizer.h"

namespace fgpm {
namespace {

// Interval entry of the X-side list. Sorted by (s asc, e desc) as in the
// paper's description of Xlist.
struct XEntry {
  uint32_t s = 0;
  uint32_t e = 0;
  uint64_t payload = 0;  // node id (base list) or temporal row index
};

// One IGMJ sweep: emits (x.payload, y.payload) for every x interval
// containing y's postorder, in a single synchronized pass.
template <typename Emit>
void IgmjSweep(std::vector<XEntry>& xs,
               const std::vector<std::pair<uint32_t, uint64_t>>& ys,
               IntDpStats* stats, const Emit& emit) {
  std::sort(xs.begin(), xs.end(), [](const XEntry& a, const XEntry& b) {
    if (a.s != b.s) return a.s < b.s;
    return a.e > b.e;
  });
  stats->entries_scanned += xs.size() + ys.size();
  auto heap_cmp = [](const XEntry& a, const XEntry& b) { return a.e > b.e; };
  std::vector<XEntry> active;  // min-heap on e
  size_t i = 0;
  for (const auto& [po, ypayload] : ys) {
    while (i < xs.size() && xs[i].s <= po) {
      active.push_back(xs[i++]);
      std::push_heap(active.begin(), active.end(), heap_cmp);
    }
    while (!active.empty() && active.front().e < po) {
      std::pop_heap(active.begin(), active.end(), heap_cmp);
      active.pop_back();
    }
    // Every active entry satisfies s <= po <= e.
    for (const XEntry& x : active) {
      ++stats->merge_emits;
      emit(x.payload, ypayload);
    }
  }
}

}  // namespace

IntDpEngine::IntDpEngine(const Graph* g, const Catalog* catalog)
    : g_(g), catalog_(catalog), index_(*g) {}

Result<MatchResult> IntDpEngine::Match(const Pattern& pattern) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  WallTimer timer;

  MatchResult result;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    result.column_labels.push_back(pattern.label(i));
  }
  result.rows = RowBlock(pattern.num_nodes());

  std::vector<LabelId> node_labels(pattern.num_nodes());
  bool resolvable = true;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    auto l = g_->FindLabel(pattern.label(i));
    if (!l) {
      resolvable = false;
      break;
    }
    node_labels[i] = *l;
  }

  uint64_t io_before = stats_.EstimatedIoPages();
  auto finish = [&]() {
    result.stats.result_rows = result.rows.size();
    result.stats.elapsed_ms = timer.ElapsedMillis();
    result.stats.modeled_io_pages = stats_.EstimatedIoPages() - io_before;
    return result;
  };
  if (!resolvable) return finish();

  if (pattern.num_edges() == 0) {
    for (NodeId v : g_->Extent(node_labels[0])) result.rows.Append({v});
    return finish();
  }

  // Join order from the DP optimizer (Section 4.1), as INT-DP does.
  Result<Plan> plan = catalog_ ? OptimizeDp(pattern, *catalog_)
                               : MakeCanonicalPlan(pattern);
  FGPM_RETURN_IF_ERROR(plan.status());

  // Base-side lists (built on demand per label, kept sorted).
  auto base_xlist = [&](LabelId l) {
    std::vector<XEntry> xs;
    for (NodeId v : g_->Extent(l)) {
      for (const PostInterval& iv : index_.IntervalsOf(v)) {
        xs.push_back({iv.lo, iv.hi, v});
      }
    }
    return xs;  // IgmjSweep sorts
  };
  auto base_ylist = [&](LabelId l) {
    std::vector<std::pair<uint32_t, uint64_t>> ys;
    for (NodeId v : g_->Extent(l)) ys.emplace_back(index_.PostOf(v), v);
    std::sort(ys.begin(), ys.end());
    return ys;
  };

  std::vector<PatternNodeId> schema;
  std::vector<std::vector<NodeId>> rows;

  auto column_of = [&](PatternNodeId n) -> int {
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema[c] == n) return static_cast<int>(c);
    }
    return -1;
  };

  for (const PlanStep& step : plan->steps) {
    switch (step.kind) {
      case StepKind::kHpsjBase: {
        const PatternEdge& e = pattern.edges()[step.edge];
        std::vector<XEntry> xs = base_xlist(node_labels[e.from]);
        auto ys = base_ylist(node_labels[e.to]);
        schema = {e.from, e.to};
        IgmjSweep(xs, ys, &stats_, [&](uint64_t x, uint64_t y) {
          rows.push_back({static_cast<NodeId>(x), static_cast<NodeId>(y)});
        });
        break;
      }
      case StepKind::kFilter:
        break;  // IGMJ has no semijoin phase; the fetch does the work
      case StepKind::kFetch: {
        const PatternEdge& e = pattern.edges()[step.edge];
        std::vector<std::vector<NodeId>> out;
        if (step.bound_is_source) {
          // Temporal X column must be re-sorted on intervals (the extra
          // sort the paper charges INT-DP for).
          int col = column_of(e.from);
          std::vector<XEntry> xs;
          for (size_t r = 0; r < rows.size(); ++r) {
            for (const PostInterval& iv : index_.IntervalsOf(rows[r][col])) {
              xs.push_back({iv.lo, iv.hi, r});
            }
          }
          ++stats_.sorts;
          stats_.entries_sorted += xs.size();
          auto ys = base_ylist(node_labels[e.to]);
          IgmjSweep(xs, ys, &stats_, [&](uint64_t r, uint64_t y) {
            out.push_back(rows[r]);
            out.back().push_back(static_cast<NodeId>(y));
          });
          schema.push_back(e.to);
        } else {
          // Temporal Y column re-sorted on postorder numbers.
          int col = column_of(e.to);
          std::vector<std::pair<uint32_t, uint64_t>> ys;
          for (size_t r = 0; r < rows.size(); ++r) {
            ys.emplace_back(index_.PostOf(rows[r][col]), r);
          }
          std::sort(ys.begin(), ys.end());
          ++stats_.sorts;
          stats_.entries_sorted += ys.size();
          std::vector<XEntry> xs = base_xlist(node_labels[e.from]);
          IgmjSweep(xs, ys, &stats_, [&](uint64_t x, uint64_t r) {
            out.push_back(rows[r]);
            out.back().push_back(static_cast<NodeId>(x));
          });
          schema.push_back(e.from);
        }
        rows = std::move(out);
        break;
      }
      case StepKind::kSelect: {
        const PatternEdge& e = pattern.edges()[step.edge];
        int cx = column_of(e.from), cy = column_of(e.to);
        std::vector<std::vector<NodeId>> out;
        for (auto& row : rows) {
          if (index_.Reaches(row[cx], row[cy])) out.push_back(std::move(row));
        }
        rows = std::move(out);
        break;
      }
      case StepKind::kScanBase: {
        schema = {step.scan_node};
        for (NodeId v : g_->Extent(node_labels[step.scan_node])) {
          rows.push_back({v});
        }
        break;
      }
      case StepKind::kWcojBind:
        // IGMJ is a binary sort-merge join; its DP plans never bind.
        return Status::Internal("INT-DP cannot execute a WCOJ bind step");
    }
    if (rows.empty() && !schema.empty()) break;
  }

  // Project to pattern-node order.
  if (schema.size() == pattern.num_nodes()) {
    std::vector<int> col_of(pattern.num_nodes());
    for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
      col_of[i] = column_of(i);
    }
    NodeId* out = result.rows.AppendUninitialized(rows.size());
    for (const auto& row : rows) {
      for (int c : col_of) *out++ = row[c];
    }
  }
  return finish();
}

}  // namespace fgpm
