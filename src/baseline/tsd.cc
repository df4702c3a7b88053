#include "baseline/tsd.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "graph/algorithms.h"

namespace fgpm {

Result<std::unique_ptr<TsdEngine>> TsdEngine::Create(const Graph* g) {
  if (!g->finalized()) {
    return Status::FailedPrecondition("graph not finalized");
  }
  if (!IsDag(*g)) {
    return Status::FailedPrecondition(
        "TSD (TwigStackD) supports directed acyclic graphs only");
  }
  return std::unique_ptr<TsdEngine>(new TsdEngine(g));
}

bool TsdEngine::Reaches(NodeId u, NodeId v) {
  if (u == v) return true;
  if (sspi_.TreeReaches(u, v)) {
    ++stats_.interval_hits;
    return true;
  }
  ++stats_.sspi_expansions;
  return sspi_.Reaches(u, v);
}

Result<MatchResult> TsdEngine::Match(const Pattern& pattern) {
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

  if (resolvable) {
    // Streams: extents ordered by DFS preorder (interval start), the
    // document order TwigStack-style algorithms consume.
    const DfsForest& forest = sspi_.forest();
    std::vector<std::vector<NodeId>> streams(pattern.num_nodes());
    for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
      streams[i] = g_->Extent(node_labels[i]);
      std::sort(streams[i].begin(), streams[i].end(),
                [&](NodeId a, NodeId b) { return forest.pre[a] < forest.pre[b]; });
    }

    // Bind pattern nodes smallest-stream-first; check each edge against
    // already-bound endpoints as we descend.
    std::vector<PatternNodeId> order(pattern.num_nodes());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](PatternNodeId a, PatternNodeId b) {
      return streams[a].size() < streams[b].size();
    });

    std::vector<NodeId> binding(pattern.num_nodes(), kInvalidNode);
    std::vector<bool> bound(pattern.num_nodes(), false);

    // Iterative backtracking over stream positions.
    std::vector<size_t> pos(pattern.num_nodes(), 0);
    size_t depth = 0;
    while (true) {
      if (depth == order.size()) {
        result.rows.Append(binding);
        --depth;
        bound[order[depth]] = false;
        ++pos[depth];
        continue;
      }
      PatternNodeId pn = order[depth];
      const auto& stream = streams[pn];
      bool advanced = false;
      while (pos[depth] < stream.size()) {
        NodeId v = stream[pos[depth]];
        binding[pn] = v;
        bound[pn] = true;
        ++stats_.buffered_nodes;
        bool ok = true;
        for (const PatternEdge& e : pattern.edges()) {
          if (e.from != pn && e.to != pn) continue;
          if (!bound[e.from] || !bound[e.to]) continue;
          if (!Reaches(binding[e.from], binding[e.to])) {
            ok = false;
            break;
          }
        }
        if (ok) {
          ++depth;
          if (depth < order.size()) pos[depth] = 0;
          advanced = true;
          break;
        }
        bound[pn] = false;
        ++pos[depth];
      }
      if (advanced) continue;
      bound[pn] = false;
      if (depth == 0) break;
      --depth;
      bound[order[depth]] = false;
      ++pos[depth];
    }
  }

  result.stats.result_rows = result.rows.size();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace fgpm
