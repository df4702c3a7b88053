#include "exec/naive_matcher.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "graph/reach_oracle.h"

namespace fgpm {
namespace {

struct SearchState {
  const Graph* g;
  const Pattern* pattern;
  ReachOracle* oracle;
  std::vector<LabelId> node_labels;
  std::vector<PatternNodeId> order;      // binding order
  std::vector<NodeId> binding;  // per pattern node
  RowBlock* out = nullptr;      // result rows
};

// Checks every pattern edge whose endpoints are both bound, where at
// least one endpoint is the node bound last.
bool ConsistentWith(SearchState& s, PatternNodeId just_bound,
                    const std::vector<bool>& bound) {
  for (const PatternEdge& e : s.pattern->edges()) {
    if (e.from != just_bound && e.to != just_bound) continue;
    if (!bound[e.from] || !bound[e.to]) continue;
    if (!s.oracle->Reaches(s.binding[e.from], s.binding[e.to])) return false;
  }
  return true;
}

void Backtrack(SearchState& s, size_t depth, std::vector<bool>& bound) {
  if (depth == s.order.size()) {
    s.out->Append(s.binding);
    return;
  }
  PatternNodeId pn = s.order[depth];
  for (NodeId v : s.g->Extent(s.node_labels[pn])) {
    s.binding[pn] = v;
    bound[pn] = true;
    if (ConsistentWith(s, pn, bound)) Backtrack(s, depth + 1, bound);
    bound[pn] = false;
  }
}

}  // namespace

Result<MatchResult> NaiveMatch(const Graph& g, const Pattern& pattern) {
  FGPM_RETURN_IF_ERROR(pattern.Validate());
  WallTimer timer;

  MatchResult result;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    result.column_labels.push_back(pattern.label(i));
  }
  result.rows = RowBlock(pattern.num_nodes());

  SearchState s;
  s.g = &g;
  s.pattern = &pattern;
  ReachOracle oracle(&g);
  s.oracle = &oracle;
  s.node_labels.resize(pattern.num_nodes());
  bool resolvable = true;
  for (PatternNodeId i = 0; i < pattern.num_nodes(); ++i) {
    auto l = g.FindLabel(pattern.label(i));
    if (!l) {
      resolvable = false;
      break;
    }
    s.node_labels[i] = *l;
  }

  if (resolvable) {
    // Bind smaller extents first to cut the search tree.
    s.order.resize(pattern.num_nodes());
    std::iota(s.order.begin(), s.order.end(), 0);
    std::sort(s.order.begin(), s.order.end(),
              [&](PatternNodeId a, PatternNodeId b) {
                return g.Extent(s.node_labels[a]).size() <
                       g.Extent(s.node_labels[b]).size();
              });
    s.binding.assign(pattern.num_nodes(), kInvalidNode);
    std::vector<bool> bound(pattern.num_nodes(), false);
    s.out = &result.rows;
    Backtrack(s, 0, bound);
  }

  result.stats.result_rows = result.rows.size();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace fgpm
