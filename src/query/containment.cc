#include "query/containment.h"

#include <algorithm>
#include <numeric>

namespace fgpm {

std::vector<PatternNodeId> CanonicalForm::InverseNodeMap() const {
  std::vector<PatternNodeId> inv(node_map.size());
  for (PatternNodeId i = 0; i < node_map.size(); ++i) inv[node_map[i]] = i;
  return inv;
}

std::vector<uint32_t> CanonicalForm::InverseEdgeMap() const {
  std::vector<uint32_t> inv(edge_map.size());
  for (uint32_t i = 0; i < edge_map.size(); ++i) inv[edge_map[i]] = i;
  return inv;
}

CanonicalForm Canonicalize(const Pattern& p) {
  CanonicalForm out;

  // Node order: sorted labels. Labels are unique within a pattern
  // (Pattern::AddNode dedups), so the order is total.
  std::vector<PatternNodeId> order(p.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](PatternNodeId a, PatternNodeId b) {
    return p.label(a) < p.label(b);
  });
  out.node_map.resize(p.num_nodes());
  for (PatternNodeId pos = 0; pos < order.size(); ++pos) {
    out.node_map[order[pos]] = pos;
  }
  for (PatternNodeId pos = 0; pos < order.size(); ++pos) {
    out.pattern.AddNode(p.label(order[pos]));
  }

  // Edge order: remapped endpoints, sorted by (from, to). Edges are
  // unique (AddEdge rejects duplicates), so the order is total too.
  struct Tagged {
    PatternEdge e;
    uint32_t orig = 0;
  };
  std::vector<Tagged> edges(p.num_edges());
  for (uint32_t i = 0; i < p.num_edges(); ++i) {
    const PatternEdge& e = p.edges()[i];
    edges[i] = {{out.node_map[e.from], out.node_map[e.to]}, i};
  }
  std::sort(edges.begin(), edges.end(), [](const Tagged& a, const Tagged& b) {
    if (a.e.from != b.e.from) return a.e.from < b.e.from;
    return a.e.to < b.e.to;
  });
  out.edge_map.resize(p.num_edges());
  for (uint32_t pos = 0; pos < edges.size(); ++pos) {
    out.edge_map[edges[pos].orig] = pos;
    // Canonicalize never runs on invalid patterns; AddEdge can only
    // reject what AddEdge already accepted once.
    (void)out.pattern.AddEdge(edges[pos].e.from, edges[pos].e.to);
  }

  out.key = out.pattern.ToString();
  return out;
}

}  // namespace fgpm
