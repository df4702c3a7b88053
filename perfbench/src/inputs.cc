#include "inputs.h"

#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace perfbench {

fgpm::Graph Relabel(const fgpm::Graph& g, uint64_t seed) {
  fgpm::Graph out;
  for (fgpm::LabelId l = 0; l < g.NumLabels(); ++l) {
    out.InternLabel(g.LabelName(l));
  }
  // order[i] = old id of new node i; new_id is its inverse.
  std::vector<fgpm::NodeId> order(g.NumNodes());
  std::iota(order.begin(), order.end(), 0);
  fgpm::Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<fgpm::NodeId> new_id(g.NumNodes());
  for (fgpm::NodeId i = 0; i < order.size(); ++i) {
    new_id[order[i]] = i;
    out.AddNode(g.label_of(order[i]));
  }
  for (auto [u, v] : g.Edges()) {
    FGPM_CHECK(out.AddEdge(new_id[u], new_id[v]).ok());
  }
  out.Finalize();
  return out;
}

}  // namespace perfbench
