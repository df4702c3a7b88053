// Seeded inputs. Each workload generates its graphs with fixed
// structure seeds (the datasets the repository's own benches use) and
// then draws an isomorphic copy from the run's --seed: a random node-id
// permutation. Different seeds therefore give different inputs (other
// ids, other storage layout, other result tuples and checksums) with the
// same query costs in distribution, so runs on different seeds are
// comparable. Structure-level variation (for example the size of the
// XMark reference web's strongly connected components) moves the XMark
// suite's cost by tens of percent between generator seeds, which would
// swamp any engine change.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>

#include "graph/graph.h"

namespace perfbench {

// The graph `g` with node ids permuted by `seed` (labels interned in the
// same order, so label ids are unchanged). `g` must be finalized; the
// result is.
fgpm::Graph Relabel(const fgpm::Graph& g, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
