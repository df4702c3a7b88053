// 2-hop reachability labeling (Cohen et al., SODA'02), the foundation of
// the paper's graph codes, cluster-based R-join index and W-table.
//
// A 2-hop cover is a set of clusters S(U_w, w, V_w): every u in U_w
// reaches the *center* w, and w reaches every v in V_w. Node labels
// derive from the cover:  L_out(u) = centers w with u ~> w,
// L_in(v) = centers w with w ~> v;  u ~> v  iff the label sets intersect
// (after the paper's compaction that puts each node itself into both of
// its own label sets).
//
// Storage is a flat arena per direction: one contiguous CenterId pool
// plus an (offset, len) index per center, built once at Build*/LoadMeta
// time. Codes are handed out as std::span views — no per-center heap
// allocation, and consecutive centers are adjacent in memory (the
// builders emit centers in id order, so scans over the labeling walk
// the pool linearly). A probe is one sorted intersection of two arena
// slices (the SIMD/galloping kernels of common/sorted_vector.h).
//
// Two builders:
//  * BuildTwoHopPruned — pruned-BFS construction on the SCC condensation
//    (a valid 2-hop cover; our stand-in for the authors' EDBT'06 fast
//    algorithm; scales to millions of nodes). With num_threads > 1 the
//    per-center forward/backward sweeps run batch-parallel: a batch of
//    consecutive priority-ordered centers is swept concurrently, each
//    sweep pruning against the labels committed by earlier batches, and
//    the batch's label additions are committed in center order. Stale
//    pruning can only *add* (still true) entries, so the result is a
//    valid cover for any thread count, and it depends only on the batch
//    size — never on thread scheduling. num_threads == 1 reproduces the
//    sequential construction bit for bit.
//  * BuildTwoHopGreedy — classic greedy set-cover approximation; only
//    for small graphs (computes the transitive closure); used in tests
//    and the cover-size ablation.
//
// Centers are vertices of the condensation DAG, renumbered by the
// construction's priority order; all codes are sorted by center id.
// Labels are shared per SCC: nodes in the same component have equal
// codes (cycle members reach exactly the same things).
#ifndef FGPM_REACH_TWO_HOP_H_
#define FGPM_REACH_TWO_HOP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/sorted_vector.h"
#include "graph/graph.h"

namespace fgpm {

using CenterId = uint32_t;

class TwoHopLabeling {
 public:
  using CodeSpan = std::span<const CenterId>;

  // in(x): centers that reach x, including x's own component center id.
  CodeSpan InCode(NodeId v) const { return CenterInCode(scc_of_[v]); }
  // out(x): centers x reaches, including x's own component center id.
  CodeSpan OutCode(NodeId v) const { return CenterOutCode(scc_of_[v]); }

  // Code of a center/component directly (all members share it).
  CodeSpan CenterInCode(CenterId c) const { return Slice(in_, c); }
  CodeSpan CenterOutCode(CenterId c) const { return Slice(out_, c); }

  // Reflexive reachability test via code intersection (Example 3.1).
  bool Reaches(NodeId u, NodeId v) const {
    if (u == v) return true;
    const CenterId cu = scc_of_[u], cv = scc_of_[v];
    if (cu == cv) return true;
    return ProbeCodes(cu, cv);
  }

  uint32_t num_centers() const {
    return static_cast<uint32_t>(members_.size());
  }
  size_t num_nodes() const { return scc_of_.size(); }
  CenterId CenterOf(NodeId v) const { return scc_of_[v]; }

  // Total *stored* label entries summed over nodes — the paper's |H|
  // (Table 2). Matches the compact representation of Example 3.1: the
  // node's own entry is removed from each stored column, so the two
  // self entries per node are not counted.
  uint64_t CoverSize() const;

  // Members of a component/center (original node ids, ascending).
  const std::vector<NodeId>& MembersOf(CenterId c) const {
    return members_[c];
  }

  // Resident bytes of the code arenas (pools + offset indexes).
  uint64_t CodeBytes() const;

  // Incremental maintenance for edge insertion — the 2-hop cover update
  // problem the paper cites ([24], Schenkel et al. ICDE'05). `g_after`
  // must already contain the edge (u, v) and be finalized. The labeling
  // is extended by one cluster S(ancestors(u), center(u), descendants(v))
  // which covers exactly the new reachable pairs. Returns
  // FailedPrecondition if the edge merges strongly connected components
  // (center identities would change; rebuild instead).
  // When non-null, `out_changed`/`in_changed` receive the components
  // whose out()/in() codes gained the new center (used by the database
  // to maintain tables and indexes incrementally).
  Status UpdateForEdgeInsert(const Graph& g_after, NodeId u, NodeId v,
                             std::vector<CenterId>* out_changed = nullptr,
                             std::vector<CenterId>* in_changed = nullptr);

  // --- persistence --------------------------------------------------------
  // Flat format: the arena pools and offset indexes are written as-is.
  void SaveMeta(BinaryWriter* w) const;
  Status LoadMeta(BinaryReader* r);

 private:
  friend TwoHopLabeling BuildTwoHopPruned(const Graph& g,
                                          unsigned num_threads);
  friend TwoHopLabeling BuildTwoHopGreedy(const Graph& g);

  // One direction of codes: flat arena + per-center slice index.
  struct DirCodes {
    std::vector<CenterId> pool;  // all codes, center-major
    std::vector<uint64_t> off;   // num_centers + 1 slice bounds
  };

  static CodeSpan Slice(const DirCodes& d, CenterId c) {
    const uint64_t b = d.off[c];
    return {d.pool.data() + b, static_cast<size_t>(d.off[c + 1] - b)};
  }

  // Flattens builder output into the arenas.
  void AdoptCodes(std::vector<std::vector<CenterId>>&& in,
                  std::vector<std::vector<CenterId>>&& out);
  static void Flatten(std::vector<std::vector<CenterId>>&& nested,
                      DirCodes* dir);
  // Rebuilds `dir` with center `c` inserted into the codes of every
  // component in `comps` (ascending); one pass over the arena.
  static void InsertCenter(DirCodes* dir, const std::vector<CenterId>& comps,
                           CenterId c);

  bool ProbeCodes(CenterId cu, CenterId cv) const;

  std::vector<CenterId> scc_of_;              // node -> center id
  DirCodes in_;                               // center -> L_in
  DirCodes out_;                              // center -> L_out
  std::vector<std::vector<NodeId>> members_;  // center -> member nodes
};

// num_threads: 1 = exact sequential construction (default); 0 = one
// worker per hardware thread; N = batch-parallel with N workers.
TwoHopLabeling BuildTwoHopPruned(const Graph& g, unsigned num_threads = 1);
TwoHopLabeling BuildTwoHopGreedy(const Graph& g);

}  // namespace fgpm

#endif  // FGPM_REACH_TWO_HOP_H_
