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
// the pool linearly).
//
// On top of the arena sits a hybrid representation (Roaring-style):
// centers whose codes have >= bitmap_threshold entries additionally get
// a chunked bitmap sidecar — a sorted list of 256-bit chunks, each four
// 64-bit words. Probes pick the cheapest form per pair: hub x hub runs
// a chunk merge of word-ANDs, hub x leaf walks the small array against
// the bitmap, leaf x leaf goes through the SIMD/galloping kernels of
// common/sorted_vector.h. The sidecar is storage bounded by the entry
// count (only non-empty chunks are kept), is rebuilt from the arena on
// load, and never changes probe results — only their cost (the
// differential tests sweep thresholds to prove it).
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
#include "reach/reach_memo.h"

namespace fgpm {

using CenterId = uint32_t;

// Code length at or above which a center gets a bitmap sidecar. The
// priority renumbering makes hub codes dense in small center ids, so a
// few hundred entries already span few chunks; below this, the SIMD
// array kernels win.
inline constexpr uint32_t kDefaultCodeBitmapThreshold = 128;

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
  // The probe picks the cheapest kernel per pair: bitmap word-AND when
  // both codes are sidecar'd hubs, array-vs-bitmap walk when one is,
  // SIMD/galloping array intersection otherwise.
  bool Reaches(NodeId u, NodeId v) const {
    if (u == v) return true;
    const CenterId cu = scc_of_[u], cv = scc_of_[v];
    if (cu == cv) return true;
    return ProbeCodes(cu, cv);
  }

  // Memoized variant: consults/updates the per-query memo, keyed on the
  // component pair so every member pair of the same components shares
  // one cached verdict. `memo` may be null or disabled (plain probe).
  bool Reaches(NodeId u, NodeId v, ReachMemo* memo) const {
    if (u == v) return true;
    const CenterId cu = scc_of_[u], cv = scc_of_[v];
    if (cu == cv) return true;
    if (memo && memo->enabled()) {
      bool hit = false;
      const uint32_t slot = memo->Acquire(ReachMemo::PackKey(cu, cv), &hit);
      if (hit) return memo->value(slot) != 0;
      const bool r = ProbeCodes(cu, cv);
      memo->set_value(slot, r ? 1u : 0u);
      return r;
    }
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
  // self entries per node are not counted. Invariant across layout
  // knobs: the bitmap threshold changes probe kernels, never entries.
  uint64_t CoverSize() const;

  // Members of a component/center (original node ids, ascending).
  const std::vector<NodeId>& MembersOf(CenterId c) const {
    return members_[c];
  }

  // --- hybrid layout knobs / introspection --------------------------------
  // Rebuilds the bitmap sidecars for a new threshold (0 disables them;
  // probes then always run on the arena arrays).
  void SetBitmapThreshold(uint32_t threshold);
  uint32_t bitmap_threshold() const { return bitmap_threshold_; }
  // Number of sidecar'd (bitmap-carrying) codes across both directions.
  uint32_t NumBitmapCodes() const;
  // Resident bytes of the code structures (arena pools + offset index +
  // bitmap sidecars); bench_codes reports this as bytes/entry.
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
  // Flat format: the arena pools and offset indexes are written as-is;
  // the bitmap sidecars are derived data and rebuilt on load.
  void SaveMeta(BinaryWriter* w) const;
  Status LoadMeta(BinaryReader* r);

 private:
  friend TwoHopLabeling BuildTwoHopPruned(const Graph& g,
                                          unsigned num_threads,
                                          uint32_t bitmap_threshold);
  friend TwoHopLabeling BuildTwoHopGreedy(const Graph& g,
                                          uint32_t bitmap_threshold);

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // One direction of codes: flat arena + per-center slice index, plus
  // the chunked bitmap sidecar for codes >= bitmap_threshold_. A chunk
  // covers 256 center ids (four u64 words); only non-empty chunks are
  // stored, as a sorted chunk-id list per sidecar slot.
  struct DirCodes {
    std::vector<CenterId> pool;      // all codes, center-major
    std::vector<uint64_t> off;       // num_centers + 1 slice bounds
    std::vector<uint32_t> slot;      // center -> sidecar slot / kNoSlot
    std::vector<uint32_t> chunk_off;  // slot -> chunk range (slots + 1)
    std::vector<uint32_t> chunks;    // sorted chunk ids (center id >> 8)
    std::vector<uint64_t> words;     // 4 words per chunk
  };

  static CodeSpan Slice(const DirCodes& d, CenterId c) {
    const uint64_t b = d.off[c];
    return {d.pool.data() + b, static_cast<size_t>(d.off[c + 1] - b)};
  }

  // Flattens builder output into the arenas and builds the sidecars.
  void AdoptCodes(std::vector<std::vector<CenterId>>&& in,
                  std::vector<std::vector<CenterId>>&& out,
                  uint32_t bitmap_threshold);
  static void Flatten(std::vector<std::vector<CenterId>>&& nested,
                      DirCodes* dir);
  static void BuildSidecar(DirCodes* dir, uint32_t threshold);
  // Rebuilds `dir` with center `c` inserted into the codes of every
  // component in `comps` (ascending); one pass over the arena.
  static void InsertCenter(DirCodes* dir, const std::vector<CenterId>& comps,
                           CenterId c);

  bool ProbeCodes(CenterId cu, CenterId cv) const;
  static bool BitmapBitmapIntersects(const DirCodes& a, uint32_t sa,
                                     const DirCodes& b, uint32_t sb);
  static bool ArrayBitmapIntersects(CodeSpan arr, const DirCodes& b,
                                    uint32_t sb);

  std::vector<CenterId> scc_of_;              // node -> center id
  DirCodes in_;                               // center -> L_in
  DirCodes out_;                              // center -> L_out
  std::vector<std::vector<NodeId>> members_;  // center -> member nodes
  uint32_t bitmap_threshold_ = kDefaultCodeBitmapThreshold;
};

// num_threads: 1 = exact sequential construction (default); 0 = one
// worker per hardware thread; N = batch-parallel with N workers.
// bitmap_threshold: see kDefaultCodeBitmapThreshold; 0 disables the
// bitmap sidecars.
TwoHopLabeling BuildTwoHopPruned(
    const Graph& g, unsigned num_threads = 1,
    uint32_t bitmap_threshold = kDefaultCodeBitmapThreshold);
TwoHopLabeling BuildTwoHopGreedy(
    const Graph& g, uint32_t bitmap_threshold = kDefaultCodeBitmapThreshold);

}  // namespace fgpm

#endif  // FGPM_REACH_TWO_HOP_H_
