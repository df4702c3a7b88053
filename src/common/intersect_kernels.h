// Vectorized sorted-set intersection kernels for 32-bit ids.
//
// Graph codes, W-table center lists and R-join cluster lists are all
// strictly increasing uint32 sequences, and the balanced (similar-size)
// intersection is the innermost loop of every reachability probe. The
// generic merge in sorted_vector.h routes balanced uint32 inputs here;
// this TU provides three implementations behind one runtime dispatch:
//
//  * kScalar — unrolled branch-free two-pointer: 2x2 blocks of elements
//    are cross-compared with 64-bit word "has-zero-lane" tests (two
//    32-bit XOR lanes packed per word), and both cursors advance by
//    comparison masks, so the loop carries no data-dependent branch.
//  * kSse — the classic 4x4 block kernel: `_mm_cmpeq_epi32` against all
//    four `_mm_shuffle_epi32` rotations of the other block (SSE2, always
//    available on x86-64). The materializing variant compacts matched
//    lanes with a 16-entry `_mm_shuffle_epi8` table (SSSE3).
//  * kAvx2 — 8x8 block variant via `_mm256_permutevar8x32_epi32`
//    rotations, selected when `__builtin_cpu_supports("avx2")`.
//
// All kernels require *strictly* increasing inputs (sets, no
// duplicates) — which every call site guarantees — and produce
// identical results (tests/common_test.cc cross-checks them
// exhaustively on adversarial shapes).
#ifndef FGPM_COMMON_INTERSECT_KERNELS_H_
#define FGPM_COMMON_INTERSECT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fgpm {

enum class IntersectKernel : int {
  kAuto = 0,    // runtime dispatch: AVX2 > SSE > scalar
  kScalar = 2,  // unrolled branch-free two-pointer, 64-bit word compares
  kSse = 3,
  kAvx2 = 4,
};

// Forces a specific kernel (tests and benches); kAuto restores CPU
// dispatch. Returns false (and keeps the current choice) if the CPU
// lacks the requested ISA. Not thread-safe against in-flight probes —
// call between workloads.
bool SetIntersectKernel(IntersectKernel k);
IntersectKernel ActiveIntersectKernel();  // what probes currently use
const char* IntersectKernelName(IntersectKernel k);

// True if the two strictly-increasing sequences share an element.
bool IntersectsU32(const uint32_t* a, size_t na, const uint32_t* b,
                   size_t nb);

// Materializing intersection into `out`, which must have room for
// min(na, nb) + kIntersectPad elements (SIMD compaction stores whole
// blocks past the logical end). Returns the number of matches written;
// output is strictly increasing.
inline constexpr size_t kIntersectPad = 8;
size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out);

// --- k-way intersection (WCOJ vertex binding) ----------------------------
//
// One input of a k-way intersection: a strictly increasing uint32 array,
// optionally carrying a chunked-bitmap sidecar in the hub-code layout of
// reach/two_hop.h — a sorted list of the non-empty 256-value chunks
// (chunk id = value >> 8), four uint64 words per chunk. When present, the
// sidecar enables O(1) membership probes instead of merging the array.
struct SortedSetView {
  const uint32_t* data = nullptr;
  size_t size = 0;
  const uint32_t* chunk_ids = nullptr;   // sorted, one per non-empty chunk
  const uint64_t* chunk_words = nullptr;  // 4 words per chunk
  size_t num_chunks = 0;                  // 0 => no sidecar
  bool has_bitmap() const { return num_chunks != 0; }
};

// Builds the chunked-bitmap sidecar for a strictly increasing array.
// Appends to the output vectors (callers pool many sidecars in two flat
// arenas); the new sidecar is the trailing chunk_ids->size() - old_size
// chunks.
void BuildChunkedBitmap(const uint32_t* data, size_t n,
                        std::vector<uint32_t>* chunk_ids,
                        std::vector<uint64_t>* words);

// Membership probe against a view's sidecar (requires has_bitmap()).
bool ChunkedBitmapContains(const SortedSetView& s, uint32_t v);

// Work counters for IntersectKWayU32: `probes` counts candidate elements
// tested against a non-smallest set (summed over the k-1 pruning
// passes), `hits` the elements that survive all sets.
struct KWayStats {
  uint64_t probes = 0;
  uint64_t hits = 0;
};

// Intersection of k >= 1 strictly increasing uint32 sets, driven by the
// smallest set: survivors of the sets seen so far are pruned against the
// remaining sets in ascending size order. Per set the cheapest kernel is
// chosen adaptively — bitmap membership probes when the set carries a
// sidecar and dwarfs the survivor list, galloping when merely lopsided,
// the SIMD block kernels when balanced. Returns the number of survivors
// written to `out`; output is strictly increasing. `out` and `tmp` must
// each have room for min-size + kIntersectPad elements (the SIMD stage
// ping-pongs between them). Empty inputs short-circuit to 0.
size_t IntersectKWayU32(const SortedSetView* sets, size_t k, uint32_t* out,
                        uint32_t* tmp, KWayStats* stats = nullptr);

}  // namespace fgpm

#endif  // FGPM_COMMON_INTERSECT_KERNELS_H_
