#include "common/intersect_kernels.h"

#include <atomic>

#include "common/sorted_vector.h"

#if defined(__x86_64__) || defined(_M_X64)
#define FGPM_X86 1
#include <immintrin.h>
#endif

namespace fgpm {
namespace {

// --- shared scalar pieces ---------------------------------------------------

// Plain branch-light merge: the tail loop of every blocked kernel once
// fewer than a full block remains on either side, and the materializing
// kernel wherever no SIMD lane compaction is available.
bool SeedIntersects(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb) {
  size_t ia = 0, ib = 0;
  while (ia < na && ib < nb) {
    const uint32_t va = a[ia], vb = b[ib];
    if (va == vb) return true;
    ia += (va < vb);
    ib += (vb < va);
  }
  return false;
}

size_t SeedIntersect(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out) {
  size_t ia = 0, ib = 0, n = 0;
  while (ia < na && ib < nb) {
    const uint32_t va = a[ia], vb = b[ib];
    if (va == vb) out[n++] = va;
    ia += (va <= vb);
    ib += (vb <= va);
  }
  return n;
}

// True if either 32-bit lane of `w` is zero (Hacker's Delight 6-2,
// widened from bytes to 32-bit fields).
inline bool HasZeroLane(uint64_t w) {
  return ((w - 0x0000000100000001ULL) & ~w & 0x8000000080000000ULL) != 0;
}

// Unrolled branch-free two-pointer: cross-compare 2x2 element blocks.
// The four XOR differences are packed two-per-64-bit-word and tested
// with one has-zero-lane check each; cursors advance by comparison
// masks. Inputs must be strictly increasing: when a1 < b1 the skipped
// pair (a0, a1) cannot match any later b (all > b1 > a1), and a1 == b1
// would already have returned true, so exactly one side advances.
bool ScalarIntersects(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb) {
  size_t ia = 0, ib = 0;
  while (ia + 2 <= na && ib + 2 <= nb) {
    const uint32_t a0 = a[ia], a1 = a[ia + 1];
    const uint32_t b0 = b[ib], b1 = b[ib + 1];
    const uint64_t d0 =
        (static_cast<uint64_t>(a0 ^ b0) << 32) | (a0 ^ b1);
    const uint64_t d1 =
        (static_cast<uint64_t>(a1 ^ b0) << 32) | (a1 ^ b1);
    if (HasZeroLane(d0) || HasZeroLane(d1)) return true;
    ia += 2 * (a1 < b1);
    ib += 2 * (b1 < a1);
  }
  return SeedIntersects(a + ia, na - ia, b + ib, nb - ib);
}

#ifdef FGPM_X86

// --- SSE 4x4 kernels --------------------------------------------------------

inline __m128i CrossCompare4(__m128i va, __m128i vb) {
  __m128i m = _mm_cmpeq_epi32(va, vb);
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
  m = _mm_or_si128(
      m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
  return m;
}

bool SseIntersects(const uint32_t* a, size_t na, const uint32_t* b,
                   size_t nb) {
  size_t ia = 0, ib = 0;
  const size_t na4 = na & ~size_t{3}, nb4 = nb & ~size_t{3};
  if (ia < na4 && ib < nb4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
    while (true) {
      if (_mm_movemask_epi8(CrossCompare4(va, vb))) return true;
      const uint32_t amax = a[ia + 3], bmax = b[ib + 3];
      // Skipping a block is safe: its elements were compared against the
      // whole current opposite block, and later opposite elements are
      // strictly larger than bmax >= this block's max.
      if (amax <= bmax) {
        ia += 4;
        if (ia == na4) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
      }
      if (bmax <= amax) {
        ib += 4;
        if (ib == nb4) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
      }
    }
  }
  return SeedIntersects(a + ia, na - ia, b + ib, nb - ib);
}

// Lane-compaction table for the materializing kernel: entry m moves the
// set lanes of a 4-bit match mask to the front (byte shuffle indices).
struct ShuffleTable {
  alignas(16) uint8_t rows[16][16];
  ShuffleTable() {
    for (int m = 0; m < 16; ++m) {
      int k = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if (!(m & (1 << lane))) continue;
        for (int byte = 0; byte < 4; ++byte) {
          rows[m][4 * k + byte] = static_cast<uint8_t>(4 * lane + byte);
        }
        ++k;
      }
      for (int j = 4 * k; j < 16; ++j) rows[m][j] = 0x80;  // zero fill
    }
  }
};
const ShuffleTable kShuffle;

__attribute__((target("ssse3"))) size_t SseIntersect(const uint32_t* a,
                                                     size_t na,
                                                     const uint32_t* b,
                                                     size_t nb,
                                                     uint32_t* out) {
  size_t ia = 0, ib = 0, n = 0;
  const size_t na4 = na & ~size_t{3}, nb4 = nb & ~size_t{3};
  if (ia < na4 && ib < nb4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
    while (true) {
      const __m128i eq = CrossCompare4(va, vb);
      // One mask bit per a-lane that matched some b in the block. Each a
      // value matches at most once across all b blocks (strict sets), so
      // emitting per block pair never duplicates and stays sorted.
      const int mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
      if (mask) {
        const __m128i sh = _mm_load_si128(
            reinterpret_cast<const __m128i*>(kShuffle.rows[mask]));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n),
                         _mm_shuffle_epi8(va, sh));
        n += static_cast<size_t>(__builtin_popcount(
            static_cast<unsigned>(mask)));
      }
      const uint32_t amax = a[ia + 3], bmax = b[ib + 3];
      if (amax <= bmax) {
        ia += 4;
        if (ia == na4) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + ia));
      }
      if (bmax <= amax) {
        ib += 4;
        if (ib == nb4) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + ib));
      }
    }
  }
  return n + SeedIntersect(a + ia, na - ia, b + ib, nb - ib, out + n);
}

// --- AVX2 8x8 boolean kernel ------------------------------------------------

__attribute__((target("avx2"))) bool Avx2Intersects(const uint32_t* a,
                                                    size_t na,
                                                    const uint32_t* b,
                                                    size_t nb) {
  size_t ia = 0, ib = 0;
  const size_t na8 = na & ~size_t{7}, nb8 = nb & ~size_t{7};
  if (ia < na8 && ib < nb8) {
    const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ia));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + ib));
    while (true) {
      __m256i rot = vb;
      __m256i m = _mm256_cmpeq_epi32(va, rot);
      for (int k = 1; k < 8; ++k) {
        rot = _mm256_permutevar8x32_epi32(rot, r1);
        m = _mm256_or_si256(m, _mm256_cmpeq_epi32(va, rot));
      }
      if (!_mm256_testz_si256(m, m)) return true;
      const uint32_t amax = a[ia + 7], bmax = b[ib + 7];
      if (amax <= bmax) {
        ia += 8;
        if (ia == na8) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ia));
      }
      if (bmax <= amax) {
        ib += 8;
        if (ib == nb8) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + ib));
      }
    }
  }
  return SseIntersects(a + ia, na - ia, b + ib, nb - ib);
}

#endif  // FGPM_X86

// --- dispatch ---------------------------------------------------------------

struct Vtbl {
  bool (*intersects)(const uint32_t*, size_t, const uint32_t*, size_t);
  size_t (*intersect)(const uint32_t*, size_t, const uint32_t*, size_t,
                      uint32_t*);
  IntersectKernel kind;
};

constexpr Vtbl kScalarVtbl{ScalarIntersects, SeedIntersect,
                           IntersectKernel::kScalar};
#ifdef FGPM_X86
// The boolean 4x4 kernel is pure SSE2 (x86-64 baseline); the lane
// compaction of the materializing variant needs SSSE3's byte shuffle,
// so pre-SSSE3 CPUs pair the SSE2 probe with the scalar emitter.
constexpr Vtbl kSseVtbl{SseIntersects, SseIntersect, IntersectKernel::kSse};
constexpr Vtbl kSse2Vtbl{SseIntersects, SeedIntersect, IntersectKernel::kSse};
// AVX2 accelerates the boolean probe; materializing stays on the SSE
// compaction kernel (emission is store-bound, wider blocks do not pay).
constexpr Vtbl kAvx2Vtbl{Avx2Intersects, SseIntersect,
                         IntersectKernel::kAvx2};
#endif

const Vtbl* Detect() {
#ifdef FGPM_X86
  if (__builtin_cpu_supports("avx2")) return &kAvx2Vtbl;
  if (__builtin_cpu_supports("ssse3")) return &kSseVtbl;
  return &kSse2Vtbl;
#else
  return &kScalarVtbl;
#endif
}

const Vtbl* Lookup(IntersectKernel k) {
  switch (k) {
    case IntersectKernel::kScalar:
      return &kScalarVtbl;
#ifdef FGPM_X86
    case IntersectKernel::kSse:
      return __builtin_cpu_supports("ssse3") ? &kSseVtbl : &kSse2Vtbl;
    case IntersectKernel::kAvx2:
      return __builtin_cpu_supports("avx2") ? &kAvx2Vtbl : nullptr;
#endif
    default:
      return nullptr;
  }
}

std::atomic<const Vtbl*> g_forced{nullptr};

inline const Vtbl* Active() {
  const Vtbl* forced = g_forced.load(std::memory_order_relaxed);
  if (forced) return forced;
  static const Vtbl* const kAuto = Detect();
  return kAuto;
}

}  // namespace

bool SetIntersectKernel(IntersectKernel k) {
  if (k == IntersectKernel::kAuto) {
    g_forced.store(nullptr, std::memory_order_relaxed);
    return true;
  }
  const Vtbl* v = Lookup(k);
  if (!v) return false;
  g_forced.store(v, std::memory_order_relaxed);
  return true;
}

IntersectKernel ActiveIntersectKernel() { return Active()->kind; }

const char* IntersectKernelName(IntersectKernel k) {
  switch (k) {
    case IntersectKernel::kAuto:
      return "auto";
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kSse:
      return "sse";
    case IntersectKernel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool IntersectsU32(const uint32_t* a, size_t na, const uint32_t* b,
                   size_t nb) {
  return Active()->intersects(a, na, b, nb);
}

size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out) {
  return Active()->intersect(a, na, b, nb, out);
}

// --- k-way intersection -----------------------------------------------------

void BuildChunkedBitmap(const uint32_t* data, size_t n,
                        std::vector<uint32_t>* chunk_ids,
                        std::vector<uint64_t>* words) {
  uint32_t cur = 0;
  bool open = false;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t v = data[i];
    const uint32_t chunk = v >> 8;
    if (!open || chunk != cur) {
      chunk_ids->push_back(chunk);
      words->insert(words->end(), 4, 0);
      cur = chunk;
      open = true;
    }
    words->at(words->size() - 4 + ((v >> 6) & 3)) |= uint64_t{1}
                                                     << (v & 63);
  }
}

bool ChunkedBitmapContains(const SortedSetView& s, uint32_t v) {
  const uint32_t chunk = v >> 8;
  // Branchless-ish binary search over the sorted chunk-id list.
  size_t lo = 0, hi = s.num_chunks;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (s.chunk_ids[mid] < chunk) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == s.num_chunks || s.chunk_ids[lo] != chunk) return false;
  const uint64_t w = s.chunk_words[lo * 4 + ((v >> 6) & 3)];
  return (w >> (v & 63)) & 1;
}

namespace {

// One pruning pass: keeps the survivors of `cur` that are also in `s`.
// Membership and gallop modes compact in place (writes trail reads);
// the balanced SIMD kernel stores whole blocks past the write cursor, so
// it must target a buffer distinct from `cur`.
size_t PruneAgainst(const uint32_t* cur, size_t n, const SortedSetView& s,
                    uint32_t* dst) {
  // Sidecar membership probes win once the set dwarfs the survivor
  // list — each probe is a chunk lookup instead of a merge step.
  if (s.has_bitmap() && s.size >= 2 * n) {
    size_t w = 0;
    for (size_t j = 0; j < n; ++j) {
      if (ChunkedBitmapContains(s, cur[j])) dst[w++] = cur[j];
    }
    return w;
  }
  if (s.size > kGallopRatio * (n + 1)) {
    size_t w = 0, pos = 0;
    for (size_t j = 0; j < n; ++j) {
      pos = gallop_internal::GallopLowerBound(s.data, pos, s.size, cur[j]);
      if (pos == s.size) break;
      if (s.data[pos] == cur[j]) dst[w++] = cur[j];
    }
    return w;
  }
  return IntersectU32(cur, n, s.data, s.size, dst);
}

}  // namespace

size_t IntersectKWayU32(const SortedSetView* sets, size_t k, uint32_t* out,
                        uint32_t* tmp, KWayStats* stats) {
  if (k == 0) return 0;
  // Order by ascending size so the smallest set drives and each pass
  // shrinks the survivor list as fast as possible.
  size_t order[64];
  size_t ko = 0;
  for (size_t i = 0; i < k && ko < 64; ++i) order[ko++] = i;
  for (size_t i = 1; i < ko; ++i) {
    const size_t oi = order[i];
    size_t j = i;
    while (j > 0 && sets[order[j - 1]].size > sets[oi].size) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = oi;
  }
  const SortedSetView& first = sets[order[0]];
  if (first.size == 0) return 0;  // empty input: nothing survives any set
  const uint32_t* cur = first.data;
  size_t n = first.size;
  for (size_t i = 1; i < ko && n > 0; ++i) {
    const SortedSetView& s = sets[order[i]];
    if (stats) stats->probes += n;
    // The SIMD kernel cannot compact in place; ping-pong between the
    // caller's two buffers (the borrowed input set is never a target).
    uint32_t* dst = (cur == out) ? tmp : out;
    n = PruneAgainst(cur, n, s, dst);
    cur = dst;
  }
  if (cur != out) {
    for (size_t j = 0; j < n; ++j) out[j] = cur[j];
  }
  if (stats) stats->hits += n;
  return n;
}

}  // namespace fgpm
