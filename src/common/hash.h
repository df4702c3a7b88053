// Hashing helpers for composite keys (node-id tuples, label pairs).
#ifndef FGPM_COMMON_HASH_H_
#define FGPM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace fgpm {

inline uint64_t HashMix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (HashMix(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

// Hash of a tuple of 32-bit ids (used to deduplicate result rows).
struct RowHash {
  size_t operator()(std::span<const uint32_t> row) const {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (uint32_t v : row) h = HashCombine(h, v);
    return static_cast<size_t>(h);
  }
};

// Hash for a pair of 32-bit ids packed into one key.
inline uint64_t PackPair(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}
inline uint32_t PairFirst(uint64_t k) { return static_cast<uint32_t>(k >> 32); }
inline uint32_t PairSecond(uint64_t k) { return static_cast<uint32_t>(k); }

}  // namespace fgpm

#endif  // FGPM_COMMON_HASH_H_
