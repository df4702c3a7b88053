// Per-query reachability memo: a small lossy open-addressed cache of
// (center(u), center(v)) -> verdict probes. Pattern evaluation re-asks
// the same reachability questions many times — the select operator
// closes every non-spanning-tree pattern edge over the same node pairs
// across rows, and the HPSJ filter re-probes the same node against the
// same W(X,Y) center list whenever a node id recurs in the temporal
// table — so memoizing the verdict (or the materialized Xi set, see
// operators.cc) collapses duplicate work into one hash probe.
//
// Design: power-of-two slot array, packed 64-bit key, bounded linear
// probe window (8 slots), lossy overwrite of the home slot when the
// window is full. Clearing is O(1) via an epoch tag per slot, so the
// executor can reset the memo at every query start without touching the
// slot array. Instances are deliberately single-threaded: the executor
// owns one memo per worker slot (striping by worker), which keeps the
// hot path free of atomics and the whole scheme trivially race-free —
// the differential tests hammer one-memo-per-thread over a shared
// labeling under TSan/ASan.
#ifndef FGPM_REACH_REACH_MEMO_H_
#define FGPM_REACH_REACH_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace fgpm {

// Entries in each per-worker memo the executor consults from the HPSJ
// filter and select operators (rounded up to a power of two).
inline constexpr size_t kReachMemoEntries = 65536;

class ReachMemo {
 public:
  ReachMemo() = default;
  explicit ReachMemo(size_t entries) { Reset(entries); }

  // Sizes the table to the next power of two >= entries (minimum 64);
  // 0 disables the memo (enabled() false, Acquire must not be called).
  void Reset(size_t entries) {
    slots_.clear();
    epoch_ = 1;
    probes_ = hits_ = 0;
    if (entries == 0) return;
    size_t cap = 64;
    while (cap < entries) cap <<= 1;
    slots_.assign(cap, Slot{});
  }

  bool enabled() const { return !slots_.empty(); }
  size_t capacity() const { return slots_.size(); }

  // Drops all cached entries (O(1)) and zeroes the hit statistics.
  void Clear() {
    if (++epoch_ == 0) {  // epoch wrap: tags from 4B queries ago linger
      for (Slot& s : slots_) s.gen = 0;
      epoch_ = 1;
    }
    probes_ = hits_ = 0;
  }

  // Probes for `key`. On a hit (*hit = true) the returned slot holds the
  // cached value(); on a miss the slot is (re)claimed for `key` with its
  // value reset to 0, ready for set_value. Requires enabled().
  uint32_t Acquire(uint64_t key, bool* hit) {
    *hit = false;
    ++probes_;
    const size_t mask = slots_.size() - 1;
    size_t i = HashMix(key) & mask;
    const size_t home = i;
    for (int p = 0; p < kProbeWindow; ++p, i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != epoch_) {  // first empty slot: key is absent
        s.gen = epoch_;
        s.key = key;
        s.value = 0;
        return static_cast<uint32_t>(i);
      }
      if (s.key == key) {
        ++hits_;
        *hit = true;
        return static_cast<uint32_t>(i);
      }
    }
    // Window full of other keys: lossily overwrite the home slot.
    Slot& s = slots_[home];
    s.gen = epoch_;
    s.key = key;
    s.value = 0;
    return static_cast<uint32_t>(home);
  }

  uint32_t value(uint32_t slot) const { return slots_[slot].value; }
  void set_value(uint32_t slot, uint32_t v) { slots_[slot].value = v; }

  uint64_t probes() const { return probes_; }
  uint64_t hits() const { return hits_; }

  static uint64_t PackKey(uint32_t a, uint32_t b) { return PackPair(a, b); }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = 0;
    uint32_t gen = 0;  // slot live iff gen == epoch_
  };
  static constexpr int kProbeWindow = 8;

  std::vector<Slot> slots_;
  uint32_t epoch_ = 1;
  uint64_t probes_ = 0;
  uint64_t hits_ = 0;
};

}  // namespace fgpm

#endif  // FGPM_REACH_REACH_MEMO_H_
