// Sharded LRU buffer pool over the simulated disk. The paper configures
// a 1 MiB buffer for its experiments; that is our default (128 frames x
// 8 KiB). Pages are accessed through pin/unpin RAII guards; unpinned
// frames are evicted in LRU order, writing back dirty pages.
//
// Thread safety: the pool is split into N shards (pages hash to shards
// by id); each shard owns a contiguous frame range, its own page table,
// free list and latch, so concurrent readers only contend when their
// pages land on the same shard. Pin counts are atomics and a frame's
// LRU recency is an atomic timestamp, so Unpin never takes a latch at
// all. A pinned frame is never evicted, so page bytes can be read
// outside any lock for the guard's lifetime (the release/acquire pair
// on the pin count orders the last read before a later eviction).
// Writers (MutablePage) are not synchronized against readers of the
// same page — the execution engine is read-only, and all build/update
// paths are single-threaded.
//
// A miss does not hold the shard latch across the disk read: the frame
// is installed pinned with io_busy set, the latch drops, and the read
// completes outside it, so misses overlap with each other and with hits.
// A 1-shard pool (the default for the plain byte-size
// constructor, and what every pre-sharding test constructs) behaves
// exactly like the old single-mutex pool: one latch, one LRU domain,
// identical hit/miss/eviction sequences. Latch order: shard latch ->
// disk lock; the disk's allocation lock is never taken while a shard
// latch is held.
#ifndef FGPM_STORAGE_BUFFER_POOL_H_
#define FGPM_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace fgpm {

// Aggregate counter snapshot, summed over shards.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

struct BufferPoolOptions {
  // The paper's experiments use a 1 MiB buffer.
  size_t pool_bytes = 1 << 20;
  // Independently latched shards. 0 = auto: the next power of two >=
  // hardware threads, capped at 64. Any value is rounded up to a power
  // of two, then halved until every shard owns at least 4 frames (so a
  // tiny pool never degenerates into 1-frame shards).
  size_t num_shards = 1;
};

class BufferPool;

// Move-only RAII pin on a buffered page.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), id_(id) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }

  const Page& page() const;
  // Mutable access marks the frame dirty.
  Page& MutablePage();

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPage;
};

class BufferPool {
 public:
  // Legacy constructor: a single-shard pool, semantically identical to
  // the pre-sharding single-mutex pool.
  explicit BufferPool(DiskManager* disk, size_t pool_bytes = 1 << 20)
      : BufferPool(disk, BufferPoolOptions{pool_bytes, 1}) {}
  BufferPool(DiskManager* disk, const BufferPoolOptions& options);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  // Pins page `id`, reading it from disk on a miss.
  Result<PageGuard> Fetch(PageId id);

  // Allocates a fresh zeroed page and pins it.
  Result<PageGuard> New();

  // Writes back all dirty frames.
  Status FlushAll();

  size_t num_frames() const { return num_frames_; }
  size_t num_shards() const { return shards_.size(); }
  // Counter snapshot summed over shards; safe to call concurrently with
  // fetches (each counter is an atomic; the sum is a moment-in-time
  // aggregate, exact once the pool is quiescent).
  BufferPoolStats stats() const;
  DiskManager* disk() { return disk_; }
  void ResetStats();

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId id = kInvalidPage;
    uint32_t shard = 0;  // owning shard; fixed at construction
    std::atomic<uint32_t> pin_count{0};
    std::atomic<bool> dirty{false};
    // True while a miss is reading this frame's page from disk outside
    // the shard latch. The frame is already in the page table (pinned,
    // so it cannot be evicted); a concurrent Fetch of the same page
    // spins on this flag before returning its guard. The release store
    // after the read publishes the page bytes to those waiters.
    std::atomic<bool> io_busy{false};
    // Shard clock value at the last unpin. The frame with the smallest
    // stamp among unpinned residents is the LRU victim — equivalent to
    // the old intrusive list ("LRU position = time of last unpin").
    std::atomic<uint64_t> last_used{0};
  };

  struct Shard {
    mutable std::mutex mu;  // guards page_table / free_frames / residency
    std::unordered_map<PageId, size_t> page_table;  // -> global frame idx
    std::vector<size_t> free_frames;
    size_t begin = 0, end = 0;  // owned range in frames_
    std::atomic<uint64_t> clock{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  size_t ShardOf(PageId id) const { return id & shard_mask_; }

  // Finds a frame for a new resident page in `sh`, evicting the
  // shard-LRU unpinned frame if needed. Requires sh.mu held.
  Result<size_t> GrabFrame(Shard& sh);
  // Common tail of Fetch-miss and New: installs `id` into frame `f`.
  void InstallFrame(Shard& sh, size_t f, PageId id, bool dirty);
  void Unpin(size_t frame);
  void MarkDirty(size_t frame) {
    frames_[frame].dirty.store(true, std::memory_order_relaxed);
  }

  DiskManager* disk_;
  std::unique_ptr<Frame[]> frames_;
  size_t num_frames_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  // Process-wide registry counters (summed over every pool instance);
  // resolved once at construction, incremented alongside the per-shard
  // atomics. Increment is a no-op when obs is compiled out or disabled.
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace fgpm

#endif  // FGPM_STORAGE_BUFFER_POOL_H_
