// Simulated disk: an in-memory page store that counts every read and
// write. The paper measures I/O cost on a Shore-style storage manager;
// our counters play that role (DESIGN.md "Substitutions").
//
// Thread safety: Read/WritePage may be called concurrently (buffer-pool
// shards fault pages in parallel); they take a shared lock so the page
// array cannot grow under them, and the I/O counters are atomics.
// AllocatePage takes the exclusive lock. Concurrent writes to the
// *same* page are not synchronized — a page is owned by exactly one
// buffer-pool shard, which serializes its evictions.
#ifndef FGPM_STORAGE_DISK_MANAGER_H_
#define FGPM_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace fgpm {

// Counter snapshot (plain integers; the live counters are atomics).
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
  uint64_t checksum_failures = 0;
};

class DiskManager {
 public:
  DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  PageId AllocatePage();

  Status ReadPage(PageId id, Page* out);
  Status WritePage(PageId id, const Page& page);

  size_t NumPages() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pages_.size();
  }
  DiskStats stats() const {
    DiskStats s;
    s.page_reads = page_reads_.load(std::memory_order_relaxed);
    s.page_writes = page_writes_.load(std::memory_order_relaxed);
    s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    page_reads_.store(0, std::memory_order_relaxed);
    page_writes_.store(0, std::memory_order_relaxed);
    pages_allocated_.store(0, std::memory_order_relaxed);
    checksum_failures_.store(0, std::memory_order_relaxed);
  }

  // Persists every page to `os` / restores from `is` (not counted in the
  // I/O stats; used by GraphDatabase::Save/Open). Pages carry an
  // FNV-1a checksum in the archive; corruption is detected on load.
  Status SavePages(std::ostream& os) const;
  Status LoadPages(std::istream& is);

  // Direct page corruption for failure-injection tests: XORs a byte of
  // the stored page (bypasses the write path and its accounting).
  Status CorruptPageForTesting(PageId id, size_t offset);

 private:
  // Shared: page lookups (the pointer array must not grow mid-read).
  // Exclusive: allocation and (de)serialization.
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint64_t> checksum_failures_{0};
};

}  // namespace fgpm

#endif  // FGPM_STORAGE_DISK_MANAGER_H_
