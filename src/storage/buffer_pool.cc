#include "storage/buffer_pool.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace fgpm {
namespace {

constexpr size_t kNoVictim = static_cast<size_t>(-1);

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

size_t ResolveShards(size_t requested, size_t num_frames) {
  size_t s = requested;
  if (s == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    s = NextPow2(std::max(1u, hw));
    s = std::min<size_t>(s, 64);
  }
  s = NextPow2(s);
  while (s > 1 && num_frames / s < 4) s >>= 1;
  return s;
}

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }
  return *this;
}

const Page& PageGuard::page() const {
  FGPM_DCHECK(pool_ != nullptr);
  return pool_->frames_[frame_].page;
}

Page& PageGuard::MutablePage() {
  FGPM_DCHECK(pool_ != nullptr);
  pool_->MarkDirty(frame_);
  return pool_->frames_[frame_].page;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, const BufferPoolOptions& options)
    : disk_(disk) {
  auto& reg = obs::MetricsRegistry::Default();
  m_hits_ = reg.GetCounter("fgpm_bufferpool_hits_total",
                           "Buffer pool fetches served from a resident frame");
  m_misses_ = reg.GetCounter("fgpm_bufferpool_misses_total",
                             "Buffer pool fetches that read from disk");
  m_evictions_ = reg.GetCounter("fgpm_bufferpool_evictions_total",
                                "Frames evicted to make room");
  num_frames_ = std::max<size_t>(4, options.pool_bytes / kPageSize);
  frames_ = std::make_unique<Frame[]>(num_frames_);
  size_t nshards = ResolveShards(options.num_shards, num_frames_);
  shard_mask_ = nshards - 1;
  shards_.reserve(nshards);
  size_t base = num_frames_ / nshards, rem = num_frames_ % nshards;
  size_t next = 0;
  for (size_t s = 0; s < nshards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->begin = next;
    next += base + (s < rem ? 1 : 0);
    sh->end = next;
    sh->free_frames.reserve(sh->end - sh->begin);
    for (size_t f = sh->end; f > sh->begin; --f) {
      sh->free_frames.push_back(f - 1);
      frames_[f - 1].shard = static_cast<uint32_t>(s);
    }
    shards_.push_back(std::move(sh));
  }
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  (void)s;  // Destructor cannot propagate; simulated disk cannot fail here.
}

Result<size_t> BufferPool::GrabFrame(Shard& sh) {
  if (!sh.free_frames.empty()) {
    size_t f = sh.free_frames.back();
    sh.free_frames.pop_back();
    return f;
  }
  // Free list empty: every frame in the shard is resident. Pick the
  // unpinned frame with the oldest unpin stamp. New pins need sh.mu
  // (held here), so a frame observed unpinned stays evictable; a frame
  // racing to *become* unpinned is simply not considered this round.
  size_t victim = kNoVictim;
  uint64_t oldest = ~0ull;
  for (size_t f = sh.begin; f < sh.end; ++f) {
    Frame& fr = frames_[f];
    // Acquire pairs with Unpin's release decrement: seeing 0 here means
    // the last reader's page accesses happened-before this eviction.
    if (fr.pin_count.load(std::memory_order_acquire) != 0) continue;
    uint64_t lu = fr.last_used.load(std::memory_order_relaxed);
    if (lu < oldest) {
      oldest = lu;
      victim = f;
    }
  }
  if (victim == kNoVictim) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  Frame& fr = frames_[victim];
  sh.evictions.fetch_add(1, std::memory_order_relaxed);
  m_evictions_->Increment();
  if (fr.dirty.load(std::memory_order_relaxed)) {
    FGPM_RETURN_IF_ERROR(disk_->WritePage(fr.id, fr.page));
    fr.dirty.store(false, std::memory_order_relaxed);
  }
  sh.page_table.erase(fr.id);
  return victim;
}

void BufferPool::InstallFrame(Shard& sh, size_t f, PageId id, bool dirty) {
  Frame& fr = frames_[f];
  fr.id = id;
  fr.pin_count.store(1, std::memory_order_relaxed);
  fr.dirty.store(dirty, std::memory_order_relaxed);
  sh.page_table[id] = f;
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  Shard& sh = *shards_[ShardOf(id)];
  std::unique_lock<std::mutex> lock(sh.mu);
  auto it = sh.page_table.find(id);
  if (it != sh.page_table.end()) {
    sh.hits.fetch_add(1, std::memory_order_relaxed);
    m_hits_->Increment();
    size_t f = it->second;
    Frame& fr = frames_[f];
    fr.pin_count.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    // Another worker may still be reading this page from disk. The
    // acquire load pairs with the loader's release store below and
    // orders the page bytes before our reader sees the guard. The pin
    // taken above keeps the frame from being evicted meanwhile.
    while (fr.io_busy.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return PageGuard(this, f, id);
  }
  sh.misses.fetch_add(1, std::memory_order_relaxed);
  m_misses_->Increment();
  if (id >= disk_->NumPages()) {
    return Status::OutOfRange("Fetch: page id out of range");
  }
  FGPM_ASSIGN_OR_RETURN(size_t f, GrabFrame(sh));
  Frame& fr = frames_[f];
  InstallFrame(sh, f, id, /*dirty=*/false);
  // Publish the frame as loading, then read outside the latch so misses
  // overlap with each other and with hits. The frame is pinned, so it
  // cannot be evicted; same-page fetchers wait on io_busy above.
  fr.io_busy.store(true, std::memory_order_relaxed);
  lock.unlock();
  Status s = disk_->ReadPage(id, &fr.page);
  FGPM_CHECK(s.ok());  // id validated above; pages are never deleted
  fr.io_busy.store(false, std::memory_order_release);
  return PageGuard(this, f, id);
}

Result<PageGuard> BufferPool::New() {
  PageId id = disk_->AllocatePage();
  Shard& sh = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(sh.mu);
  FGPM_ASSIGN_OR_RETURN(size_t f, GrabFrame(sh));
  frames_[f].page.Zero();
  InstallFrame(sh, f, id, /*dirty=*/true);
  return PageGuard(this, f, id);
}

void BufferPool::Unpin(size_t frame) {
  Frame& fr = frames_[frame];
  Shard& sh = *shards_[fr.shard];
  // Stamp before the release decrement: once pin_count reads 0 under
  // the shard latch, the evictor must already see this recency.
  uint64_t stamp = sh.clock.fetch_add(1, std::memory_order_relaxed) + 1;
  fr.last_used.store(stamp, std::memory_order_relaxed);
  uint32_t prev = fr.pin_count.fetch_sub(1, std::memory_order_release);
  FGPM_DCHECK(prev > 0);
  (void)prev;
}

Status BufferPool::FlushAll() {
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::lock_guard<std::mutex> lock(sh.mu);
    for (size_t f = sh.begin; f < sh.end; ++f) {
      Frame& fr = frames_[f];
      if (fr.id != kInvalidPage &&
          fr.dirty.load(std::memory_order_relaxed) &&
          sh.page_table.count(fr.id) != 0) {
        FGPM_RETURN_IF_ERROR(disk_->WritePage(fr.id, fr.page));
        fr.dirty.store(false, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (const auto& sh : shards_) {
    out.hits += sh->hits.load(std::memory_order_relaxed);
    out.misses += sh->misses.load(std::memory_order_relaxed);
    out.evictions += sh->evictions.load(std::memory_order_relaxed);
  }
  return out;
}

void BufferPool::ResetStats() {
  for (auto& sh : shards_) {
    sh->hits.store(0, std::memory_order_relaxed);
    sh->misses.store(0, std::memory_order_relaxed);
    sh->evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fgpm
