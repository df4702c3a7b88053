#include "storage/disk_manager.h"

#include <istream>
#include <mutex>
#include <ostream>

#include "common/serialize.h"

namespace fgpm {
namespace {

// FNV-1a over a page's bytes.
uint64_t PageChecksum(const Page& p) {
  uint64_t h = 0xcbf29ce484222325ull;
  const char* data = p.data();
  for (size_t i = 0; i < kPageSize; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

Status DiskManager::SavePages(std::ostream& os) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  BinaryWriter w(&os);
  w.U64(pages_.size());
  for (const auto& p : pages_) {
    w.U64(PageChecksum(*p));
    os.write(p->data(), kPageSize);
  }
  if (!os) return Status::Internal("page write failed");
  return Status::OK();
}

Status DiskManager::LoadPages(std::istream& is) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  BinaryReader r(&is);
  uint64_t n = 0;
  FGPM_RETURN_IF_ERROR(r.U64(&n));
  if (n > (1ull << 32)) return Status::Corruption("absurd page count");
  pages_.clear();
  pages_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t expected = 0;
    FGPM_RETURN_IF_ERROR(r.U64(&expected));
    auto page = std::make_unique<Page>();
    is.read(page->data(), kPageSize);
    if (static_cast<size_t>(is.gcount()) != kPageSize) {
      return Status::Corruption("page data truncated");
    }
    if (PageChecksum(*page) != expected) {
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      return Status::Corruption("page " + std::to_string(i) +
                                " checksum mismatch");
    }
    pages_.push_back(std::move(page));
  }
  return Status::OK();
}

Status DiskManager::CorruptPageForTesting(PageId id, size_t offset) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size() || offset >= kPageSize) {
    return Status::OutOfRange("corruption target out of range");
  }
  pages_[id]->data()[offset] ^= 0x5a;
  return Status::OK();
}

PageId DiskManager::AllocatePage() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pages_.push_back(std::make_unique<Page>());
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<PageId>(pages_.size() - 1);
}

Status DiskManager::ReadPage(PageId id, Page* out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("ReadPage: page id out of range");
  }
  *out = *pages_[id];
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const Page& page) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("WritePage: page id out of range");
  }
  *pages_[id] = page;
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace fgpm
