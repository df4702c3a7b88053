// Concurrency hammer tests for the sharded read path (run under
// FGPM_SANITIZE=thread via the `verify-tsan` Makefile target / the
// ctest `concurrency` label):
//  * buffer pool: 8 threads pin/unpin overlapping page sets on a pool
//    far smaller than the page universe, checking that a pinned frame
//    is never evicted out from under a reader (page contents must stay
//    intact for the guard's whole lifetime);
//  * stats: hits/misses/evictions totals are exact under concurrent
//    readers (per-shard atomics summed on read);
//  * code cache: concurrent GetCodes through the striped cache returns
//    records identical to the in-memory labeling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gdb/database.h"
#include "graph/generators.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace fgpm {
namespace {

// Stamps every word of a page with a value derived from the page id, so
// a reader can detect a frame that was recycled while it held a pin.
void StampPage(Page* p, PageId id) {
  for (size_t off = 0; off + sizeof(uint64_t) <= kPageSize;
       off += sizeof(uint64_t)) {
    p->Write<uint64_t>(off, (uint64_t{id} << 32) ^ (id * 0x9e3779b9u) ^ off);
  }
}

bool CheckPage(const Page& p, PageId id) {
  for (size_t off = 0; off + sizeof(uint64_t) <= kPageSize;
       off += sizeof(uint64_t)) {
    uint64_t expect = (uint64_t{id} << 32) ^ (id * 0x9e3779b9u) ^ off;
    if (p.Read<uint64_t>(off) != expect) return false;
  }
  return true;
}

void RunPinnedHammer(const BufferPoolOptions& options, size_t expect_shards,
                     int iters_per_thread) {
  constexpr size_t kPages = 512;
  constexpr int kThreads = 8;
  const int kItersPerThread = iters_per_thread;

  DiskManager disk;
  BufferPool pool(&disk, options);
  ASSERT_EQ(pool.num_shards(), expect_shards);
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    StampPage(&g->MutablePage(), g->id());
    ids.push_back(g->id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<uint64_t> checks{0};
  std::atomic<int> failures{0};
  auto worker = [&](unsigned seed) {
    Rng rng(seed);
    for (int it = 0; it < kItersPerThread && failures.load() == 0; ++it) {
      // Pin an overlapping set of up to 3 pages, verify all of them
      // twice (before and after more traffic lands on the pool), then
      // release. A pinned frame that got evicted/recycled would fail
      // the second check.
      PageGuard guards[3];
      PageId got[3];
      size_t held = 0;
      size_t want = 1 + rng.NextBounded(3);
      for (size_t k = 0; k < want; ++k) {
        // Skewed choice: half the traffic hits a hot 32-page set so
        // threads genuinely overlap.
        PageId id = (rng.NextBounded(2) == 0)
                        ? ids[rng.NextBounded(32)]
                        : ids[rng.NextBounded(kPages)];
        auto g = pool.Fetch(id);
        if (!g.ok()) {
          // All frames of one shard transiently pinned is legal; back
          // off and retry with fewer pins.
          ASSERT_EQ(g.status().code(), StatusCode::kResourceExhausted);
          break;
        }
        got[held] = id;
        guards[held++] = std::move(*g);
      }
      for (size_t k = 0; k < held; ++k) {
        if (!CheckPage(guards[k].page(), got[k])) failures.fetch_add(1);
      }
      // Extra traffic while still holding the pins.
      auto g = pool.Fetch(ids[rng.NextBounded(kPages)]);
      if (g.ok()) g->Release();
      for (size_t k = 0; k < held; ++k) {
        if (!CheckPage(guards[k].page(), got[k])) failures.fetch_add(1);
        checks.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, 1000 + t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checks.load(), 0u);
  // After the storm, every page must still round-trip from disk.
  for (PageId id : ids) {
    auto g = pool.Fetch(id);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(CheckPage(g->page(), id));
  }
}

TEST(ConcurrencyHammer, PinnedFramesSurviveEightThreads) {
  // 4x oversubscribed pool so evictions are constant; 4 shards so
  // cross-shard traffic and same-shard contention both occur. Misses
  // load outside the shard latch (io_busy protocol), so this also
  // hammers concurrent same-page loads racing waiters.
  RunPinnedHammer(BufferPoolOptions{128 * kPageSize, 4}, 4, 4000);
}

TEST(ConcurrencyHammer, StatsTotalsExactUnderConcurrentReaders) {
  constexpr size_t kPages = 64;
  constexpr int kThreads = 8;
  constexpr int kFetchesPerThread = 5000;

  DiskManager disk;
  // Pool big enough to hold everything: after the first touch of a page
  // there are no evictions, so the split is deterministic in aggregate.
  BufferPool pool(&disk, BufferPoolOptions{256 * kPageSize, 8});
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id());
  }
  pool.ResetStats();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      for (int i = 0; i < kFetchesPerThread; ++i) {
        auto g = pool.Fetch(ids[rng.NextBounded(kPages)]);
        ASSERT_TRUE(g.ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  BufferPoolStats s = pool.stats();
  // Every fetch is exactly one hit or one miss; nothing is lost to
  // racy read-modify-write (the old `stats_.hits++` under a data race
  // could drop increments).
  EXPECT_EQ(s.hits + s.misses, uint64_t{kThreads} * kFetchesPerThread);
  // All pages stayed resident (they were resident before the reset), so
  // every fetch was a hit and nothing was evicted.
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(ConcurrencyHammer, SingleShardMatchesLegacyLruSemantics) {
  // The 1-shard pool must reproduce the old single-mutex pool move for
  // move: LRU victim order, resource exhaustion, and write-back.
  DiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{4 * kPageSize, 1});
  ASSERT_EQ(pool.num_shards(), 1u);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto g = pool.New();
    ASSERT_TRUE(g.ok());
    g->MutablePage().Write<uint32_t>(0, 100 + i);
    ids.push_back(g->id());
  }
  // Touch page 0 so page 1 becomes the LRU victim.
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  { auto g = pool.New(); ASSERT_TRUE(g.ok()); }  // evicts ids[1]
  uint64_t misses_before = pool.stats().misses;
  { auto g = pool.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool.stats().misses, misses_before);  // still resident
  auto g1 = pool.Fetch(ids[1]);
  ASSERT_TRUE(g1.ok());
  EXPECT_EQ(pool.stats().misses, misses_before + 1);  // was evicted
  EXPECT_EQ(g1->page().Read<uint32_t>(0), 101u);      // written back dirty
}

TEST(ConcurrencyHammer, StripedCodeCacheAgreesWithLabeling) {
  Graph g = gen::ErdosRenyi(400, 1200, 4, 91);
  GraphDatabaseOptions opts;
  opts.code_cache_capacity = 256;  // small: forces CLOCK evictions
  opts.code_cache_stripes = 8;
  opts.buffer_pool_shards = 8;
  GraphDatabase db(opts);
  ASSERT_TRUE(db.Build(g).ok());

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      for (int i = 0; i < 3000; ++i) {
        NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
        LabelId l = g.label_of(v);
        GraphCodeRecord rec;
        Status s = db.GetCodes(v, l, &rec);
        if (!s.ok() || rec.node != v ||
            !std::ranges::equal(rec.in, db.labeling().InCode(v)) ||
            !std::ranges::equal(rec.out, db.labeling().OutCode(v))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  IoSnapshot io = db.Io();
  // Hot nodes repeat, so the striped cache must actually serve hits.
  EXPECT_GT(io.code_cache_hits, 0u);
  EXPECT_EQ(io.code_cache_hits + io.code_cache_misses,
            uint64_t{kThreads} * 3000);
}

}  // namespace
}  // namespace fgpm
