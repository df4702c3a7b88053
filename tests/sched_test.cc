// Work-stealing scheduler tests (label: sched, concurrency):
//  * TaskDeque (Chase-Lev) unit + multi-thief stress — the TSan-critical
//    piece of the scheduler.
//  * Nested parallel regions actually run (the scheduler executes them
//    with the blocked caller helping).
//  * Adaptive splitting: a skewed region splits morsels once other
//    participants starve.
//  * External participation: TryHelp executes queued morsels, armed
//    wake hooks fire when work is published.
//  * Randomized determinism differential: byte-identical rows across
//    1/2/4/8-thread pools x {binary, wcoj, hybrid} join strategies
//    while a noise thread keeps the scheduler under steal pressure.
//  * Server thread accounting: shards=2 with exec threads=4 must NOT
//    multiply into shards x exec threads (the old oversubscription).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/scheduler.h"
#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/sched_metrics.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

void* Tok(uintptr_t v) { return reinterpret_cast<void*>(v); }
uintptr_t Val(void* p) { return reinterpret_cast<uintptr_t>(p); }

TEST(TaskDequeTest, OwnerLifoThiefFifo) {
  TaskDeque dq;
  EXPECT_TRUE(dq.Empty());
  EXPECT_EQ(dq.Pop(), nullptr);
  EXPECT_EQ(dq.Steal(), nullptr);
  ASSERT_TRUE(dq.Push(Tok(1)));
  ASSERT_TRUE(dq.Push(Tok(2)));
  ASSERT_TRUE(dq.Push(Tok(3)));
  EXPECT_EQ(Val(dq.Steal()), 1u);  // FIFO from the top
  EXPECT_EQ(Val(dq.Pop()), 3u);    // LIFO from the bottom
  EXPECT_EQ(Val(dq.Pop()), 2u);
  EXPECT_EQ(dq.Pop(), nullptr);
  EXPECT_TRUE(dq.Empty());
}

TEST(TaskDequeTest, BoundedPushFailsWhenFull) {
  TaskDeque dq;
  for (size_t i = 0; i < TaskDeque::kCapacity; ++i) {
    ASSERT_TRUE(dq.Push(Tok(i + 1))) << i;
  }
  EXPECT_FALSE(dq.Push(Tok(9999)));
  EXPECT_EQ(Val(dq.Steal()), 1u);  // freeing one slot re-admits
  EXPECT_TRUE(dq.Push(Tok(9999)));
  EXPECT_FALSE(dq.Push(Tok(10000)));
}

// Multi-thief stress: every pushed token is consumed exactly once, by
// the owner (Pop) or a thief (Steal). This is the test TSan watches.
TEST(TaskDequeTest, ConcurrentStealStress) {
  constexpr uintptr_t kTokens = 20000;
  constexpr int kThieves = 3;
  TaskDeque dq;
  std::vector<std::atomic<int>> seen(kTokens + 1);
  for (auto& s : seen) s = 0;
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || !dq.Empty()) {
        void* p = dq.Steal();
        if (p != nullptr) {
          ++seen[Val(p)];
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  uint64_t rng = 12345;
  for (uintptr_t v = 1; v <= kTokens; ++v) {
    while (!dq.Push(Tok(v))) {
      void* p = dq.Pop();
      if (p != nullptr) ++seen[Val(p)];
    }
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    if ((rng >> 33) % 4 == 0) {  // owner occasionally takes its own work
      void* p = dq.Pop();
      if (p != nullptr) ++seen[Val(p)];
    }
  }
  void* p = nullptr;
  while ((p = dq.Pop()) != nullptr) ++seen[Val(p)];
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (uintptr_t v = 1; v <= kTokens; ++v) {
    ASSERT_EQ(seen[v].load(), 1) << "token " << v;
  }
}

// A ParallelFor body opening another region runs to completion with
// full coverage of both levels, from any mix of pools.
TEST(SchedulerTest, NestedRegionsRun) {
  constexpr size_t kOuter = 64, kInner = 32;
  ThreadPool outer(4), inner(4);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h = 0;
  outer.ParallelFor(kOuter, 8, [&](unsigned worker, size_t, size_t b,
                                   size_t e) {
    EXPECT_LT(worker, outer.size());
    for (size_t o = b; o < e; ++o) {
      inner.ParallelFor(kInner, 4, [&, o](unsigned iw, size_t, size_t ib,
                                          size_t ie) {
        EXPECT_LT(iw, inner.size());
        for (size_t i = ib; i < ie; ++i) ++hits[o * kInner + i];
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "cell " << i;
  }
}

// Same-pool nesting (recursive use of one executor's pool).
TEST(SchedulerTest, SamePoolNestingRuns) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(16, 2, [&](unsigned, size_t, size_t b, size_t e) {
    for (size_t o = b; o < e; ++o) {
      pool.ParallelFor(100, 10, [&](unsigned, size_t, size_t ib, size_t ie) {
        uint64_t local = 0;
        for (size_t i = ib; i < ie; ++i) local += i;
        sum += local;
      });
    }
  });
  EXPECT_EQ(sum.load(), 16ull * (100 * 99 / 2));
}

// A region whose first morsel is much slower than the rest must split
// it once the fast participants run dry (adaptive morsel sizing).
TEST(SchedulerTest, SkewedRegionSplitsForStarvingWorkers) {
  Scheduler& sched = Scheduler::Global();
  uint64_t splits_before = sched.GetStats().splits;
  // min_split is 1024 chunks (morsel_rows / chunk_size); 4 initial
  // morsels of 4096 chunks leave room to split several times.
  constexpr size_t kN = 16384, kChunk = 1;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(kN, kChunk, [&](unsigned, size_t chunk, size_t b,
                                   size_t e) {
    if (chunk < kN / 4) {  // the first (owner-popped) morsel is sleepy
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_GT(sched.GetStats().splits, splits_before);
}

// TryHelp from a never-attached thread executes queued morsels.
TEST(SchedulerTest, TryHelpExecutesQueuedWork) {
  std::atomic<bool> running{true};
  std::atomic<uint64_t> rounds{0};
  std::thread producer([&] {
    ThreadPool pool(4);
    while (running.load(std::memory_order_acquire)) {
      std::atomic<uint64_t> sum{0};
      pool.ParallelFor(2048, 16, [&](unsigned, size_t, size_t b, size_t e) {
        uint64_t local = 0;
        for (size_t i = b; i < e; ++i) local += i;
        sum += local;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
      EXPECT_EQ(sum.load(), 2048ull * 2047 / 2);
      rounds.fetch_add(1);
    }
  });
  bool helped = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!helped && std::chrono::steady_clock::now() < deadline) {
    helped = Scheduler::Global().TryHelp();
    if (!helped) std::this_thread::yield();
  }
  running.store(false, std::memory_order_release);
  producer.join();
  EXPECT_TRUE(helped);
  EXPECT_GE(rounds.load(), 1u);
}

// An armed wake hook fires (once) when work is published, and counts as
// a starving participant while armed.
TEST(SchedulerTest, ArmedWakeHookFiresOnPublish) {
  Scheduler& sched = Scheduler::Global();
  std::atomic<int> fired{0};
  int id = sched.AddWakeHook([&] { fired.fetch_add(1); });
  sched.ArmWakeHook(id, true);
  {
    ThreadPool pool(4);
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(1024, 8, [&](unsigned, size_t, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 1024ull * 1023 / 2);
  }
  EXPECT_GE(fired.load(), 1);
  int after_region = fired.load();
  sched.RemoveWakeHook(id);
  ThreadPool pool(4);
  pool.ParallelFor(1024, 8, [](unsigned, size_t, size_t, size_t) {});
  EXPECT_EQ(fired.load(), after_region);  // removed hooks never fire
}

// The obs bridge mirrors scheduler counters into the default registry.
TEST(SchedMetricsTest, PublishMirrorsSchedulerCounters) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(8192, 8, [&](unsigned, size_t, size_t b, size_t e) {
    uint64_t local = 0;
    for (size_t i = b; i < e; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 8192ull * 8191 / 2);
  obs::PublishSchedulerMetrics();
  auto& reg = obs::MetricsRegistry::Default();
  uint64_t regions = reg.GetCounter("fgpm_sched_regions_total")->Value();
  uint64_t tasks = reg.GetCounter("fgpm_sched_tasks_total")->Value();
  EXPECT_GE(regions, 1u);
  EXPECT_GE(tasks, 1u);
  EXPECT_GT(reg.GetGauge("fgpm_sched_workers")->Value(), 0.0);

  // Publishing is delta-based: a second publish with no new work must
  // not advance the mirrored counters.
  obs::PublishSchedulerMetrics();
  uint64_t regions2 = reg.GetCounter("fgpm_sched_regions_total")->Value();
  EXPECT_EQ(regions2, regions);
}

// --- determinism under steal pressure --------------------------------------

// Byte-identical rows across pool widths for every join strategy, while
// a noise thread keeps unrelated morsels flowing through the same
// scheduler (so victim deques are non-empty and steals actually happen).
TEST(SchedulerDeterminism, StrategiesByteIdenticalAcrossWidths) {
  Graph g = gen::ErdosRenyi(150, 480, 5, /*seed=*/17);

  const unsigned kWidths[] = {1, 2, 4, 8};
  std::vector<std::unique_ptr<GraphMatcher>> matchers;
  for (unsigned t : kWidths) {
    auto m = GraphMatcher::Create(&g, {}, ExecOptions{.num_threads = t});
    ASSERT_TRUE(m.ok()) << m.status();
    matchers.push_back(std::move(*m));
  }

  std::atomic<bool> stop{false};
  std::thread noise([&] {
    ThreadPool pool(4);
    std::atomic<uint64_t> sink{0};
    while (!stop.load(std::memory_order_acquire)) {
      pool.ParallelFor(4096, 32, [&](unsigned, size_t, size_t b, size_t e) {
        uint64_t local = 0;
        for (size_t i = b; i < e; ++i) local += i * i;
        sink += local;
      });
    }
  });

  auto patterns = workload::RandomPatterns(g, /*count=*/4, /*nodes=*/3,
                                           /*extra_edges=*/1, 901);
  ASSERT_FALSE(patterns.empty());
  for (JoinStrategy s :
       {JoinStrategy::kBinary, JoinStrategy::kWcoj, JoinStrategy::kHybrid}) {
    for (auto& m : matchers) m->set_join_strategy(s);
    for (const auto& p : patterns) {
      std::vector<std::vector<NodeId>> first_rows;
      for (size_t i = 0; i < matchers.size(); ++i) {
        auto r = matchers[i]->Match(p, {});
        ASSERT_TRUE(r.ok()) << r.status();
        if (i == 0) {
          first_rows = r->rows;
        } else {
          ASSERT_EQ(r->rows, first_rows)
              << "strategy " << static_cast<int>(s) << " width "
              << kWidths[i] << " pattern " << p.ToString();
        }
      }
    }
  }
  stop.store(true, std::memory_order_release);
  noise.join();
}

// --- server thread accounting ----------------------------------------------

int CountOsThreads() {
  int n = 0;
  for ([[maybe_unused]] auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// shards=2 with per-query exec threads=4: the old design would spawn
// 2 workers + 2 pools x 3 threads = 8 new threads. With the shared
// scheduler the workers ARE the pool: the caller plus the 2 reserved
// workers leave 4 - 1 - 2 = 1 internal scheduler thread to spawn (none
// when internals already exist), and never shards x exec.
TEST(ServerThreadCount, SharedSchedulerAvoidsOversubscription) {
  Graph g = gen::ScaleFree(500, 3, 8, /*seed=*/7);
  // Sanitizer runtimes (TSan) start their own background thread lazily on
  // the first pthread_create; force it into existence before the baseline
  // count so it doesn't get attributed to the server.
  std::thread([] {}).join();
  int threads_before = CountOsThreads();
  unsigned internal_before = Scheduler::Global().internal_workers();

  net::ServerOptions opts;
  opts.num_shards = 2;
  opts.matcher.exec.num_threads = 4;
  auto server = net::Server::Start(&g, opts);
  ASSERT_TRUE(server.ok()) << server.status();

  int threads_during = CountOsThreads();
  unsigned internal_during = Scheduler::Global().internal_workers();
  EXPECT_EQ(internal_during, std::max(internal_before, 1u));
  EXPECT_LE(threads_during - threads_before,
            2 + static_cast<int>(internal_during - internal_before))
      << "server spawned private executor pools (oversubscription)";

  (*server)->Stop();
}

}  // namespace
}  // namespace fgpm
