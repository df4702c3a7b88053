// Randomized differential test for the reachability probe paths (runs
// under TSan/ASan via the `reach` + `concurrency` ctest labels): the
// flat-arena probe, the hybrid bitmap probe and the memoized probe must
// all agree with the BFS oracle, from 1, 4 and 8 concurrent threads
// sharing one labeling. The memo is per-thread (the executor's
// one-memo-per-worker design), so the only shared state under
// concurrency is the read-only labeling itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reach_oracle.h"
#include "reach/reach_memo.h"
#include "reach/two_hop.h"

namespace fgpm {
namespace {

struct Probe {
  NodeId u, v;
  bool expect;
};

// Samples pairs from a small node subset so component pairs recur —
// the repeated-probe workload the memo exists for.
std::vector<Probe> MakeProbes(const Graph& g, int count, uint64_t seed) {
  ReachOracle oracle(&g);
  Rng rng(seed);
  // Half the draws come from a 32-node pocket => many repeats.
  std::vector<NodeId> pocket;
  for (int i = 0; i < 32; ++i) {
    pocket.push_back(static_cast<NodeId>(rng.NextBounded(g.NumNodes())));
  }
  std::vector<Probe> probes;
  probes.reserve(count);
  for (int i = 0; i < count; ++i) {
    NodeId u = i % 2 == 0
                   ? pocket[rng.NextBounded(pocket.size())]
                   : static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId v = i % 3 == 0
                   ? pocket[rng.NextBounded(pocket.size())]
                   : static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    probes.push_back({u, v, oracle.Reaches(u, v)});
  }
  return probes;
}

void RunDifferential(const Graph& g, uint64_t seed) {
  // threshold 0: every probe on the flat arrays; threshold 2: almost
  // every non-trivial code gets a bitmap sidecar.
  TwoHopLabeling flat = BuildTwoHopPruned(g, 1, 0);
  TwoHopLabeling hybrid = BuildTwoHopPruned(g, 1, 2);
  ASSERT_EQ(flat.CoverSize(), hybrid.CoverSize());
  ASSERT_GT(hybrid.NumBitmapCodes(), 0u);
  std::vector<Probe> probes = MakeProbes(g, 3000, seed);

  for (unsigned threads : {1u, 4u, 8u}) {
    std::atomic<int> mismatches{0};
    std::atomic<uint64_t> memo_hits{0};
    std::atomic<uint64_t> memo_probes{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ReachMemo memo(512);  // per-thread, like the executor's workers
        // Interleaved slices; two passes so even a thread's own slice
        // repeats (the memo persists across passes).
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i = t; i < probes.size(); i += threads) {
            const Probe& p = probes[i];
            bool f = flat.Reaches(p.u, p.v);
            bool h = hybrid.Reaches(p.u, p.v);
            bool m = hybrid.Reaches(p.u, p.v, &memo);
            if (f != p.expect || h != p.expect || m != p.expect) {
              mismatches.fetch_add(1);
            }
          }
        }
        memo_hits.fetch_add(memo.hits());
        memo_probes.fetch_add(memo.probes());
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
    // The workload repeats component pairs by construction (pocket
    // sampling + two passes), so the memo must be doing real work.
    EXPECT_GT(memo_probes.load(), 0u) << "threads=" << threads;
    EXPECT_GT(memo_hits.load(), 0u) << "threads=" << threads;
  }
}

TEST(ReachDifferentialTest, ErdosRenyi) {
  RunDifferential(gen::ErdosRenyi(400, 1200, 3, 71), 171);
}

TEST(ReachDifferentialTest, ScaleFree) {
  RunDifferential(gen::ScaleFree(400, 3, 3, 72), 172);
}

TEST(ReachDifferentialTest, XMarkLike) {
  gen::XMarkOptions opts;
  opts.factor = 0.005;
  RunDifferential(gen::XMarkLike(opts), 173);
}

// Disabled memo must behave exactly like the plain probe (null and
// zero-capacity both).
TEST(ReachDifferentialTest, DisabledMemoIsTransparent) {
  Graph g = gen::RandomDag(200, 2.0, 2, 73);
  TwoHopLabeling lab = BuildTwoHopPruned(g, 1, 4);
  ReachMemo off(0);
  EXPECT_FALSE(off.enabled());
  Rng rng(74);
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    bool plain = lab.Reaches(u, v);
    EXPECT_EQ(lab.Reaches(u, v, nullptr), plain);
    EXPECT_EQ(lab.Reaches(u, v, &off), plain);
  }
  EXPECT_EQ(off.probes(), 0u);
}

// Memo unit behavior: epoch clear drops entries, lossy overwrite keeps
// answering correctly (a memo is a cache, never an oracle).
TEST(ReachMemoTest, AcquireClearAndOverflow) {
  ReachMemo memo(64);
  ASSERT_TRUE(memo.enabled());
  ASSERT_EQ(memo.capacity(), 64u);
  bool hit = true;
  uint32_t s1 = memo.Acquire(ReachMemo::PackKey(1, 2), &hit);
  EXPECT_FALSE(hit);
  memo.set_value(s1, 1);
  uint32_t s2 = memo.Acquire(ReachMemo::PackKey(1, 2), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(memo.value(s2), 1u);
  memo.Clear();
  memo.Acquire(ReachMemo::PackKey(1, 2), &hit);
  EXPECT_FALSE(hit) << "Clear must drop cached entries";
  EXPECT_EQ(memo.probes(), 1u) << "Clear must reset statistics";
  // Stuff far more keys than capacity: every re-acquire answers either
  // a correct hit (value preserved) or a miss — never a wrong value.
  memo.Clear();
  for (uint32_t k = 0; k < 1000; ++k) {
    uint32_t s = memo.Acquire(ReachMemo::PackKey(k, k), &hit);
    if (!hit) memo.set_value(s, k);
  }
  for (uint32_t k = 0; k < 1000; ++k) {
    uint32_t s = memo.Acquire(ReachMemo::PackKey(k, k), &hit);
    if (hit) {
      EXPECT_EQ(memo.value(s), k);
    }
  }
}

}  // namespace
}  // namespace fgpm
