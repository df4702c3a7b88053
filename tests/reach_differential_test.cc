// Randomized differential test for the reachability probe (runs under
// TSan/ASan via the `reach` + `concurrency` ctest labels): the 2-hop
// labeling's code-intersection verdicts must agree with the BFS oracle
// from 1, 4 and 8 concurrent threads sharing one labeling, whose only
// shared state is the read-only code arenas.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reach_oracle.h"
#include "reach/two_hop.h"

namespace fgpm {
namespace {

struct Probe {
  NodeId u, v;
  bool expect;
};

// Samples pairs partly from a small node subset so component pairs
// recur across threads.
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
  TwoHopLabeling lab = BuildTwoHopPruned(g);
  std::vector<Probe> probes = MakeProbes(g, 3000, seed);

  for (unsigned threads : {1u, 4u, 8u}) {
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < probes.size(); i += threads) {
          const Probe& p = probes[i];
          if (lab.Reaches(p.u, p.v) != p.expect) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << "threads=" << threads;
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

}  // namespace
}  // namespace fgpm
