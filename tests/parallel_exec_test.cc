// Parallel execution engine tests:
//  * ThreadPool / ParallelFor primitives (coverage, chunk indexing,
//    sequential inlining).
//  * Batch-parallel 2-hop construction answers reachability exactly like
//    the sequential builder.
//  * Randomized differential: for several seeds x graph families, the
//    R-join engines at 1, 2 and 8 threads produce the same result sets
//    as the naive matcher — and bit-identical rows across thread counts
//    (the determinism contract of operators.h, stronger than set
//    equality).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "reach/two_hop.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

TEST(ThreadPoolTest, NumChunks) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 4), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(4, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(5, 4), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(8, 4), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(9, 4), 3u);
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(3), 3u);
  EXPECT_GE(ResolveThreads(0), 1u);  // hardware_concurrency, at least 1
}

// Every index in [0, n) is visited exactly once, each chunk sees the
// range implied by its chunk id, regardless of worker count.
void CheckCoverage(unsigned threads, size_t n, size_t chunk_size) {
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  std::atomic<size_t> chunks_run{0};
  pool.ParallelFor(n, chunk_size, [&](unsigned worker, size_t chunk,
                                      size_t begin, size_t end) {
    EXPECT_LT(worker, pool.size());
    EXPECT_EQ(begin, chunk * chunk_size);
    EXPECT_EQ(end, std::min(n, begin + chunk_size));
    ++chunks_run;
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(chunks_run.load(), ThreadPool::NumChunks(n, chunk_size));
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 5u, 8u}) {
    for (size_t n : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
      CheckCoverage(threads, n, 3);
      CheckCoverage(threads, n, 64);
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossRegions) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(100, 7, [&](unsigned, size_t, size_t b, size_t e) {
      uint64_t local = 0;
      for (size_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 100ull * 99 / 2);
  }
}

TEST(TwoHopParallelTest, BatchParallelBuildAnswersLikeSequential) {
  for (uint64_t seed : {1ull, 7ull}) {
    Graph g = gen::ErdosRenyi(120, 400, 4, seed);  // cyclic: exercises SCCs
    TwoHopLabeling seq = BuildTwoHopPruned(g, 1);
    for (unsigned threads : {2u, 4u}) {
      TwoHopLabeling par = BuildTwoHopPruned(g, threads);
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          ASSERT_EQ(par.Reaches(u, v), seq.Reaches(u, v))
              << "seed " << seed << " threads " << threads << " pair (" << u
              << "," << v << ")";
        }
      }
    }
  }
}

enum class GraphKind { kErdosRenyi, kRandomDag, kXmark };

const char* GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kErdosRenyi:
      return "ErdosRenyi";
    case GraphKind::kRandomDag:
      return "RandomDag";
    case GraphKind::kXmark:
      return "Xmark";
  }
  return "?";
}

Graph MakeGraph(GraphKind kind, uint64_t seed) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return gen::ErdosRenyi(150, 480, 5, seed);
    case GraphKind::kRandomDag:
      return gen::RandomDag(170, 2.4, 5, seed);
    case GraphKind::kXmark: {
      gen::XMarkOptions opts;
      opts.factor = 0.0008;
      opts.seed = seed;
      return gen::XMarkLike(opts);
    }
  }
  __builtin_unreachable();
}

using ParamT = std::tuple<GraphKind, uint64_t /*seed*/>;

class ParallelDifferential : public ::testing::TestWithParam<ParamT> {};

// Engines at 1, 2 and 8 threads vs the naive matcher, and exact
// row-for-row equality between thread counts.
TEST_P(ParallelDifferential, ThreadCountsAgreeWithNaive) {
  auto [kind, seed] = GetParam();
  Graph g = MakeGraph(kind, seed);

  // One matcher per thread count over the same database build.
  const unsigned kThreads[] = {1, 2, 8};
  std::vector<std::unique_ptr<GraphMatcher>> matchers;
  for (unsigned t : kThreads) {
    auto m = GraphMatcher::Create(&g, {}, ExecOptions{.num_threads = t});
    ASSERT_TRUE(m.ok()) << m.status();
    matchers.push_back(std::move(*m));
  }

  auto patterns = workload::RandomPatterns(g, /*count=*/5, /*nodes=*/3,
                                           /*extra_edges=*/1, seed * 7 + 1);
  auto more = workload::RandomPatterns(g, /*count=*/3, /*nodes=*/4,
                                       /*extra_edges=*/1, seed * 13 + 5);
  patterns.insert(patterns.end(), more.begin(), more.end());
  ASSERT_FALSE(patterns.empty());

  for (const auto& p : patterns) {
    Result<MatchResult> expect =
        (*matchers[0]).Match(p, {.engine = Engine::kNaive});
    ASSERT_TRUE(expect.ok());
    expect->SortRows();
    for (Engine e : {Engine::kDps, Engine::kDp, Engine::kCanonical}) {
      RowBlock first_rows;
      for (size_t i = 0; i < matchers.size(); ++i) {
        auto r = matchers[i]->Match(p, {.engine = e});
        ASSERT_TRUE(r.ok()) << EngineName(e) << ": " << r.status();
        // Determinism: identical rows in identical order per thread count.
        if (i == 0) {
          first_rows = r->rows;
        } else {
          EXPECT_EQ(r->rows, first_rows)
              << GraphKindName(kind) << " seed " << seed << " engine "
              << EngineName(e) << " threads " << kThreads[i]
              << " differs from single-threaded rows, pattern "
              << p.ToString();
        }
        r->SortRows();
        EXPECT_EQ(r->rows, expect->rows)
            << GraphKindName(kind) << " seed " << seed << " engine "
            << EngineName(e) << " threads " << kThreads[i] << " pattern "
            << p.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndSeeds, ParallelDifferential,
    ::testing::Combine(::testing::Values(GraphKind::kErdosRenyi,
                                         GraphKind::kRandomDag,
                                         GraphKind::kXmark),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<ParamT>& info) {
      return std::string(GraphKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Parallel database build (2-hop cover at build_threads > 1) feeding the
// parallel engine still matches ground truth end to end.
TEST(ParallelBuildTest, ParallelCoverParallelEngineMatchesNaive) {
  Graph g = gen::ErdosRenyi(140, 460, 4, 11);
  GraphDatabaseOptions db_options;
  db_options.build_threads = 4;
  auto m = GraphMatcher::Create(&g, db_options, ExecOptions{.num_threads = 4});
  ASSERT_TRUE(m.ok()) << m.status();
  auto patterns = workload::RandomPatterns(g, 6, 3, 1, 99);
  for (const auto& p : patterns) {
    auto expect = (*m)->Match(p, {.engine = Engine::kNaive});
    auto got = (*m)->Match(p, {.engine = Engine::kDps});
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok()) << got.status();
    expect->SortRows();
    got->SortRows();
    EXPECT_EQ(got->rows, expect->rows) << p.ToString();
  }
}

}  // namespace
}  // namespace fgpm
