#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/intersect_kernels.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/sorted_vector.h"
#include "common/status.h"

namespace fgpm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such node");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such node");
  EXPECT_EQ(s.ToString(), "NotFound: no such node");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCorruption); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseParse(int v, int* out) {
  FGPM_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseParse(-5, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(3);
  ZipfDistribution zipf(100, 0.9);
  int small = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Sample(&rng);
    EXPECT_LT(v, 100u);
    if (v < 10) ++small;
  }
  // Heavy head: far more than the uniform 10%.
  EXPECT_GT(small, kDraws / 4);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SortedVectorTest, Intersects) {
  std::vector<int> a{1, 3, 5, 7}, b{2, 4, 7, 9}, c{2, 4, 6};
  EXPECT_TRUE(SortedIntersects(a, b));
  EXPECT_FALSE(SortedIntersects(a, c));
  EXPECT_FALSE(SortedIntersects(a, {}));
  EXPECT_FALSE(SortedIntersects<int>({}, {}));
}

TEST(SortedVectorTest, IntersectAndUnion) {
  std::vector<int> a{1, 3, 5, 7}, b{3, 5, 9};
  EXPECT_EQ(SortedIntersect(a, b), (std::vector<int>{3, 5}));
  EXPECT_EQ(SortedUnion(a, b), (std::vector<int>{1, 3, 5, 7, 9}));
}

// Scalar reference implementations for the differential test below: the
// seed's plain two-cursor merge, with no strategy switch.
bool ScalarIntersects(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
  auto ia = a.begin(), ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

std::vector<uint32_t> ScalarIntersect(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(SortedVectorTest, GallopLowerBoundMatchesStd) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint32_t> v;
    size_t n = rng.NextBounded(64);
    for (size_t i = 0; i < n; ++i) v.push_back(rng.NextBounded(100));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    for (uint32_t key = 0; key <= 100; key += 7) {
      for (size_t lo = 0; lo <= v.size(); ++lo) {
        size_t expect = static_cast<size_t>(
            std::lower_bound(v.begin() + lo, v.end(), key) - v.begin());
        EXPECT_EQ(gallop_internal::GallopLowerBound(v.data(), lo, v.size(),
                                                    key),
                  expect)
            << "lo=" << lo << " key=" << key;
      }
    }
  }
}

// Randomized differential: the adaptive (galloping/branch-light)
// kernels vs the scalar merge, across adversarial size ratios — empty,
// disjoint, subset, equal, and everything the ratio sweep hits in
// between (both sides of the kGallopRatio switch).
TEST(SortedVectorTest, GallopDifferentialAdversarialShapes) {
  Rng rng(4321);
  auto random_sorted = [&](size_t n, uint32_t universe) {
    std::vector<uint32_t> v;
    for (size_t i = 0; i < n; ++i) v.push_back(rng.NextBounded(universe));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  const size_t sizes[] = {0, 1, 2, 3, 15, 16, 17, 100, 1000, 5000};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      for (int dense = 0; dense < 2; ++dense) {
        // Dense universe forces overlaps; sparse one favors disjoint.
        uint32_t universe =
            dense ? static_cast<uint32_t>(na + nb + 1) * 2 : 1u << 30;
        std::vector<uint32_t> a = random_sorted(na, universe);
        std::vector<uint32_t> b = random_sorted(nb, universe);
        EXPECT_EQ(SortedIntersects(a, b), ScalarIntersects(a, b));
        EXPECT_EQ(SortedIntersect(a, b), ScalarIntersect(a, b));
        // Aliased shapes: equal inputs and a strict subset.
        EXPECT_TRUE(a.empty() || SortedIntersects(a, a));
        EXPECT_EQ(SortedIntersect(a, a), a);
        std::vector<uint32_t> sub;
        for (size_t i = 0; i < a.size(); i += 3) sub.push_back(a[i]);
        EXPECT_EQ(SortedIntersect(a, sub), sub);
        EXPECT_EQ(SortedIntersect(sub, a), sub);
        if (!sub.empty()) {
          EXPECT_TRUE(SortedIntersects(sub, a));
        }
      }
    }
  }
}

TEST(SortedVectorTest, IntersectIntoReusesBuffer) {
  std::vector<uint32_t> a{1, 2, 3, 4, 5}, b{2, 4, 6}, out{9, 9, 9, 9};
  SortedIntersectInto(a, b, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 4}));
  SortedIntersectInto(a, std::vector<uint32_t>{}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SortedVectorTest, InsertKeepsOrderAndDedups) {
  std::vector<int> v;
  EXPECT_TRUE(SortedInsert(&v, 5));
  EXPECT_TRUE(SortedInsert(&v, 1));
  EXPECT_TRUE(SortedInsert(&v, 3));
  EXPECT_FALSE(SortedInsert(&v, 3));
  EXPECT_EQ(v, (std::vector<int>{1, 3, 5}));
  EXPECT_TRUE(SortedContains(v, 3));
  EXPECT_FALSE(SortedContains(v, 4));
}

TEST(HashTest, PackPairRoundTrip) {
  uint64_t k = PackPair(0xdeadbeef, 0xfeedface);
  EXPECT_EQ(PairFirst(k), 0xdeadbeefu);
  EXPECT_EQ(PairSecond(k), 0xfeedfaceu);
}

TEST(HashTest, RowHashDistinguishesRows) {
  RowHash h;
  using Ids = std::vector<uint32_t>;
  EXPECT_NE(h(Ids{1, 2, 3}), h(Ids{1, 2, 4}));
  EXPECT_NE(h(Ids{1, 2}), h(Ids{2, 1}));
  EXPECT_EQ(h(Ids{1, 2, 3}), h(Ids{1, 2, 3}));
}

using StrLru = LruCache<std::string, int>;

// Keys from most to least recently used.
std::vector<std::string> LruKeys(const StrLru& lru) {
  std::vector<std::string> keys;
  for (const auto& node : lru) keys.push_back(node.key);
  return keys;
}

TEST(LruCacheTest, CountBudgetEvictsLeastRecentlyUsed) {
  StrLru lru(3);  // weight 1 per entry: a 3-entry cache
  for (const char* k : {"a", "b", "c", "d"}) {
    ASSERT_NE(lru.Put(k, 0, 1), nullptr);
  }
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.weight(), 3u);
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.Get("a"), nullptr);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"d", "c", "b"}));
}

TEST(LruCacheTest, ByteBudgetEvictsUntilTheInsertFits) {
  StrLru lru(100);
  lru.Put("a", 1, 40);
  lru.Put("b", 2, 40);
  lru.Put("c", 3, 50);  // 130 > 100: only "a" has to go
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"c", "b"}));
  EXPECT_EQ(lru.weight(), 90u);
  EXPECT_EQ(lru.evictions(), 1u);
  int* d = lru.Put("d", 4, 100);  // exactly the budget: evicts both
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(*d, 4);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"d"}));
  EXPECT_EQ(lru.weight(), 100u);
  EXPECT_EQ(lru.evictions(), 3u);
}

TEST(LruCacheTest, OversizeInsertIsRejectedAndChangesNothing) {
  StrLru lru(10);
  lru.Put("a", 1, 5);
  EXPECT_EQ(lru.Put("b", 2, 11), nullptr);
  // Not even an existing entry under the same key is dropped.
  EXPECT_EQ(lru.Put("a", 3, 11), nullptr);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"a"}));
  EXPECT_EQ(lru.weight(), 5u);
  EXPECT_EQ(lru.evictions(), 0u);
  ASSERT_NE(lru.Get("a"), nullptr);
  EXPECT_EQ(*lru.Get("a"), 1);
  StrLru off(0);  // a zero budget caches nothing
  EXPECT_EQ(off.Put("a", 1, 1), nullptr);
  EXPECT_EQ(off.size(), 0u);
}

TEST(LruCacheTest, SameKeyInsertReplacesTheEntry) {
  StrLru lru(10);
  lru.Put("a", 1, 4);
  lru.Put("b", 2, 4);
  // The old "a" leaves before room is made, so 4 + 6 fits and nothing
  // is evicted; the replacement is the most recent entry.
  lru.Put("a", 7, 6);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(lru.weight(), 10u);
  EXPECT_EQ(lru.evictions(), 0u);
  EXPECT_EQ(*lru.Get("a"), 7);
}

TEST(LruCacheTest, HitRefreshesRecencyButIterationDoesNot) {
  StrLru lru(2);
  lru.Put("a", 1, 1);
  lru.Put("b", 2, 1);
  ASSERT_NE(lru.Get("a"), nullptr);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"a", "b"}));
  lru.Put("c", 3, 1);  // "b" is now the least recent
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(lru.Get("b"), nullptr);
  EXPECT_EQ(LruKeys(lru), (std::vector<std::string>{"c", "a"}));
}

// Random Put/Get traffic against a plain recency-ordered vector: the
// contents, their order, the total weight and the eviction counter must
// agree after every operation. Replacements and Clear are not
// evictions.
TEST(LruCacheTest, EvictionCounterIsExactAgainstModel) {
  constexpr size_t kBudget = 20;
  LruCache<int, int> lru(kBudget);
  std::vector<std::pair<int, size_t>> model;  // (key, weight), MRU first
  uint64_t model_evictions = 0;
  Rng rng(4242);
  for (int op = 0; op < 5000; ++op) {
    const int key = static_cast<int>(rng.NextBounded(16));
    auto it = std::find_if(model.begin(), model.end(),
                           [&](const auto& e) { return e.first == key; });
    if (rng.NextBounded(3) == 0) {
      const int* got = lru.Get(key);
      ASSERT_EQ(got != nullptr, it != model.end());
      if (got != nullptr) {
        EXPECT_EQ(*got, key);
        std::rotate(model.begin(), it, it + 1);
      }
    } else if (op % 1000 == 999) {
      lru.Clear();
      model.clear();
    } else {
      const size_t weight = 1 + rng.NextBounded(kBudget + 2);
      const bool stored = lru.Put(key, key, weight) != nullptr;
      ASSERT_EQ(stored, weight <= kBudget);
      if (stored) {
        if (it != model.end()) model.erase(it);
        size_t total = 0;
        for (const auto& e : model) total += e.second;
        while (!model.empty() && total + weight > kBudget) {
          total -= model.back().second;
          model.pop_back();
          ++model_evictions;
        }
        model.insert(model.begin(), {key, weight});
      }
    }
    std::vector<std::pair<int, size_t>> got;
    size_t total = 0;
    for (const auto& node : lru) {
      got.emplace_back(node.key, node.weight);
      total += node.weight;
    }
    ASSERT_EQ(got, model) << "op " << op;
    ASSERT_EQ(lru.weight(), total);
    ASSERT_LE(lru.weight(), kBudget);
    ASSERT_EQ(lru.evictions(), model_evictions);
  }
  EXPECT_GT(model_evictions, 100u);  // the budget was actually contended
}

// RAII guard restoring the runtime kernel dispatch (so a failing test
// can't leave a forced kernel behind for later tests).
struct KernelGuard {
  ~KernelGuard() { SetIntersectKernel(IntersectKernel::kAuto); }
};

// Every intersection kernel — the branch-free scalar, SSE and AVX2 —
// must agree with the plain two-cursor reference on adversarial shapes:
// sizes straddling the SIMD block widths (4 and 8) and their
// remainders, dense/sparse universes, subsets, equal inputs.
// Kernels an old CPU lacks are skipped (SetIntersectKernel refuses).
TEST(IntersectKernelTest, ForcedKernelsMatchScalarReference) {
  KernelGuard guard;
  Rng rng(20240805);
  auto random_set = [&](size_t n, uint32_t universe) {
    std::vector<uint32_t> v;
    for (size_t i = 0; i < n; ++i) v.push_back(rng.NextBounded(universe));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  const size_t sizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 200};
  const IntersectKernel kernels[] = {
      IntersectKernel::kScalar, IntersectKernel::kSse,
      IntersectKernel::kAvx2};
  for (IntersectKernel k : kernels) {
    if (!SetIntersectKernel(k)) {
      continue;  // ISA not available on this host
    }
    SCOPED_TRACE(IntersectKernelName(k));
    for (size_t na : sizes) {
      for (size_t nb : sizes) {
        for (int dense = 0; dense < 2; ++dense) {
          uint32_t universe =
              dense ? static_cast<uint32_t>(na + nb + 1) * 2 : 1u << 30;
          std::vector<uint32_t> a = random_set(na, universe);
          std::vector<uint32_t> b = random_set(nb, universe);
          std::vector<uint32_t> expect = ScalarIntersect(a, b);
          EXPECT_EQ(IntersectsU32(a.data(), a.size(), b.data(), b.size()),
                    !expect.empty())
              << "na=" << a.size() << " nb=" << b.size();
          std::vector<uint32_t> got(std::min(a.size(), b.size()) +
                                    kIntersectPad);
          got.resize(
              IntersectU32(a.data(), a.size(), b.data(), b.size(),
                           got.data()));
          EXPECT_EQ(got, expect) << "na=" << a.size() << " nb=" << b.size();
          // Aliased input: intersect with itself is identity.
          got.assign(a.size() + kIntersectPad, 0);
          got.resize(
              IntersectU32(a.data(), a.size(), a.data(), a.size(),
                           got.data()));
          EXPECT_EQ(got, a);
        }
      }
    }
  }
}

// Single-element overlap at every alignment within the SIMD blocks: the
// match can sit in any lane of any block-pair combination.
TEST(IntersectKernelTest, SingleMatchEveryLane) {
  KernelGuard guard;
  const IntersectKernel kernels[] = {
      IntersectKernel::kScalar, IntersectKernel::kSse,
      IntersectKernel::kAvx2};
  for (IntersectKernel k : kernels) {
    if (!SetIntersectKernel(k)) continue;
    SCOPED_TRACE(IntersectKernelName(k));
    for (size_t n = 1; n <= 24; ++n) {
      for (size_t pa = 0; pa < n; ++pa) {
        for (size_t pb = 0; pb < n; ++pb) {
          // a = evens, b = odds — disjoint — except one planted match.
          std::vector<uint32_t> a, b;
          for (size_t i = 0; i < n; ++i) a.push_back(2 * i);
          for (size_t i = 0; i < n; ++i) b.push_back(2 * i + 1);
          uint32_t match = a[pa];
          b[pb] = match;
          std::sort(b.begin(), b.end());
          b.erase(std::unique(b.begin(), b.end()), b.end());
          EXPECT_TRUE(IntersectsU32(a.data(), a.size(), b.data(), b.size()))
              << "n=" << n << " pa=" << pa << " pb=" << pb;
          std::vector<uint32_t> got(std::min(a.size(), b.size()) +
                                    kIntersectPad);
          got.resize(IntersectU32(a.data(), a.size(), b.data(), b.size(),
                                  got.data()));
          EXPECT_EQ(got, std::vector<uint32_t>{match});
        }
      }
    }
  }
}

// The kernel switch itself: forcing reports the active kernel, kAuto
// restores hardware dispatch.
TEST(IntersectKernelTest, ForceAndRestore) {
  KernelGuard guard;
  const IntersectKernel detected = ActiveIntersectKernel();
  EXPECT_NE(detected, IntersectKernel::kAuto);
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kScalar));
  EXPECT_EQ(ActiveIntersectKernel(), IntersectKernel::kScalar);
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kAuto));
  EXPECT_EQ(ActiveIntersectKernel(), detected);
}

// The high-level SortedIntersects/SortedIntersectInto entry points ride
// the dispatched kernels for uint32 and must agree with the scalar
// reference under every forced kernel (this is the path the reachability
// probes and the HPSJ filter take).
TEST(IntersectKernelTest, SortedVectorEntryPointsUnderForcedKernels) {
  KernelGuard guard;
  Rng rng(5150);
  auto random_set = [&](size_t n, uint32_t universe) {
    std::vector<uint32_t> v;
    for (size_t i = 0; i < n; ++i) v.push_back(rng.NextBounded(universe));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  const IntersectKernel kernels[] = {
      IntersectKernel::kScalar, IntersectKernel::kSse,
      IntersectKernel::kAvx2};
  for (IntersectKernel k : kernels) {
    if (!SetIntersectKernel(k)) continue;
    SCOPED_TRACE(IntersectKernelName(k));
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<uint32_t> a = random_set(rng.NextBounded(300), 500);
      std::vector<uint32_t> b = random_set(rng.NextBounded(300), 500);
      EXPECT_EQ(SortedIntersects(a, b), ScalarIntersects(a, b));
      std::vector<uint32_t> out;
      SortedIntersectInto(a, b, &out);
      EXPECT_EQ(out, ScalarIntersect(a, b));
    }
  }
}

// ---- k-way intersection primitive (WCOJ binds) ---------------------------

// Owns a sorted set plus its optional chunked-bitmap sidecar so the
// SortedSetView's borrowed pointers stay valid.
struct OwnedSet {
  std::vector<uint32_t> data;
  std::vector<uint32_t> chunk_ids;
  std::vector<uint64_t> words;
  bool with_bitmap = false;

  explicit OwnedSet(std::vector<uint32_t> d, bool bitmap = false)
      : data(std::move(d)), with_bitmap(bitmap) {
    if (with_bitmap) {
      BuildChunkedBitmap(data.data(), data.size(), &chunk_ids, &words);
    }
  }
  SortedSetView View() const {
    SortedSetView v;
    v.data = data.data();
    v.size = data.size();
    if (with_bitmap) {
      v.chunk_ids = chunk_ids.data();
      v.chunk_words = words.data();
      v.num_chunks = chunk_ids.size();
    }
    return v;
  }
};

std::vector<uint32_t> KWayOracle(const std::vector<OwnedSet>& sets) {
  std::vector<uint32_t> acc = sets[0].data;
  for (size_t i = 1; i < sets.size(); ++i) acc = ScalarIntersect(acc, sets[i].data);
  return acc;
}

std::vector<uint32_t> RunKWay(const std::vector<OwnedSet>& sets,
                              KWayStats* stats = nullptr) {
  std::vector<SortedSetView> views;
  size_t smallest = ~size_t{0};
  for (const OwnedSet& s : sets) {
    views.push_back(s.View());
    smallest = std::min(smallest, s.data.size());
  }
  std::vector<uint32_t> out(smallest + kIntersectPad);
  std::vector<uint32_t> tmp(smallest + kIntersectPad);
  size_t n =
      IntersectKWayU32(views.data(), views.size(), out.data(), tmp.data(), stats);
  out.resize(n);
  return out;
}

TEST(KWayIntersectTest, RandomizedDifferentialVsOracle) {
  Rng rng(20260808);
  for (int iter = 0; iter < 400; ++iter) {
    size_t k = 2 + rng.NextBounded(5);  // k in {2..6}
    uint32_t universe = 1 + rng.NextBounded(2000);
    std::vector<OwnedSet> sets;
    for (size_t i = 0; i < k; ++i) {
      size_t n = rng.NextBounded(600);
      std::vector<uint32_t> v;
      for (size_t j = 0; j < n; ++j) v.push_back(rng.NextBounded(universe));
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      // Mix bitmap-backed and plain sets to hit all three pruning modes
      // (membership, galloping, SIMD merge) within one intersection.
      sets.emplace_back(std::move(v), rng.NextBounded(2) == 0);
    }
    EXPECT_EQ(RunKWay(sets), KWayOracle(sets)) << "iter " << iter;
  }
}

TEST(KWayIntersectTest, EmptySetShortCircuits) {
  KWayStats stats;
  std::vector<OwnedSet> sets;
  sets.emplace_back(std::vector<uint32_t>{1, 2, 3});
  sets.emplace_back(std::vector<uint32_t>{});
  sets.emplace_back(std::vector<uint32_t>{2, 3, 4});
  EXPECT_TRUE(RunKWay(sets, &stats).empty());
  // The empty set sorts first: no candidate is ever probed.
  EXPECT_EQ(stats.probes, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(KWayIntersectTest, SingleSetCopies) {
  std::vector<OwnedSet> sets;
  sets.emplace_back(std::vector<uint32_t>{5, 9, 100});
  EXPECT_EQ(RunKWay(sets), (std::vector<uint32_t>{5, 9, 100}));
}

TEST(KWayIntersectTest, BitmapChunkBoundaries) {
  // Values straddling the 256-value chunk granularity and the 64-bit
  // word granularity inside a chunk.
  std::vector<uint32_t> big;
  for (uint32_t v : {0u, 63u, 64u, 127u, 128u, 191u, 192u, 255u, 256u, 511u,
                     512u, 65535u, 65536u, 0xffffff00u, 0xffffffffu}) {
    big.push_back(v);
  }
  std::vector<OwnedSet> sets;
  sets.emplace_back(std::vector<uint32_t>{0, 64, 255, 256, 512, 65536,
                                          0xffffff00u, 0xffffffffu});
  sets.emplace_back(big, /*bitmap=*/true);
  EXPECT_EQ(RunKWay(sets),
            (std::vector<uint32_t>{0, 64, 255, 256, 512, 65536, 0xffffff00u,
                                   0xffffffffu}));
  // Near-misses around chunk boundaries must not leak through.
  std::vector<OwnedSet> miss;
  miss.emplace_back(std::vector<uint32_t>{1, 62, 65, 254, 257, 65537});
  miss.emplace_back(big, /*bitmap=*/true);
  EXPECT_TRUE(RunKWay(miss).empty());
}

TEST(KWayIntersectTest, BitmapOnTinySetMatchesPlain) {
  // A sidecar on a set smaller than the 2x membership threshold must
  // not change the result (the kernel just chooses another mode).
  Rng rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<uint32_t> a, b;
    for (size_t j = 0; j < 1 + rng.NextBounded(4); ++j)
      a.push_back(rng.NextBounded(300));
    for (size_t j = 0; j < 1 + rng.NextBounded(4); ++j)
      b.push_back(rng.NextBounded(300));
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    std::vector<OwnedSet> plain, mapped;
    plain.emplace_back(a);
    plain.emplace_back(b);
    mapped.emplace_back(a, true);
    mapped.emplace_back(b, true);
    EXPECT_EQ(RunKWay(plain), RunKWay(mapped));
  }
}

TEST(KWayIntersectTest, GallopRatioBoundary) {
  // Sizes on both sides of the kGallopRatio * (n + 1) switch between
  // galloping and the SIMD merge.
  Rng rng(31337);
  for (size_t small : {1ul, 2ul, 4ul}) {
    for (size_t factor : {15ul, 16ul, 17ul, 64ul}) {
      std::vector<uint32_t> a, b;
      for (size_t j = 0; j < small; ++j) a.push_back(rng.NextBounded(100000));
      for (size_t j = 0; j < small * factor + 1; ++j)
        b.push_back(rng.NextBounded(100000));
      b.insert(b.end(), a.begin(), a.end());  // force overlap
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      std::sort(b.begin(), b.end());
      b.erase(std::unique(b.begin(), b.end()), b.end());
      std::vector<OwnedSet> sets;
      sets.emplace_back(a);
      sets.emplace_back(b);
      EXPECT_EQ(RunKWay(sets), ScalarIntersect(a, b));
    }
  }
}

TEST(KWayIntersectTest, StatsCountProbesAndHits) {
  KWayStats stats;
  std::vector<OwnedSet> sets;
  sets.emplace_back(std::vector<uint32_t>{1, 2, 3, 4});       // driver
  sets.emplace_back(std::vector<uint32_t>{2, 3, 4, 5, 6});    // survives 3
  sets.emplace_back(std::vector<uint32_t>{3, 4, 7, 8, 9, 10});
  EXPECT_EQ(RunKWay(sets, &stats), (std::vector<uint32_t>{3, 4}));
  // Stage 1 probes the 4 driver values, stage 2 the 3 survivors.
  EXPECT_EQ(stats.probes, 7u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(KWayIntersectTest, ForcedKernelDifferential) {
  const IntersectKernel kernels[] = {
      IntersectKernel::kScalar, IntersectKernel::kSse,
      IntersectKernel::kAvx2};
  Rng rng(606);
  std::vector<std::vector<OwnedSet>> cases;
  std::vector<std::vector<uint32_t>> expected;
  for (int iter = 0; iter < 40; ++iter) {
    size_t k = 2 + rng.NextBounded(4);
    std::vector<OwnedSet> sets;
    for (size_t i = 0; i < k; ++i) {
      std::vector<uint32_t> v;
      for (size_t j = 0; j < rng.NextBounded(400); ++j)
        v.push_back(rng.NextBounded(700));
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      sets.emplace_back(std::move(v), i % 2 == 1);
    }
    expected.push_back(KWayOracle(sets));
    cases.push_back(std::move(sets));
  }
  for (IntersectKernel k : kernels) {
    if (!SetIntersectKernel(k)) continue;
    SCOPED_TRACE(IntersectKernelName(k));
    for (size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(RunKWay(cases[i]), expected[i]) << "case " << i;
    }
  }
  SetIntersectKernel(IntersectKernel::kAuto);
}

}  // namespace
}  // namespace fgpm
