// Persistence: a saved database reopened from disk must answer exactly
// like the in-memory original, across every component.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/serialize.h"
#include "exec/engine.h"
#include "exec/naive_matcher.h"
#include "gdb/database.h"
#include "graph/generators.h"
#include "opt/dps_optimizer.h"

namespace fgpm {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, PrimitivesRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(&ss);
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.F64(3.25);
  w.Str("hello world");
  w.VecU32(std::vector<uint32_t>{1, 2, 3});
  w.VecU64({9, 8});
  ASSERT_TRUE(w.ok());

  BinaryReader r(&ss);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::string s;
  std::vector<uint32_t> v32;
  std::vector<uint64_t> v64;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  ASSERT_TRUE(r.VecU32(&v32).ok());
  ASSERT_TRUE(r.VecU64(&v64).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_EQ(s, "hello world");
  EXPECT_EQ(v32, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(v64, (std::vector<uint64_t>{9, 8}));
}

TEST(SerializeTest, TruncationDetected) {
  std::stringstream ss;
  BinaryWriter w(&ss);
  w.U32(5);
  BinaryReader r(&ss);
  uint64_t v = 0;
  EXPECT_EQ(r.U64(&v).code(), StatusCode::kCorruption);
}

TEST(PersistTest, SaveRequiresBuiltDatabase) {
  GraphDatabase db;
  EXPECT_EQ(db.Save(TempPath("unbuilt.fgpm")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistTest, OpenMissingFileIsNotFound) {
  EXPECT_EQ(GraphDatabase::Open("/no/such/db.fgpm").status().code(),
            StatusCode::kNotFound);
}

TEST(PersistTest, OpenRejectsGarbage) {
  std::string path = TempPath("garbage.fgpm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a database at all, not even close.............";
  }
  auto db = GraphDatabase::Open(path);
  EXPECT_FALSE(db.ok());
  std::remove(path.c_str());
}

TEST(PersistTest, ReopenedDatabaseAnswersIdentically) {
  Graph g = gen::ErdosRenyi(300, 900, 4, 55);
  GraphDatabase original;
  ASSERT_TRUE(original.Build(g).ok());

  std::string path = TempPath("roundtrip.fgpm");
  ASSERT_TRUE(original.Save(path).ok());
  auto reopened = GraphDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();

  // Catalog identical.
  const Catalog& a = original.catalog();
  const Catalog& b = (*reopened)->catalog();
  ASSERT_EQ(a.num_labels(), b.num_labels());
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  for (LabelId x = 0; x < a.num_labels(); ++x) {
    EXPECT_EQ(a.LabelName(x), b.LabelName(x));
    EXPECT_EQ(a.ExtentSize(x), b.ExtentSize(x));
    for (LabelId y = 0; y < a.num_labels(); ++y) {
      EXPECT_EQ(a.Stats(x, y).est_pairs, b.Stats(x, y).est_pairs);
      EXPECT_EQ(a.Stats(x, y).num_centers, b.Stats(x, y).num_centers);
    }
  }

  // Base tables identical.
  for (LabelId l = 0; l < a.num_labels(); ++l) {
    EXPECT_EQ(original.table(l).NumTuples(), (*reopened)->table(l).NumTuples());
    for (NodeId v : g.Extent(l)) {
      GraphCodeRecord ra, rb;
      ASSERT_TRUE(original.table(l).Get(v, &ra).ok());
      ASSERT_TRUE((*reopened)->table(l).Get(v, &rb).ok());
      EXPECT_EQ(ra.in, rb.in);
      EXPECT_EQ(ra.out, rb.out);
    }
  }

  // Labeling identical.
  EXPECT_EQ(original.labeling().CoverSize(), (*reopened)->labeling().CoverSize());
  for (NodeId v = 0; v < g.NumNodes(); v += 13) {
    for (NodeId u = 0; u < g.NumNodes(); u += 17) {
      EXPECT_EQ(original.labeling().Reaches(u, v),
                (*reopened)->labeling().Reaches(u, v));
    }
  }

  // Queries through the executor give the same rows.
  Executor exec_a(&original), exec_b(reopened->get());
  auto p = Pattern::Parse("L0->L1; L1->L2");
  ASSERT_TRUE(p.ok());
  auto plan = OptimizeDps(*p, a);
  ASSERT_TRUE(plan.ok());
  auto res_a = exec_a.Execute(*p, *plan);
  auto res_b = exec_b.Execute(*p, *plan);
  ASSERT_TRUE(res_a.ok());
  ASSERT_TRUE(res_b.ok());
  res_a->SortRows();
  res_b->SortRows();
  EXPECT_EQ(res_a->rows, res_b->rows);
  EXPECT_FALSE(res_a->rows.empty());

  std::remove(path.c_str());
}

TEST(PersistTest, ReopenedMatchesNaiveOnXmark) {
  gen::XMarkOptions opts;
  opts.factor = 0.002;
  Graph g = gen::XMarkLike(opts);
  GraphDatabase original;
  ASSERT_TRUE(original.Build(g).ok());
  std::string path = TempPath("xmark.fgpm");
  ASSERT_TRUE(original.Save(path).ok());
  auto reopened = GraphDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());

  auto p = Pattern::Parse("region->item; item->incategory");
  ASSERT_TRUE(p.ok());
  auto plan = OptimizeDps(*p, (*reopened)->catalog());
  ASSERT_TRUE(plan.ok());
  Executor exec(reopened->get());
  auto got = exec.Execute(*p, *plan);
  ASSERT_TRUE(got.ok());
  auto want = NaiveMatch(g, *p);
  ASSERT_TRUE(want.ok());
  got->SortRows();
  want->SortRows();
  EXPECT_EQ(got->rows, want->rows);
  std::remove(path.c_str());
}

TEST(PersistTest, TruncatedDatabaseFileRejected) {
  Graph g = gen::ErdosRenyi(100, 300, 3, 57);
  GraphDatabase db;
  ASSERT_TRUE(db.Build(g).ok());
  std::string path = TempPath("trunc.fgpm");
  ASSERT_TRUE(db.Save(path).ok());
  // Truncate the file to half its size.
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string data = buf.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  auto reopened = GraphDatabase::Open(path);
  EXPECT_FALSE(reopened.ok());
  std::remove(path.c_str());
}

// DBV1 files stored a bitmap-sidecar threshold inside the labeling
// metadata; DBV2 does not, so a DBV1 file must be refused rather than
// misread.
TEST(PersistTest, OldFormatMagicRejected) {
  Graph g = gen::ErdosRenyi(100, 300, 3, 59);
  GraphDatabase db;
  ASSERT_TRUE(db.Build(g).ok());
  std::string path = TempPath("dbv1.fgpm");
  ASSERT_TRUE(db.Save(path).ok());
  {
    std::stringstream magic;
    BinaryWriter w(&magic);
    w.U64(0x4d504746'42445631ull);  // "FGPM" "DBV1"
    ASSERT_TRUE(w.ok());
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write(magic.str().data(), 8);
  }
  auto reopened = GraphDatabase::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PersistTest, BitFlipInSavedPageDetected) {
  Graph g = gen::ErdosRenyi(120, 360, 3, 61);
  GraphDatabase db;
  ASSERT_TRUE(db.Build(g).ok());
  std::string path = TempPath("bitflip.fgpm");
  ASSERT_TRUE(db.Save(path).ok());
  // Flip one byte inside the page region (well past the header).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 8 + kPageSize / 2);
    char b = 0;
    f.read(&b, 1);
    f.seekp(8 + 8 + kPageSize / 2);
    b = static_cast<char>(b ^ 0x5a);
    f.write(&b, 1);
  }
  auto reopened = GraphDatabase::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PersistTest, CorruptionInjectionHelper) {
  DiskManager disk;
  PageId id = disk.AllocatePage();
  Page before;
  ASSERT_TRUE(disk.ReadPage(id, &before).ok());
  ASSERT_TRUE(disk.CorruptPageForTesting(id, 100).ok());
  Page after;
  ASSERT_TRUE(disk.ReadPage(id, &after).ok());
  EXPECT_NE(before.Read<uint8_t>(100), after.Read<uint8_t>(100));
  EXPECT_EQ(disk.CorruptPageForTesting(id, kPageSize).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(disk.CorruptPageForTesting(99, 0).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace fgpm
