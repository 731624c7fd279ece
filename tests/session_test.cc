#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/local_mm.h"
#include "core/session.h"

namespace distme::core {
namespace {

Session::Options TestOptions() {
  Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  // Small matrices rarely satisfy the parallelism pruning; relax it.
  options.planner = std::make_shared<DistmePlanner>(
      mm::OptimizerOptions{.enforce_parallelism = false});
  return options;
}

GeneratorOptions Gen(int64_t rows, int64_t cols, double sparsity,
                     uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = 8;
  g.sparsity = sparsity;
  g.seed = seed;
  return g;
}

TEST(SessionTest, GenerateAndCollect) {
  Session session(TestOptions());
  auto m = session.Generate(Gen(30, 20, 1.0, 1));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 30);
  EXPECT_EQ(m->cols(), 20);
  // Generation matches the local generator exactly.
  BlockGrid expected = GenerateUniform(Gen(30, 20, 1.0, 1));
  EXPECT_TRUE(DenseMatrix::ApproxEquals(m->Collect().ToDense(),
                                        expected.ToDense(), 0.0));
}

TEST(SessionTest, MultiplyMatchesReference) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(32, 24, 1.0, 2));
  auto b = session.Generate(Gen(24, 16, 1.0, 3));
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = session.Multiply(*a, *b);
  ASSERT_TRUE(c.ok());
  DenseMatrix expected =
      blas::Multiply(a->Collect().ToDense(), b->Collect().ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c->Collect().ToDense(), expected), 1e-9);
  // A report was recorded, and the planner chose a cuboid method.
  ASSERT_EQ(session.history().size(), 1u);
  EXPECT_TRUE(session.history()[0].outcome.ok());
  EXPECT_NE(session.history()[0].method_name.find("CuboidMM"),
            std::string::npos);
}

TEST(SessionTest, TransposeCorrect) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(20, 36, 0.5, 4));
  ASSERT_TRUE(a.ok());
  auto t = session.Transpose(*a);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->rows(), 36);
  EXPECT_EQ(t->cols(), 20);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(t->Collect().ToDense(),
                                    a->Collect().ToDense().Transpose()),
            1e-15);
}

TEST(SessionTest, ElementWiseOps) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(16, 16, 1.0, 5));
  auto b = session.Generate(Gen(16, 16, 1.0, 6));
  ASSERT_TRUE(a.ok() && b.ok());
  auto sum = session.ElementWise(blas::ElementWiseOp::kAdd, *a, *b);
  ASSERT_TRUE(sum.ok());
  DenseMatrix da = a->Collect().ToDense();
  DenseMatrix db = b->Collect().ToDense();
  DenseMatrix ds = sum->Collect().ToDense();
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t c = 0; c < 16; ++c) {
      EXPECT_NEAR(ds.At(r, c), da.At(r, c) + db.At(r, c), 1e-12);
    }
  }
}

TEST(SessionTest, ElementWiseShapeMismatchRejected) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(16, 16, 1.0, 7));
  auto b = session.Generate(Gen(16, 8, 1.0, 8));
  EXPECT_FALSE(session.ElementWise(blas::ElementWiseOp::kAdd, *a, *b).ok());
}

TEST(SessionTest, ScaleMultipliesEveryElement) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(12, 12, 0.5, 9));
  ASSERT_TRUE(a.ok());
  auto scaled = session.Scale(*a, 2.5);
  ASSERT_TRUE(scaled.ok());
  DenseMatrix da = a->Collect().ToDense();
  DenseMatrix ds = scaled->Collect().ToDense();
  for (int64_t r = 0; r < 12; ++r) {
    for (int64_t c = 0; c < 12; ++c) {
      EXPECT_NEAR(ds.At(r, c), 2.5 * da.At(r, c), 1e-12);
    }
  }
}

TEST(SessionTest, ChainedExpression) {
  // (A × B)ᵀ ∘ C — a small pipeline through the public API.
  Session session(TestOptions());
  auto a = session.Generate(Gen(16, 24, 1.0, 10));
  auto b = session.Generate(Gen(24, 16, 1.0, 11));
  auto ab = session.Multiply(*a, *b);
  ASSERT_TRUE(ab.ok());
  auto abt = session.Transpose(*ab);
  ASSERT_TRUE(abt.ok());
  auto c = session.Generate(Gen(16, 16, 1.0, 12));
  auto result = session.ElementWise(blas::ElementWiseOp::kMul, *abt, *c);
  ASSERT_TRUE(result.ok());
  DenseMatrix expected = blas::Multiply(a->Collect().ToDense(),
                                        b->Collect().ToDense())
                             .Transpose();
  DenseMatrix dc = c->Collect().ToDense();
  DenseMatrix got = result->Collect().ToDense();
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t col = 0; col < 16; ++col) {
      EXPECT_NEAR(got.At(r, col), expected.At(r, col) * dc.At(r, col), 1e-9);
    }
  }
}

TEST(SessionTest, FromGridRoundTrip) {
  Session session(TestOptions());
  BlockGrid grid = GenerateUniform(Gen(20, 20, 0.3, 13));
  auto m = session.FromGrid(grid);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(DenseMatrix::ApproxEquals(m->Collect().ToDense(),
                                        grid.ToDense(), 0.0));
}

TEST(SessionTest, MultiplyWithExplicitMethod) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(24, 24, 1.0, 14));
  auto b = session.Generate(Gen(24, 24, 1.0, 15));
  mm::RmmMethod rmm;
  auto c = session.MultiplyWith(*a, *b, rmm);
  ASSERT_TRUE(c.ok());
  DenseMatrix expected =
      blas::Multiply(a->Collect().ToDense(), b->Collect().ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c->Collect().ToDense(), expected), 1e-9);
  EXPECT_EQ(session.history().back().method_name, "RMM");
}

// The same matrix, bit for bit: the same blocks at the same indices, in the
// same formats, with the same value bits.
void ExpectSameBits(const Matrix& got, const Matrix& want) {
  const std::vector<engine::StoredBlock> g = got.distributed().Blocks();
  const std::vector<engine::StoredBlock> w = want.distributed().Blocks();
  ASSERT_EQ(g.size(), w.size());
  for (size_t k = 0; k < g.size(); ++k) {
    ASSERT_TRUE(g[k].index == w[k].index);
    EXPECT_EQ(g[k].block.IsDense(), w[k].block.IsDense());
    const DenseMatrix gd = g[k].block.ToDense();
    const DenseMatrix wd = w[k].block.ToDense();
    EXPECT_EQ(std::memcmp(gd.data(), wd.data(),
                          static_cast<size_t>(wd.SizeBytes())),
              0)
        << "block (" << g[k].index.i << ", " << g[k].index.j << ")";
  }
}

// The map-side ops run on min(total_slots, #blocks) threads; their outputs
// must not depend on how many. Covers every element-wise op, the second
// pass over blocks present only in B, and A ∘ A.
TEST(SessionMapSideTest, OutputsAreBitwiseEqualAcrossClusters) {
  using Op = blas::ElementWiseOp;
  std::vector<std::vector<Matrix>> outputs;
  for (const ClusterConfig& cluster :
       {ClusterConfig::Local(1, 1), ClusterConfig::Local(2, 2),
        ClusterConfig::Local(4, 2)}) {
    Session::Options options = TestOptions();
    options.cluster = cluster;
    Session session(options);
    // Every third block of A is missing and a different third of B's, so
    // each operand has blocks the other lacks.
    auto sparse_a = session.Generate(Gen(80, 72, 0.05, 31));
    auto sparse_b = session.Generate(Gen(80, 72, 0.05, 32));
    auto d = session.Generate(Gen(80, 72, 1.0, 33));
    ASSERT_TRUE(sparse_a.ok() && sparse_b.ok() && d.ok());
    auto drop = [&](const Matrix& m, int64_t residue) {
      BlockGrid grid(m.shape());
      for (const engine::StoredBlock& in : m.distributed().Blocks()) {
        if ((in.index.i + in.index.j) % 3 == residue) continue;
        EXPECT_TRUE(grid.Put(in.index, in.block).ok());
      }
      return session.FromGrid(grid);
    };
    auto a = drop(*sparse_a, 0);
    auto b = drop(*sparse_b, 1);
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<Matrix> out = {*sparse_a, *sparse_b, *d};
    auto keep = [&out](Result<Matrix> m) {
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      out.push_back(*m);
    };
    keep(session.Transpose(*a));
    keep(session.Transpose(*d));
    keep(session.Scale(*a, -1.5));
    keep(session.Scale(*d, 0.25));
    size_t a_minus_b = 0;
    for (Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
      if (op == Op::kSub) a_minus_b = out.size();
      keep(session.ElementWise(op, *a, *b, 1e-3));
      keep(session.ElementWise(op, *a, *a, 1e-3));
      keep(session.ElementWise(op, *d, *a, 1e-3));
    }
    // A − B: the second pass must cover B's blocks that A lacks.
    DenseMatrix want_sub = a->Collect().ToDense();
    const DenseMatrix db = b->Collect().ToDense();
    for (int64_t e = 0; e < want_sub.num_elements(); ++e) {
      want_sub.mutable_data()[e] -= db.data()[e];
    }
    EXPECT_TRUE(DenseMatrix::ApproxEquals(out[a_minus_b].Collect().ToDense(),
                                          want_sub, 0.0));
    EXPECT_EQ(out[a_minus_b].distributed().num_blocks(), 90);  // A's ∪ B's
    outputs.push_back(std::move(out));
  }
  for (size_t c = 1; c < outputs.size(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    ASSERT_EQ(outputs[c].size(), outputs[0].size());
    for (size_t m = 0; m < outputs[c].size(); ++m) {
      SCOPED_TRACE("output " + std::to_string(m));
      ExpectSameBits(outputs[c][m], outputs[0][m]);
    }
  }
}

// Every Multiply reads each operand's descriptor; it is cached, so it must
// still equal an uncached scan of the blocks after each kind of op.
TEST(SessionMapSideTest, DescriptorMatchesFullScan) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(40, 32, 0.3, 41));
  auto b = session.Generate(Gen(40, 32, 0.05, 42));
  ASSERT_TRUE(a.ok() && b.ok());
  auto t = session.Transpose(*b);
  auto e = session.ElementWise(blas::ElementWiseOp::kAdd, *a, *b);
  ASSERT_TRUE(t.ok() && e.ok());
  auto c = session.Multiply(*a, *t);
  ASSERT_TRUE(c.ok());
  for (const Matrix* m : {&*a, &*b, &*t, &*e, &*c}) {
    const mm::MatrixDescriptor cached = m->Descriptor();
    const mm::MatrixDescriptor scan = mm::MatrixDescriptor::FromGrid(
        m->Collect());
    EXPECT_EQ(cached.shape, scan.shape);
    EXPECT_EQ(cached.sparsity, scan.sparsity);
    EXPECT_EQ(cached.stored_dense, scan.stored_dense);
  }
}

}  // namespace
}  // namespace distme::core

namespace distme::core {
namespace {

// Sum, FrobeniusNorm and RowSums combine in ascending block index, so their
// bits depend on the contents only: not on the order blocks were put in.
TEST(SessionReductionsTest, BitsAreIndependentOfPutOrder) {
  Session session(TestOptions());
  const BlockedShape shape{64, 56, 8};
  std::vector<std::pair<BlockIndex, Block>> blocks;
  Rng rng(51);
  for (int64_t i = 0; i < shape.block_rows(); ++i) {
    for (int64_t j = 0; j < shape.block_cols(); ++j) {
      blocks.emplace_back(BlockIndex{i, j},
                          Block::Dense(DenseMatrix::Random(8, 8, &rng, -1e6,
                                                           1e6)));
    }
  }
  BlockGrid forward(shape);
  BlockGrid backward(shape);
  for (size_t k = 0; k < blocks.size(); ++k) {
    ASSERT_TRUE(forward.Put(blocks[k].first, blocks[k].second).ok());
    const auto& [idx, block] = blocks[blocks.size() - 1 - k];
    ASSERT_TRUE(backward.Put(idx, block).ok());
  }
  auto f = session.FromGrid(forward);
  auto b = session.FromGrid(backward);
  ASSERT_TRUE(f.ok() && b.ok());
  EXPECT_EQ(*session.Sum(*f), *session.Sum(*b));
  EXPECT_EQ(*session.FrobeniusNorm(*f), *session.FrobeniusNorm(*b));
  auto fr = session.RowSums(*f);
  auto br = session.RowSums(*b);
  ASSERT_TRUE(fr.ok() && br.ok());
  ExpectSameBits(*fr, *br);
}

// A product's Sum is the same on 1, 4 and 8 slots and at prefetch depth 0
// and 2 (the method is pinned, so the product's bits are too).
TEST(SessionReductionsTest, SumOfProductIsClusterAndDepthIndependent) {
  std::vector<double> sums;
  std::vector<double> norms;
  for (const ClusterConfig& cluster :
       {ClusterConfig::Local(1, 1), ClusterConfig::Local(2, 2),
        ClusterConfig::Local(4, 2)}) {
    for (int depth : {0, 2}) {
      Session::Options options = TestOptions();
      options.cluster = cluster;
      options.real.prefetch_depth = depth;
      Session session(options);
      auto a = session.Generate(Gen(64, 96, 0.6, 52));
      auto b = session.Generate(Gen(96, 48, 0.6, 53));
      ASSERT_TRUE(a.ok() && b.ok());
      auto c = session.MultiplyWith(*a, *b, mm::CpmmMethod(4));
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      auto sum = session.Sum(*c);
      auto norm = session.FrobeniusNorm(*c);
      ASSERT_TRUE(sum.ok() && norm.ok());
      sums.push_back(*sum);
      norms.push_back(*norm);
    }
  }
  for (size_t k = 1; k < sums.size(); ++k) {
    EXPECT_EQ(sums[k], sums[0]) << "run " << k;
    EXPECT_EQ(norms[k], norms[0]) << "run " << k;
  }
}

TEST(SessionReductionsTest, RowAndColSums) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(24, 20, 0.5, 20));
  ASSERT_TRUE(a.ok());
  const DenseMatrix da = a->Collect().ToDense();

  auto rows = session.RowSums(*a);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows(), 24);
  EXPECT_EQ(rows->cols(), 1);
  const DenseMatrix dr = rows->Collect().ToDense();
  for (int64_t r = 0; r < 24; ++r) {
    double expected = 0;
    for (int64_t c = 0; c < 20; ++c) expected += da.At(r, c);
    EXPECT_NEAR(dr.At(r, 0), expected, 1e-10);
  }

  auto cols = session.ColSums(*a);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->rows(), 1);
  EXPECT_EQ(cols->cols(), 20);
  const DenseMatrix dc = cols->Collect().ToDense();
  for (int64_t c = 0; c < 20; ++c) {
    double expected = 0;
    for (int64_t r = 0; r < 24; ++r) expected += da.At(r, c);
    EXPECT_NEAR(dc.At(0, c), expected, 1e-10);
  }
}

TEST(SessionReductionsTest, SumAndFrobenius) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(16, 16, 0.3, 21));
  ASSERT_TRUE(a.ok());
  const DenseMatrix da = a->Collect().ToDense();
  double expected_sum = 0;
  double expected_sq = 0;
  for (int64_t i = 0; i < da.num_elements(); ++i) {
    expected_sum += da.data()[i];
    expected_sq += da.data()[i] * da.data()[i];
  }
  auto sum = session.Sum(*a);
  auto norm = session.FrobeniusNorm(*a);
  ASSERT_TRUE(sum.ok() && norm.ok());
  EXPECT_NEAR(*sum, expected_sum, 1e-9);
  EXPECT_NEAR(*norm, std::sqrt(expected_sq), 1e-9);
}

TEST(SessionReductionsTest, RowSumsOfMatrixVectorProduct) {
  // RowSums(A) == A × ones, a cheap cross-check of two code paths.
  Session session(TestOptions());
  auto a = session.Generate(Gen(24, 16, 1.0, 22));
  ASSERT_TRUE(a.ok());
  BlockGrid ones_grid(BlockedShape{16, 1, 8});
  for (int64_t bi = 0; bi < ones_grid.block_rows(); ++bi) {
    DenseMatrix block(ones_grid.shape().BlockRowsAt(bi), 1);
    block.Fill(1.0);
    ASSERT_TRUE(ones_grid.Put({bi, 0}, Block::Dense(std::move(block))).ok());
  }
  auto ones = session.FromGrid(ones_grid);
  ASSERT_TRUE(ones.ok());
  auto product = session.Multiply(*a, *ones);
  auto sums = session.RowSums(*a);
  ASSERT_TRUE(product.ok() && sums.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(product->Collect().ToDense(),
                                    sums->Collect().ToDense()),
            1e-9);
}

}  // namespace
}  // namespace distme::core

namespace distme::core {
namespace {

TEST(SessionCheckpointTest, SaveLoadRoundTrip) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(28, 36, 0.4, 30));
  ASSERT_TRUE(a.ok());
  const std::string path = testing::TempDir() + "/checkpoint.dmx";
  ASSERT_TRUE(session.Save(*a, path).ok());
  auto restored = session.Load(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(DenseMatrix::ApproxEquals(restored->Collect().ToDense(),
                                        a->Collect().ToDense(), 0.0));
  std::remove(path.c_str());
}

TEST(SessionCheckpointTest, LoadMissingFails) {
  Session session(TestOptions());
  EXPECT_FALSE(session.Load("/nonexistent/checkpoint.dmx").ok());
}

TEST(SessionCheckpointTest, ComputeOnLoadedMatrix) {
  Session session(TestOptions());
  auto a = session.Generate(Gen(24, 24, 1.0, 31));
  auto b = session.Generate(Gen(24, 24, 1.0, 32));
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string path = testing::TempDir() + "/operand.dmx";
  ASSERT_TRUE(session.Save(*a, path).ok());
  auto loaded = session.Load(path);
  ASSERT_TRUE(loaded.ok());
  auto c1 = session.Multiply(*a, *b);
  auto c2 = session.Multiply(*loaded, *b);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c1->Collect().ToDense(),
                                    c2->Collect().ToDense()),
            1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace distme::core
