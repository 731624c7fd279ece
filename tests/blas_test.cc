#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "blas/block_ops.h"
#include "blas/gemm.h"
#include "blas/gemm_internal.h"
#include "blas/local_mm.h"
#include "blas/spmm.h"
#include "common/random.h"
#include "matrix/generator.h"

namespace distme::blas {

namespace internal {
// Names a variant in parameterized test output.
void PrintTo(const DgemmVariantInfo& v, std::ostream* os) { *os << v.isa; }
}  // namespace internal

namespace {

DenseMatrix RandomDense(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::Random(r, c, &rng, -1.0, 1.0);
}

CsrMatrix RandomSparse(int64_t r, int64_t c, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  const int64_t target = static_cast<int64_t>(density * r * c);
  for (int64_t i = 0; i < target; ++i) {
    triplets.push_back({static_cast<int64_t>(rng.NextBounded(r)),
                        static_cast<int64_t>(rng.NextBounded(c)),
                        rng.NextUniform(-1.0, 1.0)});
  }
  return *CsrMatrix::FromTriplets(r, c, triplets);
}

// ---- Tiled GEMM vs naive reference over a shape sweep. ----

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  DenseMatrix a = RandomDense(m, k, 1);
  DenseMatrix b = RandomDense(k, n, 2);
  DenseMatrix c_fast = RandomDense(m, n, 3);
  DenseMatrix c_ref = c_fast;  // same initial C for beta accumulation
  Dgemm(0.5, a, b, 0.25, &c_fast);
  DgemmReference(0.5, a, b, 0.25, &c_ref);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c_fast, c_ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(64, 64, 64), std::make_tuple(65, 63, 130),
                      std::make_tuple(128, 300, 70), std::make_tuple(1, 300, 1),
                      std::make_tuple(257, 1, 257)));

TEST(GemmTest, BetaZeroIgnoresGarbage) {
  DenseMatrix a = RandomDense(4, 4, 1);
  DenseMatrix b = RandomDense(4, 4, 2);
  DenseMatrix c(4, 4);
  c.Fill(std::numeric_limits<double>::quiet_NaN());
  Dgemm(1.0, a, b, 0.0, &c);
  // beta = 0 must overwrite, not multiply, so no NaN survives.
  EXPECT_FALSE(std::isnan(c.At(0, 0)));
}

TEST(GemmTest, AlphaZeroLeavesBetaScaledC) {
  DenseMatrix a = RandomDense(3, 3, 4);
  DenseMatrix b = RandomDense(3, 3, 5);
  DenseMatrix c(3, 3);
  c.Fill(2.0);
  Dgemm(0.0, a, b, 0.5, &c);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 1.0);
}

TEST(GemmTest, IdentityIsNeutral) {
  DenseMatrix a = RandomDense(9, 9, 6);
  DenseMatrix c = Multiply(a, DenseMatrix::Identity(9));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(a, c), 1e-12);
}

// ---- Every ISA variant vs the i-k-j loop Dgemm ran before packing. ----

// The seed kernel, kept here as the bitwise reference for the packed one.
void SeedDgemm(double alpha, const DenseMatrix& a, const DenseMatrix& b,
               double beta, DenseMatrix* c) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  double* pc = c->mutable_data();
  if (beta != 1.0) {
    if (beta == 0.0) {
      std::fill(pc, pc + m * n, 0.0);
    } else {
      for (int64_t idx = 0; idx < m * n; ++idx) pc[idx] *= beta;
    }
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  const double* pa = a.data();
  const double* pb = b.data();
  for (int64_t i0 = 0; i0 < m; i0 += 64) {
    const int64_t i_end = std::min<int64_t>(i0 + 64, m);
    for (int64_t k0 = 0; k0 < k; k0 += 256) {
      const int64_t k_end = std::min<int64_t>(k0 + 256, k);
      for (int64_t j0 = 0; j0 < n; j0 += 256) {
        const int64_t j_end = std::min<int64_t>(j0 + 256, n);
        for (int64_t i = i0; i < i_end; ++i) {
          double* crow = pc + i * n;
          const double* arow = pa + i * k;
          for (int64_t kk = k0; kk < k_end; ++kk) {
            const double av = alpha * arow[kk];
            if (av == 0.0) continue;
            const double* brow = pb + kk * n;
            for (int64_t j = j0; j < j_end; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

bool BitwiseEqual(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.num_elements()) * sizeof(double)) ==
             0;
}

class DgemmVariantTest
    : public ::testing::TestWithParam<internal::DgemmVariantInfo> {
 protected:
  // One variant and the seed loop on the same random A, B and C.
  static void ExpectSeedBits(int64_t m, int64_t k, int64_t n, double alpha,
                             double beta) {
    const internal::DgemmVariantInfo& v = GetParam();
    DenseMatrix a = RandomDense(m, k, 31);
    DenseMatrix b = RandomDense(k, n, 32);
    DenseMatrix c = RandomDense(m, n, 33);
    DenseMatrix expected = c;
    v.fn(alpha, a, b, beta, &c);
    SeedDgemm(alpha, a, b, beta, &expected);
    EXPECT_TRUE(BitwiseEqual(c, expected))
        << v.isa << " " << m << "x" << k << "x" << n << " alpha=" << alpha
        << " beta=" << beta;
  }
};

TEST_P(DgemmVariantTest, BitwiseEqualToSeedLoopOnBlockingEdges) {
  const internal::DgemmVariantInfo& v = GetParam();
  const int64_t kc = internal::kDgemmKc;
  const std::vector<int64_t> ms = {1, v.mr - 1, v.mr, v.mr + 1, 257, 513};
  const std::vector<int64_t> ks = {1, kc - 1, kc, kc + 1, 513};
  const std::vector<int64_t> ns = {1, v.nr - 1, v.nr, v.nr + 1, 257};
  for (int64_t m : ms) {
    for (int64_t k : ks) {
      for (int64_t n : ns) ExpectSeedBits(m, k, n, 0.5, 0.25);
    }
  }
  ExpectSeedBits(v.mr + 1, kc + 1, 513, 0.5, 0.25);
  ExpectSeedBits(257, 513, 513, 0.5, 0.25);
  ExpectSeedBits(256, 256, 1, 1.0, 1.0);  // matrix-vector
}

TEST_P(DgemmVariantTest, BitwiseEqualToSeedLoopForAlphaBeta) {
  const internal::DgemmVariantInfo& v = GetParam();
  for (double alpha : {1.0, 0.5, 0.0}) {
    for (double beta : {1.0, 0.25, 0.0}) {
      ExpectSeedBits(v.mr + 1, internal::kDgemmKc + 1, v.nr + 1, alpha, beta);
      ExpectSeedBits(2 * v.mr + 3, 2 * internal::kDgemmKc + 1, 3 * v.nr + 2,
                     alpha, beta);
    }
  }
}

// The i-k-j loop skips alpha * A(i,k) == 0, so it never forms 0 * Inf and
// never adds +0 to a -0 in C. The packed kernel multiplies through, as BLAS
// does, on full tiles and on shapes thinner than one tile alike.
TEST_P(DgemmVariantTest, ZeroInAMeetingInfInBPropagates) {
  const internal::DgemmVariantInfo& v = GetParam();
  const double inf = std::numeric_limits<double>::infinity();
  DenseMatrix a = RandomDense(v.mr, 2, 41);
  a.Set(0, 0, 0.0);
  DenseMatrix b = RandomDense(2, v.nr, 42);
  b.Set(0, 0, inf);

  DenseMatrix packed(v.mr, v.nr);
  v.fn(1.0, a, b, 0.0, &packed);
  EXPECT_TRUE(std::isnan(packed.At(0, 0)));  // 0 * Inf
  EXPECT_TRUE(std::isinf(packed.At(1, 0)));
  EXPECT_TRUE(std::isfinite(packed.At(0, 1)));

  DenseMatrix seed(v.mr, v.nr);
  SeedDgemm(1.0, a, b, 0.0, &seed);
  EXPECT_TRUE(std::isfinite(seed.At(0, 0)));

  DenseMatrix b_col(2, 1);
  b_col.Set(0, 0, inf);
  b_col.Set(1, 0, 1.0);
  DenseMatrix thin(v.mr, 1);
  v.fn(1.0, a, b_col, 0.0, &thin);  // n < NR: one partial tile
  EXPECT_TRUE(std::isnan(thin.At(0, 0)));
  EXPECT_TRUE(std::isinf(thin.At(1, 0)));
  DenseMatrix seed_thin(v.mr, 1);
  SeedDgemm(1.0, a, b_col, 0.0, &seed_thin);
  EXPECT_EQ(seed_thin.At(0, 0), a.At(0, 1));
}

TEST_P(DgemmVariantTest, NanInAPropagates) {
  const internal::DgemmVariantInfo& v = GetParam();
  DenseMatrix a = RandomDense(v.mr, 3, 43);
  a.Set(0, 1, std::numeric_limits<double>::quiet_NaN());
  DenseMatrix b = RandomDense(3, v.nr, 44);
  DenseMatrix packed(v.mr, v.nr);
  v.fn(1.0, a, b, 0.0, &packed);
  DenseMatrix thin(v.mr, 1);
  v.fn(1.0, a, RandomDense(3, 1, 45), 0.0, &thin);
  for (int64_t j = 0; j < v.nr; ++j) EXPECT_TRUE(std::isnan(packed.At(0, j)));
  EXPECT_TRUE(std::isnan(thin.At(0, 0)));
  EXPECT_TRUE(std::isfinite(packed.At(1, 0)));
}

TEST_P(DgemmVariantTest, NegativeZeroInCMeetingZeroInA) {
  const internal::DgemmVariantInfo& v = GetParam();
  DenseMatrix a(v.mr, 1);  // all zero
  DenseMatrix b(1, v.nr);
  b.Fill(1.0);
  DenseMatrix packed(v.mr, v.nr);
  packed.Fill(-0.0);
  v.fn(1.0, a, b, 1.0, &packed);
  EXPECT_FALSE(std::signbit(packed.At(0, 0)));  // -0 + 0 * 1 = +0
  DenseMatrix seed(v.mr, v.nr);
  seed.Fill(-0.0);
  SeedDgemm(1.0, a, b, 1.0, &seed);
  EXPECT_TRUE(std::signbit(seed.At(0, 0)));  // skipped: stays -0
}

INSTANTIATE_TEST_SUITE_P(
    Isa, DgemmVariantTest,
    ::testing::ValuesIn(internal::SupportedDgemmVariants()),
    [](const ::testing::TestParamInfo<internal::DgemmVariantInfo>& info) {
      return std::string(info.param.isa);
    });

TEST(GemmTest, BaselineVariantIsAlwaysSupported) {
  const std::vector<internal::DgemmVariantInfo> variants =
      internal::SupportedDgemmVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.back().isa, "baseline");
}

// ---- Sparse kernels vs densified reference. ----

TEST(SpmmTest, CsrTimesDense) {
  CsrMatrix a = RandomSparse(20, 30, 0.15, 7);
  DenseMatrix b = RandomDense(30, 25, 8);
  DenseMatrix c(20, 25);
  DcsrMm(a, b, &c);
  DenseMatrix expected = Multiply(a.ToDense(), b);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-10);
}

TEST(SpmmTest, DenseTimesCsr) {
  DenseMatrix a = RandomDense(15, 20, 9);
  CsrMatrix b = RandomSparse(20, 18, 0.2, 10);
  DenseMatrix c(15, 18);
  DgeCsrMm(a, b, &c);
  DenseMatrix expected = Multiply(a, b.ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-10);
}

TEST(SpmmTest, DenseTimesCsrBitwiseEqualToColumnWalk) {
  DenseMatrix a = RandomDense(37, 41, 15);
  CsrMatrix b = RandomSparse(41, 29, 0.2, 16);
  DenseMatrix c = RandomDense(37, 29, 17);
  DenseMatrix expected = c;
  DgeCsrMm(a, b, &c);
  // The order DgeCsrMm walked in before it went row by row over A: each
  // C(i, j) still sums over r in ascending order.
  for (int64_t r = 0; r < b.rows(); ++r) {
    for (int64_t k = b.row_ptr()[r]; k < b.row_ptr()[r + 1]; ++k) {
      for (int64_t i = 0; i < a.rows(); ++i) {
        expected.Add(i, b.col_idx()[k], a.At(i, r) * b.values()[k]);
      }
    }
  }
  EXPECT_TRUE(BitwiseEqual(c, expected));
}

TEST(SpmmTest, CsrTimesCsr) {
  CsrMatrix a = RandomSparse(12, 16, 0.25, 11);
  CsrMatrix b = RandomSparse(16, 14, 0.25, 12);
  DenseMatrix c(12, 14);
  DcsrCsrMm(a, b, &c);
  DenseMatrix expected = Multiply(a.ToDense(), b.ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-10);
}

TEST(SpmmTest, AccumulatesIntoC) {
  CsrMatrix a = RandomSparse(5, 5, 0.4, 13);
  DenseMatrix b = RandomDense(5, 5, 14);
  DenseMatrix c(5, 5);
  c.Fill(1.0);
  DcsrMm(a, b, &c);
  DenseMatrix expected = Multiply(a.ToDense(), b);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t col = 0; col < 5; ++col) {
      EXPECT_NEAR(c.At(r, col), expected.At(r, col) + 1.0, 1e-10);
    }
  }
}

// ---- Block-level dispatch across all four format combinations. ----

class BlockFormatTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BlockFormatTest, MultiplyAccumulateDispatches) {
  const auto [a_sparse, b_sparse] = GetParam();
  DenseMatrix da = RandomDense(10, 12, 20);
  DenseMatrix db = RandomDense(12, 9, 21);
  Block a = a_sparse ? Block::Sparse(CsrMatrix::FromDense(da))
                     : Block::Dense(da);
  Block b = b_sparse ? Block::Sparse(CsrMatrix::FromDense(db))
                     : Block::Dense(db);
  DenseMatrix acc(10, 9);
  ASSERT_TRUE(MultiplyAccumulate(a, b, &acc).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(acc, Multiply(da, db)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Formats, BlockFormatTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(BlockOpsTest, MultiplyRejectsBadShapes) {
  Block a = Block::Dense(RandomDense(3, 4, 1));
  Block b = Block::Dense(RandomDense(5, 3, 2));
  DenseMatrix acc(3, 3);
  EXPECT_FALSE(MultiplyAccumulate(a, b, &acc).ok());
}

TEST(BlockOpsTest, ElementWiseAddSubMulDiv) {
  DenseMatrix da = RandomDense(6, 6, 30);
  DenseMatrix db = RandomDense(6, 6, 31);
  Block a = Block::Dense(da);
  Block b = Block::Dense(db);
  auto add = ElementWise(ElementWiseOp::kAdd, a, b);
  auto sub = ElementWise(ElementWiseOp::kSub, a, b);
  auto mul = ElementWise(ElementWiseOp::kMul, a, b);
  auto div = ElementWise(ElementWiseOp::kDiv, a, b, 1e-30);
  ASSERT_TRUE(add.ok() && sub.ok() && mul.ok() && div.ok());
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(add->At(r, c), da.At(r, c) + db.At(r, c), 1e-12);
      EXPECT_NEAR(sub->At(r, c), da.At(r, c) - db.At(r, c), 1e-12);
      EXPECT_NEAR(mul->At(r, c), da.At(r, c) * db.At(r, c), 1e-12);
      EXPECT_NEAR(div->At(r, c), da.At(r, c) / db.At(r, c), 1e-6);
    }
  }
}

TEST(BlockOpsTest, SparseElementWiseMulStaysSparse) {
  Block sparse = Block::Sparse(RandomSparse(10, 10, 0.1, 40));
  Block dense = Block::Dense(RandomDense(10, 10, 41));
  auto result = ElementWise(ElementWiseOp::kMul, sparse, dense);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->IsSparse());
  DenseMatrix expected(10, 10);
  DenseMatrix ds = sparse.ToDense();
  DenseMatrix dd = dense.ToDense();
  for (int64_t r = 0; r < 10; ++r) {
    for (int64_t c = 0; c < 10; ++c) {
      expected.Set(r, c, ds.At(r, c) * dd.At(r, c));
    }
  }
  EXPECT_LT(DenseMatrix::MaxAbsDiff(result->ToDense(), expected), 1e-12);
}

TEST(BlockOpsTest, AddBlocksHandlesZeroFastPath) {
  Block z = Block::Zero(4, 4);
  Block d = Block::Dense(RandomDense(4, 4, 50));
  auto sum = AddBlocks(z, d);
  ASSERT_TRUE(sum.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(sum->ToDense(), d.ToDense()), 0.0 + 1e-15);
}

TEST(BlockOpsTest, AddBlocksSparseSparse) {
  Block a = Block::Sparse(RandomSparse(8, 8, 0.2, 51));
  Block b = Block::Sparse(RandomSparse(8, 8, 0.2, 52));
  auto sum = AddBlocks(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum->IsSparse());
  DenseMatrix expected = a.ToDense();
  DenseMatrix db = b.ToDense();
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      expected.Add(r, c, db.At(r, c));
    }
  }
  EXPECT_LT(DenseMatrix::MaxAbsDiff(sum->ToDense(), expected), 1e-12);
}

// Same format, shape and stored bits (NaN payloads and zero signs count).
bool SameBits(const Block& x, const Block& y) {
  if (x.format() != y.format() || x.rows() != y.rows() ||
      x.cols() != y.cols()) {
    return false;
  }
  auto same_doubles = [](const std::vector<double>& u,
                         const std::vector<double>& v) {
    return u.size() == v.size() &&
           (u.empty() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0);
  };
  if (x.IsDense()) {
    const DenseMatrix& a = x.dense();
    const DenseMatrix& b = y.dense();
    return std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.SizeBytes())) == 0;
  }
  return x.sparse().row_ptr() == y.sparse().row_ptr() &&
         x.sparse().col_idx() == y.sparse().col_idx() &&
         same_doubles(x.sparse().values(), y.sparse().values());
}

// Every format mix, an all-zero operand on either side (dense zeros of
// either sign, and an empty CSR), and -0, NaN and Inf entries meeting
// zeros, each other and finite values.
std::vector<std::pair<std::string, Block>> AddIntoOperands() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DenseMatrix special = RandomDense(4, 5, 70);
  special.Set(0, 0, -0.0);
  special.Set(0, 1, nan);
  special.Set(0, 2, inf);
  special.Set(1, 0, -inf);
  special.Set(1, 1, 0.0);
  DenseMatrix neg_zeros(4, 5);
  neg_zeros.Fill(-0.0);
  DenseMatrix opposite = RandomDense(4, 5, 71);
  opposite.Set(0, 0, -0.0);
  opposite.Set(0, 2, -inf);  // Inf + -Inf = NaN
  opposite.Set(1, 1, -0.0);
  std::vector<Triplet> sparse_special = {
      {0, 0, -1.0}, {0, 2, nan}, {1, 1, inf}, {3, 4, 2.5}};
  return {
      {"dense", Block::Dense(RandomDense(4, 5, 72))},
      {"dense_special", Block::Dense(special)},
      {"dense_opposite", Block::Dense(opposite)},
      {"dense_zero", Block::Dense(DenseMatrix(4, 5))},
      {"dense_neg_zero", Block::Dense(neg_zeros)},
      {"sparse", Block::Sparse(RandomSparse(4, 5, 0.4, 73))},
      {"sparse_special",
       Block::Sparse(*CsrMatrix::FromTriplets(4, 5, sparse_special))},
      {"sparse_zero", Block::Zero(4, 5)},
  };
}

// AddInto(acc, p) leaves exactly AddBlocks(acc, p) in acc, both when acc
// owns its payload (the in-place path) and when a copy shares it — and the
// copy taken before the call is unchanged after it.
TEST(BlockOpsTest, AddIntoIsBitwiseAddBlocks) {
  const auto operands = AddIntoOperands();
  for (const auto& [a_name, a] : operands) {
    for (const auto& [b_name, b] : operands) {
      SCOPED_TRACE(a_name + " += " + b_name);
      auto expected = AddBlocks(a, b);
      ASSERT_TRUE(expected.ok());

      Block owned = a.IsDense() ? Block::Dense(a.dense()) : a;
      ASSERT_TRUE(AddInto(&owned, b).ok());
      EXPECT_TRUE(SameBits(owned, *expected));

      Block shared = a;
      const Block before = a.IsDense() ? Block::Dense(a.dense()) : a;
      ASSERT_TRUE(AddInto(&shared, b).ok());
      EXPECT_TRUE(SameBits(shared, *expected));
      EXPECT_TRUE(SameBits(a, before));
    }
  }
}

TEST(BlockOpsTest, AddIntoRejectsMismatchedShapes) {
  Block acc = Block::Dense(RandomDense(4, 4, 74));
  const Block before = Block::Dense(acc.dense());
  EXPECT_FALSE(AddInto(&acc, Block::Dense(RandomDense(4, 5, 75))).ok());
  EXPECT_TRUE(SameBits(acc, before));
}

TEST(BlockOpsTest, ElementWiseBitwiseAcrossFormats) {
  // Dense operands are read in place and sparse ones densified; either way
  // the result is the element-wise op on the densified operands.
  const auto operands = AddIntoOperands();
  for (const auto& [a_name, a] : operands) {
    for (const auto& [b_name, b] : operands) {
      SCOPED_TRACE(a_name + " - " + b_name);
      auto diff = ElementWise(ElementWiseOp::kSub, a, b);
      ASSERT_TRUE(diff.ok());
      DenseMatrix da = a.ToDense();
      DenseMatrix db = b.ToDense();
      DenseMatrix expected(4, 5);
      for (int64_t i = 0; i < expected.num_elements(); ++i) {
        expected.mutable_data()[i] = da.data()[i] - db.data()[i];
      }
      EXPECT_TRUE(SameBits(*diff, Block::Dense(expected)));
    }
  }
}

TEST(BlockOpsTest, TransposeBlockBothFormats) {
  Block dense = Block::Dense(RandomDense(5, 7, 60));
  Block sparse = Block::Sparse(RandomSparse(5, 7, 0.3, 61));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(TransposeBlock(dense).ToDense(),
                                    dense.ToDense().Transpose()),
            1e-15);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(TransposeBlock(sparse).ToDense(),
                                    sparse.ToDense().Transpose()),
            1e-15);
}

TEST(BlockOpsTest, ScaleBlock) {
  Block dense = Block::Dense(RandomDense(4, 4, 62));
  Block scaled = ScaleBlock(dense, -2.0);
  EXPECT_NEAR(scaled.At(1, 1), -2.0 * dense.At(1, 1), 1e-15);
  Block sparse = Block::Sparse(RandomSparse(6, 6, 0.3, 63));
  Block sscaled = ScaleBlock(sparse, 3.0);
  EXPECT_TRUE(sscaled.IsSparse());
  EXPECT_NEAR(sscaled.ToDense().At(0, 0), 3.0 * sparse.ToDense().At(0, 0),
              1e-15);
}

TEST(BlockOpsTest, MultiplyFlops) {
  EXPECT_EQ(MultiplyFlops(10, 20, 30), 2 * 10 * 20 * 30);
}

// ---- Local blocked multiply: the ground-truth reference. ----

TEST(LocalMmTest, MatchesDenseMultiply) {
  GeneratorOptions ga;
  ga.rows = 27;
  ga.cols = 33;
  ga.block_size = 10;
  ga.sparsity = 1.0;
  ga.seed = 70;
  GeneratorOptions gb = ga;
  gb.rows = 33;
  gb.cols = 21;
  gb.seed = 71;
  BlockGrid a = GenerateUniform(ga);
  BlockGrid b = GenerateUniform(gb);
  auto c = LocalMultiply(a, b);
  ASSERT_TRUE(c.ok());
  DenseMatrix expected = Multiply(a.ToDense(), b.ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c->ToDense(), expected), 1e-9);
}

TEST(LocalMmTest, SparseTimesDense) {
  GeneratorOptions ga;
  ga.rows = 40;
  ga.cols = 50;
  ga.block_size = 16;
  ga.sparsity = 0.05;
  ga.seed = 80;
  GeneratorOptions gb;
  gb.rows = 50;
  gb.cols = 30;
  gb.block_size = 16;
  gb.sparsity = 1.0;
  gb.seed = 81;
  BlockGrid a = GenerateUniform(ga);
  BlockGrid b = GenerateUniform(gb);
  auto c = LocalMultiply(a, b);
  ASSERT_TRUE(c.ok());
  DenseMatrix expected = Multiply(a.ToDense(), b.ToDense());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c->ToDense(), expected), 1e-9);
}

TEST(LocalMmTest, RejectsMismatchedShapes) {
  BlockGrid a(BlockedShape{10, 20, 5});
  BlockGrid b(BlockedShape{30, 10, 5});
  EXPECT_FALSE(LocalMultiply(a, b).ok());
  BlockGrid c(BlockedShape{20, 10, 4});  // different block size
  EXPECT_FALSE(LocalMultiply(a, c).ok());
}

TEST(LocalMmTest, TransposeGrid) {
  GeneratorOptions g;
  g.rows = 23;
  g.cols = 31;
  g.block_size = 10;
  g.sparsity = 0.4;
  g.seed = 90;
  BlockGrid a = GenerateUniform(g);
  BlockGrid t = LocalTranspose(a);
  EXPECT_EQ(t.shape().rows, 31);
  EXPECT_EQ(t.shape().cols, 23);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(t.ToDense(), a.ToDense().Transpose()),
            1e-15);
}

}  // namespace
}  // namespace distme::blas
