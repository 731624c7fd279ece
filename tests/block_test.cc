#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "matrix/block.h"
#include "matrix/serialize.h"

namespace distme {
namespace {

Block MakeDenseBlock(int64_t rows, int64_t cols, uint64_t seed = 1) {
  Rng rng(seed);
  return Block::Dense(DenseMatrix::Random(rows, cols, &rng));
}

Block MakeSparseBlock(int64_t rows, int64_t cols, int nnz, uint64_t seed = 2) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<int64_t>(rng.NextBounded(rows)),
                        static_cast<int64_t>(rng.NextBounded(cols)),
                        rng.NextDouble() + 0.5});
  }
  return Block::Sparse(*CsrMatrix::FromTriplets(rows, cols, triplets));
}

TEST(BlockTest, DenseBasics) {
  Block b = MakeDenseBlock(4, 6);
  EXPECT_TRUE(b.IsDense());
  EXPECT_EQ(b.format(), BlockFormat::kDense);
  EXPECT_EQ(b.rows(), 4);
  EXPECT_EQ(b.cols(), 6);
  EXPECT_EQ(b.SizeBytes(), 4 * 6 * 8);
}

TEST(BlockTest, SparseBasics) {
  Block b = MakeSparseBlock(10, 10, 5);
  EXPECT_TRUE(b.IsSparse());
  EXPECT_LE(b.nnz(), 5);  // duplicates may merge
  EXPECT_GT(b.nnz(), 0);
}

TEST(BlockTest, ZeroBlock) {
  Block z = Block::Zero(3, 5);
  EXPECT_EQ(z.nnz(), 0);
  EXPECT_TRUE(z.IsSparse());
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 5);
  DenseMatrix d = z.ToDense();
  EXPECT_EQ(d.CountNonZeros(), 0);
}

TEST(BlockTest, AtDispatchesOnFormat) {
  Block dense = MakeDenseBlock(3, 3, 7);
  Block sparse = Block::Sparse(CsrMatrix::FromDense(dense.dense()));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(dense.At(r, c), sparse.At(r, c));
    }
  }
}

TEST(BlockTest, SharedPayloadIsCheapToCopy) {
  Block b = MakeDenseBlock(100, 100);
  Block copy = b;  // replication must not deep-copy (RMM replicates J times)
  EXPECT_EQ(&b.dense(), &copy.dense());
}

TEST(BlockTest, CompactedConvertsSparseEnoughBlocks) {
  DenseMatrix mostly_zero(10, 10);
  mostly_zero.Set(0, 0, 1.0);
  Block b = Block::Dense(mostly_zero).Compacted();
  EXPECT_TRUE(b.IsSparse());

  Block dense = MakeDenseBlock(10, 10);
  EXPECT_TRUE(dense.Compacted().IsDense());
}

TEST(BlockTest, DensifiedIsIdempotent) {
  Block sparse = MakeSparseBlock(5, 5, 3);
  Block dense = sparse.Densified();
  EXPECT_TRUE(dense.IsDense());
  EXPECT_TRUE(DenseMatrix::ApproxEquals(dense.dense(), sparse.ToDense(), 0.0));
  EXPECT_TRUE(dense.Densified().IsDense());
}

TEST(BlockTest, IsZeroMatchesNnz) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  DenseMatrix d(3, 4);
  EXPECT_TRUE(Block::Dense(d).IsZero());
  d.Set(2, 3, -0.0);  // -0.0 is zero, as in CountNonZeros
  EXPECT_TRUE(Block::Dense(d).IsZero());
  d.Set(2, 3, nan);  // NaN is not
  EXPECT_FALSE(Block::Dense(d).IsZero());
  d.Set(0, 0, 1.0);
  EXPECT_FALSE(Block::Dense(d).IsZero());
  EXPECT_TRUE(Block::Zero(3, 4).IsZero());
  EXPECT_TRUE(Block().IsZero());
  EXPECT_FALSE(MakeSparseBlock(5, 5, 3).IsZero());
  for (const Block& b : {Block::Dense(d), Block::Zero(2, 2),
                         MakeDenseBlock(4, 4), MakeSparseBlock(6, 6, 4)}) {
    EXPECT_EQ(b.IsZero(), b.nnz() == 0);
  }
}

TEST(BlockTest, MutableDenseClonesASharedPayload) {
  Block b = MakeDenseBlock(4, 4);
  Block copy = b;
  b.MutableDense().Set(0, 0, 42.0);
  EXPECT_EQ(b.At(0, 0), 42.0);
  EXPECT_NE(copy.At(0, 0), 42.0);
  EXPECT_NE(&b.dense(), &copy.dense());
  // Sole owner: written in place.
  const DenseMatrix* payload = &b.dense();
  b.MutableDense().Set(1, 1, 7.0);
  EXPECT_EQ(&b.dense(), payload);
}

TEST(SerializeTest, DenseRoundTrip) {
  Block original = MakeDenseBlock(7, 5, 42);
  auto buffer = SerializeBlock(original);
  EXPECT_EQ(static_cast<int64_t>(buffer.size()),
            SerializedBlockBytes(original));
  auto restored = DeserializeBlock(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsDense());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->dense(), original.dense(), 0.0));
}

TEST(SerializeTest, SparseRoundTrip) {
  Block original = MakeSparseBlock(20, 15, 30, 9);
  auto buffer = SerializeBlock(original);
  EXPECT_EQ(static_cast<int64_t>(buffer.size()),
            SerializedBlockBytes(original));
  auto restored = DeserializeBlock(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsSparse());
  EXPECT_EQ(restored->nnz(), original.nnz());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), original.ToDense(), 0.0));
}

TEST(SerializeTest, ZeroBlockRoundTrip) {
  Block z = Block::Zero(4, 4);
  auto restored = DeserializeBlock(SerializeBlock(z));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->nnz(), 0);
  EXPECT_EQ(restored->rows(), 4);
}

TEST(SerializeTest, RejectsBadMagic) {
  Block b = MakeDenseBlock(2, 2);
  auto buffer = SerializeBlock(b);
  buffer[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeBlock(buffer).ok());
}

TEST(SerializeTest, RejectsTruncatedBuffer) {
  Block b = MakeDenseBlock(4, 4);
  auto buffer = SerializeBlock(b);
  buffer.resize(buffer.size() / 2);
  EXPECT_FALSE(DeserializeBlock(buffer).ok());
}

TEST(SerializeTest, RejectsEmptyBuffer) {
  EXPECT_FALSE(DeserializeBlock({}).ok());
}

// A block header followed by raw int64 fields: magic, format, rows, cols.
std::vector<uint8_t> Header(uint8_t fmt, int64_t rows, int64_t cols) {
  std::vector<uint8_t> buf(4 + 1 + 8 + 8);
  const uint32_t magic = 0xD157B10C;
  std::memcpy(buf.data(), &magic, 4);
  buf[4] = fmt;
  std::memcpy(buf.data() + 5, &rows, 8);
  std::memcpy(buf.data() + 13, &cols, 8);
  return buf;
}

void AppendInt64(std::vector<uint8_t>* buf, int64_t value) {
  const size_t offset = buf->size();
  buf->resize(offset + 8);
  std::memcpy(buf->data() + offset, &value, 8);
}

TEST(SerializeTest, RejectsDenseHeaderWhoseSizeOverflows) {
  // rows * cols = (2^62 + 1) * 4 wraps to 4 in 64 bits, matching n = 4.
  std::vector<uint8_t> buf = Header(0, (int64_t{1} << 62) + 1, 4);
  AppendInt64(&buf, 4);
  for (int i = 0; i < 4; ++i) AppendInt64(&buf, 0);
  EXPECT_FALSE(DeserializeBlock(buf).ok());
}

TEST(SerializeTest, RejectsDensePayloadLargerThanBuffer) {
  // A consistent 2^20 x 2^20 header with 8 bytes of payload: the size check
  // must fail before the 8 TiB payload is allocated.
  std::vector<uint8_t> buf = Header(0, int64_t{1} << 20, int64_t{1} << 20);
  AppendInt64(&buf, int64_t{1} << 40);
  AppendInt64(&buf, 0);
  EXPECT_FALSE(DeserializeBlock(buf).ok());
}

TEST(SerializeTest, RejectsVectorLengthThatWraps) {
  // (2^61 + 1) * sizeof(int64_t) wraps to 8, which the 8 trailing bytes
  // would satisfy.
  std::vector<uint8_t> buf = Header(1, 2, 2);
  AppendInt64(&buf, (int64_t{1} << 61) + 1);
  AppendInt64(&buf, 0);
  EXPECT_FALSE(DeserializeBlock(buf).ok());
}

// A CSR block encoding with the given arrays.
std::vector<uint8_t> CsrEncoding(int64_t rows, int64_t cols,
                                 const std::vector<int64_t>& row_ptr,
                                 const std::vector<int64_t>& col_idx,
                                 const std::vector<double>& values) {
  std::vector<uint8_t> buf = Header(1, rows, cols);
  AppendInt64(&buf, static_cast<int64_t>(row_ptr.size()));
  for (int64_t v : row_ptr) AppendInt64(&buf, v);
  AppendInt64(&buf, static_cast<int64_t>(col_idx.size()));
  for (int64_t v : col_idx) AppendInt64(&buf, v);
  AppendInt64(&buf, static_cast<int64_t>(values.size()));
  for (double v : values) {
    int64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    AppendInt64(&buf, bits);
  }
  return buf;
}

TEST(SerializeTest, AcceptsAWellFormedCsrEncoding) {
  auto block = DeserializeBlock(
      CsrEncoding(2, 3, {0, 2, 3}, {0, 2, 1}, {1.5, -2.0, 3.0}));
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block->nnz(), 3);
  EXPECT_EQ(block->At(0, 2), -2.0);
  EXPECT_EQ(block->At(1, 1), 3.0);
}

// Encodings the old triplet rebuild silently repaired (sorted, merged or
// dropped) are now rejected, as are row pointers that do not describe the
// entries.
TEST(SerializeTest, RejectsMalformedCsrEncodings) {
  struct Case {
    const char* what;
    std::vector<int64_t> row_ptr;
    std::vector<int64_t> col_idx;
    std::vector<double> values;
  };
  const std::vector<Case> cases = {
      {"row_ptr[0] != 0", {1, 2, 3}, {0, 1, 2}, {1, 2, 3}},
      {"row_ptr decreases", {0, 3, 2}, {0, 1, 2}, {1, 2, 3}},
      {"row end past nnz, then decreases", {0, 5, 3}, {0, 1, 2}, {1, 2, 3}},
      {"row_ptr[rows] != nnz", {0, 1, 2}, {0, 1, 2}, {1, 2, 3}},
      {"row_ptr past nnz", {0, 1, 4}, {0, 1, 2}, {1, 2, 3}},
      {"negative column", {0, 1, 3}, {-1, 0, 1}, {1, 2, 3}},
      {"column >= cols", {0, 1, 3}, {3, 0, 1}, {1, 2, 3}},
      {"unsorted columns", {0, 2, 3}, {2, 0, 1}, {1, 2, 3}},
      {"duplicate column", {0, 2, 3}, {1, 1, 0}, {1, 2, 3}},
      {"stored +0", {0, 1, 3}, {0, 0, 1}, {1, 0.0, 3}},
      {"stored -0", {0, 1, 3}, {0, 0, 1}, {1, -0.0, 3}},
      {"length mismatch", {0, 1, 3}, {0, 0}, {1, 2, 3}},
  };
  for (const Case& c : cases) {
    auto block =
        DeserializeBlock(CsrEncoding(2, 3, c.row_ptr, c.col_idx, c.values));
    EXPECT_FALSE(block.ok()) << c.what;
    if (!block.ok()) {
      EXPECT_EQ(block.status().code(), StatusCode::kIOError) << c.what;
    }
  }
}

// On every valid encoding, direct validation gives exactly what the triplet
// rebuild gave: the same arrays, value bits included.
TEST(SerializeTest, CsrRoundTripMatchesTripletRebuild) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto rows = static_cast<int64_t>(1 + rng.NextBounded(40));
    const auto cols = static_cast<int64_t>(1 + rng.NextBounded(40));
    std::vector<Triplet> triplets;
    const auto n = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(rows * cols)));
    for (int i = 0; i < n; ++i) {
      const double v = seed % 7 == 0 && i == 0 ? nan : rng.NextDouble() - 0.5;
      triplets.push_back({static_cast<int64_t>(rng.NextBounded(rows)),
                          static_cast<int64_t>(rng.NextBounded(cols)), v});
    }
    const Block original =
        Block::Sparse(*CsrMatrix::FromTriplets(rows, cols, triplets));
    auto restored = DeserializeBlock(SerializeBlock(original));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(restored->IsSparse());
    const CsrMatrix& a = original.sparse();
    const CsrMatrix& b = restored->sparse();
    EXPECT_EQ(b.rows(), rows);
    EXPECT_EQ(b.cols(), cols);
    EXPECT_EQ(b.row_ptr(), a.row_ptr());
    EXPECT_EQ(b.col_idx(), a.col_idx());
    ASSERT_EQ(b.values().size(), a.values().size());
    if (a.nnz() > 0) {  // memcmp of a null data() is undefined
      EXPECT_EQ(std::memcmp(b.values().data(), a.values().data(),
                            a.values().size() * sizeof(double)),
                0);
    }
  }
}

TEST(SerializeTest, SparseCheaperThanDenseForSparseData) {
  Block sparse = MakeSparseBlock(100, 100, 50);
  Block dense = sparse.Densified();
  EXPECT_LT(SerializedBlockBytes(sparse), SerializedBlockBytes(dense));
}

}  // namespace
}  // namespace distme
