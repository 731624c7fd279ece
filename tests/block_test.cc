#include <gtest/gtest.h>

#include <cstring>

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

TEST(SerializeTest, SparseCheaperThanDenseForSparseData) {
  Block sparse = MakeSparseBlock(100, 100, 50);
  Block dense = sparse.Densified();
  EXPECT_LT(SerializedBlockBytes(sparse), SerializedBlockBytes(dense));
}

}  // namespace
}  // namespace distme
