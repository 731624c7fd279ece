#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/distributed_matrix.h"
#include "matrix/generator.h"

namespace distme::engine {
namespace {

BlockGrid TestGrid(double sparsity = 1.0) {
  GeneratorOptions g;
  g.rows = 43;
  g.cols = 37;
  g.block_size = 10;
  g.sparsity = sparsity;
  g.seed = 3;
  return GenerateUniform(g);
}

TEST(DistributedMatrixTest, FromGridCollectRoundTrip) {
  BlockGrid grid = TestGrid();
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(grid, 4);
  EXPECT_EQ(dist.num_nodes(), 4);
  EXPECT_EQ(dist.num_blocks(), grid.num_blocks());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(dist.Collect().ToDense(), grid.ToDense(), 0.0));
}

TEST(DistributedMatrixTest, GetReportsNetworkCrossing) {
  BlockGrid grid = TestGrid();
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(grid, 3);
  const BlockIndex idx{1, 1};
  const int home = dist.NodeOf(idx);
  bool crossed = true;
  ASSERT_TRUE(dist.Get(idx, home, &crossed).ok());
  EXPECT_FALSE(crossed);
  ASSERT_TRUE(dist.Get(idx, (home + 1) % 3, &crossed).ok());
  EXPECT_TRUE(crossed);
}

TEST(DistributedMatrixTest, GetMissingIsZeroBlock) {
  DistributedMatrix dist(BlockedShape{25, 25, 10}, 2, Partitioner::Hash(2));
  auto blk = dist.Get({2, 2}, 0, nullptr);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ(blk->nnz(), 0);
  EXPECT_EQ(blk->rows(), 5);  // edge block
}

TEST(DistributedMatrixTest, OutOfRangeRejected) {
  DistributedMatrix dist(BlockedShape{20, 20, 10}, 2, Partitioner::Hash(2));
  EXPECT_FALSE(dist.Put({5, 0}, Block::Zero(10, 10)).ok());
  EXPECT_FALSE(dist.Get({-1, 0}, 0, nullptr).ok());
}

TEST(DistributedMatrixTest, RowPartitioningPlacesRowsTogether) {
  BlockGrid grid = TestGrid();
  DistributedMatrix dist =
      DistributedMatrix::FromGrid(grid, 3, Partitioner::Row(3));
  for (int64_t j = 0; j < dist.shape().block_cols(); ++j) {
    EXPECT_EQ(dist.NodeOf({2, j}), dist.NodeOf({2, 0}));
  }
}

TEST(DistributedMatrixTest, DescriptorMeasuresSparsity) {
  BlockGrid grid = TestGrid(0.25);
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(grid, 2);
  mm::MatrixDescriptor d = dist.Descriptor();
  EXPECT_EQ(d.shape.rows, 43);
  EXPECT_NEAR(d.sparsity, 0.25, 0.05);
  EXPECT_FALSE(d.stored_dense);  // 0.25 < 0.4 threshold → CSR blocks
}

// Descriptor() is cached; every Put must drop the cache, so the next call
// re-measures — including a flip of the dense/sparse majority.
TEST(DistributedMatrixTest, PutAfterDescriptorInvalidatesIt) {
  DistributedMatrix dist(BlockedShape{20, 20, 10}, 2, Partitioner::Hash(2));
  DenseMatrix ones(10, 10);
  ones.Fill(1.0);
  ASSERT_TRUE(dist.Put({0, 0}, Block::Dense(ones)).ok());
  mm::MatrixDescriptor d = dist.Descriptor();
  EXPECT_DOUBLE_EQ(d.sparsity, 0.25);
  EXPECT_TRUE(d.stored_dense);
  EXPECT_DOUBLE_EQ(dist.Descriptor().sparsity, 0.25);  // served from cache

  const Block sparse = Block::Sparse(
      CsrMatrix::FromTriplets(10, 10, {{0, 0, 1.0}, {3, 4, 2.0}}).ValueOrDie());
  ASSERT_TRUE(dist.Put({0, 1}, sparse).ok());
  d = dist.Descriptor();
  EXPECT_DOUBLE_EQ(d.sparsity, 102.0 / 400.0);
  EXPECT_TRUE(d.stored_dense);  // one dense of two blocks: still dense

  ASSERT_TRUE(dist.Put({1, 0}, sparse).ok());
  d = dist.Descriptor();
  EXPECT_DOUBLE_EQ(d.sparsity, 104.0 / 400.0);
  EXPECT_FALSE(d.stored_dense);  // one dense of three: the majority flips

  ASSERT_TRUE(dist.Put({0, 0}, sparse).ok());  // replacing a block counts too
  d = dist.Descriptor();
  EXPECT_DOUBLE_EQ(d.sparsity, 6.0 / 400.0);
  EXPECT_FALSE(d.stored_dense);
}

TEST(DistributedMatrixTest, MoveKeepsBlocksAndDescriptor) {
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(TestGrid(0.25), 3);
  const mm::MatrixDescriptor before = dist.Descriptor();
  DistributedMatrix moved(std::move(dist));
  EXPECT_EQ(moved.num_blocks(), TestGrid(0.25).num_blocks());
  EXPECT_EQ(moved.Descriptor().sparsity, before.sparsity);
  EXPECT_EQ(moved.Descriptor().stored_dense, before.stored_dense);
}

TEST(DistributedMatrixTest, BlocksAreSortedByIndex) {
  BlockGrid grid = TestGrid(0.5);
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(grid, 3);
  const std::vector<StoredBlock> blocks = dist.Blocks();
  ASSERT_EQ(static_cast<int64_t>(blocks.size()), grid.num_blocks());
  for (size_t k = 0; k < blocks.size(); ++k) {
    if (k > 0) {
      EXPECT_TRUE(blocks[k - 1].index < blocks[k].index);
    }
    EXPECT_EQ(blocks[k].node, dist.NodeOf(blocks[k].index));
    EXPECT_EQ(blocks[k].block.nnz(), grid.Get(blocks[k].index).nnz());
  }
}

TEST(DistributedMatrixTest, SizeBytesMatchesCollectedGrid) {
  BlockGrid grid = TestGrid();
  DistributedMatrix dist = DistributedMatrix::FromGridHashed(grid, 5);
  EXPECT_EQ(dist.SizeBytes(), grid.SizeBytes());
}

}  // namespace
}  // namespace distme::engine
