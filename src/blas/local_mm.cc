#include "blas/local_mm.h"

#include "blas/block_ops.h"

namespace distme::blas {

Result<BlockGrid> LocalMultiply(const BlockGrid& a, const BlockGrid& b) {
  if (a.shape().cols != b.shape().rows) {
    return Status::Invalid("inner matrix dimensions do not match");
  }
  if (a.shape().block_size != b.shape().block_size) {
    return Status::Invalid("block sizes do not match");
  }
  BlockGrid c(BlockedShape{a.shape().rows, b.shape().cols,
                           a.shape().block_size});
  const int64_t big_i = a.block_rows();
  const int64_t big_k = a.block_cols();
  const int64_t big_j = b.block_cols();
  for (int64_t i = 0; i < big_i; ++i) {
    for (int64_t j = 0; j < big_j; ++j) {
      DenseMatrix acc(c.shape().BlockRowsAt(i), c.shape().BlockColsAt(j));
      bool any = false;
      for (int64_t k = 0; k < big_k; ++k) {
        if (!a.Has({i, k}) || !b.Has({k, j})) continue;
        DISTME_RETURN_NOT_OK(
            MultiplyAccumulate(a.Get({i, k}), b.Get({k, j}), &acc));
        any = true;
      }
      if (any && acc.AnyNonZero()) {
        DISTME_RETURN_NOT_OK(c.Put({i, j}, Block::Dense(std::move(acc))));
      }
    }
  }
  return c;
}

BlockGrid LocalTranspose(const BlockGrid& m) {
  BlockGrid out(BlockedShape{m.shape().cols, m.shape().rows,
                             m.shape().block_size});
  for (const auto& [idx, block] : m.blocks()) {
    DISTME_CHECK_OK(out.Put({idx.j, idx.i}, TransposeBlock(block)));
  }
  return out;
}

}  // namespace distme::blas
