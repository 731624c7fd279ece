// Block-level operations: multiply-accumulate with format dispatch,
// element-wise combinators, transpose. These are the "kernel functions"
// of the paper's local multiplication step, on CPU.

#pragma once

#include "common/result.h"
#include "matrix/block.h"

namespace distme::blas {

/// \brief acc += A_block * B_block, dispatching on the four format
/// combinations (dense×dense → Dgemm, sparse×dense → DcsrMm, ...).
///
/// `acc` must be A.rows() × B.cols(). Mirrors the paper's use of
/// cublasDgemm for dense and cusparseDcsrmm for sparse blocks.
[[nodiscard]] Status MultiplyAccumulate(const Block& a, const Block& b, DenseMatrix* acc);

/// \brief Returns A_block * B_block as a dense block.
[[nodiscard]] Result<Block> MultiplyBlocks(const Block& a, const Block& b);

/// \brief Element-wise binary op codes supported by the engine.
enum class ElementWiseOp { kAdd, kSub, kMul, kDiv };

/// \brief Element-wise combine of two equally-shaped blocks.
///
/// Division guards against zero denominators with +epsilon, matching the
/// standard GNMF update implementations.
[[nodiscard]] Result<Block> ElementWise(ElementWiseOp op, const Block& a, const Block& b,
                          double epsilon = 0.0);

/// \brief Adds two blocks (the aggregation-step reducer).
[[nodiscard]] Result<Block> AddBlocks(const Block& a, const Block& b);

/// \brief *acc = AddBlocks(*acc, partial), bit for bit, without the copies:
/// two dense blocks are summed in `acc`'s own buffer (cloned first if
/// another Block shares it); every other format mix calls AddBlocks.
[[nodiscard]] Status AddInto(Block* acc, Block partial);

/// \brief Block transpose.
Block TransposeBlock(const Block& block);

/// \brief Multiplies every element by a scalar.
Block ScaleBlock(const Block& block, double factor);

/// \brief Floating-point multiply-add count for multiplying two blocks —
/// the simulator's work metric.
int64_t MultiplyFlops(int64_t a_rows, int64_t a_cols, int64_t b_cols);

}  // namespace distme::blas
