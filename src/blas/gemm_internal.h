// Test seam for blas::Dgemm's ISA variants. Not part of the public API:
// Dgemm itself always runs the first (widest) supported variant.

#pragma once

#include <cstdint>
#include <vector>

#include "matrix/dense_matrix.h"

namespace distme::blas::internal {

/// \brief Dgemm's signature; every variant has Dgemm's full semantics.
using DgemmFn = void (*)(double alpha, const DenseMatrix& a,
                         const DenseMatrix& b, double beta, DenseMatrix* c);

struct DgemmVariantInfo {
  const char* isa;  ///< "avx512f", "avx2" or "baseline"
  int mr;           ///< register tile rows
  int nr;           ///< register tile columns
  DgemmFn fn;
};

/// \brief Depth of a packed panel: C is reloaded every kDgemmKc steps of k.
inline constexpr int64_t kDgemmKc = 256;

/// \brief The packed-kernel variants this CPU can run, widest first.
std::vector<DgemmVariantInfo> SupportedDgemmVariants();

}  // namespace distme::blas::internal
