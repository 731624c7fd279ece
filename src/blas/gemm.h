// CPU dense matrix-multiplication kernels (the LAPACK/MKL stand-in the paper
// cites for CPU-based local multiplication).

#pragma once

#include "matrix/dense_matrix.h"

namespace distme::blas {

/// \brief C = alpha * A * B + beta * C (row-major).
///
/// Requires A.cols() == B.rows(), C is A.rows() × B.cols().
///
/// A GotoBLAS-style kernel: packed A/B panels and an MR×NR register tile,
/// built for AVX-512F, AVX2 and baseline x86-64 and chosen once per process
/// from CPUID. Each C(i,j) adds alpha·A(i,k)·B(k,j) in ascending k with a
/// separately rounded multiply and add (no FMA), so every variant gives the
/// same bits as the i-k-j loop it replaced, at every shape, except where that
/// loop skipped alpha·A(i,k) == 0. The kernel multiplies through, as BLAS
/// does: a zero in A meeting an Inf or NaN in B gives NaN, and a -0 in C
/// meeting a zero in A becomes +0.
void Dgemm(double alpha, const DenseMatrix& a, const DenseMatrix& b,
           double beta, DenseMatrix* c);

/// \brief Convenience: returns A * B.
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);

/// \brief Naive triple-loop reference used to validate the packed kernel.
void DgemmReference(double alpha, const DenseMatrix& a, const DenseMatrix& b,
                    double beta, DenseMatrix* c);

}  // namespace distme::blas
