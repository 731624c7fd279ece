#include "blas/spmm.h"

#include <cassert>

namespace distme::blas {

void DcsrMm(const CsrMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  const int64_t n = b.cols();
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* crow = c->mutable_row(i);
    for (int64_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const double av = a.values()[k];
      const double* brow = b.row(a.col_idx()[k]);
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void DgeCsrMm(const DenseMatrix& a, const CsrMatrix& b, DenseMatrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  // Row i of C is row i of A times B: scatter A(i, r) * B(r, :) into the C
  // row for ascending r, so each C(i, j) sums over r in ascending order.
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double* crow = c->mutable_row(i);
    for (int64_t r = 0; r < b.rows(); ++r) {
      const double av = arow[r];
      for (int64_t k = b.row_ptr()[r]; k < b.row_ptr()[r + 1]; ++k) {
        crow[b.col_idx()[k]] += av * b.values()[k];
      }
    }
  }
}

void DcsrCsrMm(const CsrMatrix& a, const CsrMatrix& b, DenseMatrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    double* crow = c->mutable_row(i);
    for (int64_t ka = a.row_ptr()[i]; ka < a.row_ptr()[i + 1]; ++ka) {
      const int64_t r = a.col_idx()[ka];
      const double av = a.values()[ka];
      for (int64_t kb = b.row_ptr()[r]; kb < b.row_ptr()[r + 1]; ++kb) {
        crow[b.col_idx()[kb]] += av * b.values()[kb];
      }
    }
  }
}

}  // namespace distme::blas
