#include "matrix/dense_matrix.h"

#include <algorithm>
#include <cmath>

namespace distme {

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

int64_t DenseMatrix::CountNonZeros() const {
  int64_t nnz = 0;
  for (double v : data_) {
    if (v != 0.0) ++nnz;
  }
  return nnz;
}

bool DenseMatrix::AnyNonZero() const {
  for (double v : data_) {
    if (v != 0.0) return true;
  }
  return false;
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (int64_t c = 0; c < cols_; ++c) {
      out.mutable_data()[c * rows_ + r] = src[c];
    }
  }
  return out;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double max_diff = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    max_diff = std::max(max_diff, std::abs(pa[i] - pb[i]));
  }
  return max_diff;
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& a, const DenseMatrix& b,
                               double tol) {
  return MaxAbsDiff(a, b) <= tol;
}

DenseMatrix DenseMatrix::Random(int64_t rows, int64_t cols, Rng* rng,
                                double lo, double hi) {
  DenseMatrix m(rows, cols);
  double* p = m.mutable_data();
  for (int64_t i = 0; i < rows * cols; ++i) p[i] = rng->NextUniform(lo, hi);
  return m;
}

DenseMatrix DenseMatrix::Identity(int64_t n) {
  DenseMatrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m.Set(i, i, 1.0);
  return m;
}

}  // namespace distme
