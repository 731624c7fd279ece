// DenseMatrix: row-major double-precision matrix, the basic local format.

#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/units.h"

namespace distme {

/// \brief A dense, row-major matrix of doubles.
///
/// This is the local (single-task) representation of a dense block, matching
/// the DenseMatrix class DistME stores in Spark RDD records.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}

  /// \brief Creates a zero-initialized rows × cols matrix.
  DenseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {}

  /// \brief Creates from existing row-major data (must be rows*cols long).
  DenseMatrix(int64_t rows, int64_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {}

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t num_elements() const { return rows_ * cols_; }
  int64_t SizeBytes() const { return num_elements() * kElementBytes; }

  double At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }
  void Set(int64_t r, int64_t c, double v) { data_[r * cols_ + c] = v; }
  void Add(int64_t r, int64_t c, double v) { data_[r * cols_ + c] += v; }

  const double* data() const { return data_.data(); }
  double* mutable_data() { return data_.data(); }
  const double* row(int64_t r) const { return data_.data() + r * cols_; }
  double* mutable_row(int64_t r) { return data_.data() + r * cols_; }

  /// \brief Sets every element to `value`.
  void Fill(double value);

  /// \brief Number of non-zero elements.
  int64_t CountNonZeros() const;

  /// \brief True if some element is non-zero (NaN counts, -0.0 does not);
  /// stops at the first one, unlike CountNonZeros() > 0.
  bool AnyNonZero() const;

  /// \brief Fraction of non-zero elements in [0, 1].
  double Sparsity() const {
    return num_elements() == 0
               ? 0.0
               : static_cast<double>(CountNonZeros()) / num_elements();
  }

  /// \brief Frobenius norm.
  double FrobeniusNorm() const;

  /// \brief Returns the transpose as a new matrix.
  DenseMatrix Transpose() const;

  /// \brief Element-wise |a - b| max over both matrices; requires same shape.
  static double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

  /// \brief True if same shape and all elements within `tol` of each other.
  static bool ApproxEquals(const DenseMatrix& a, const DenseMatrix& b,
                           double tol = 1e-9);

  /// \brief Uniform random matrix with entries in [lo, hi).
  static DenseMatrix Random(int64_t rows, int64_t cols, Rng* rng,
                            double lo = 0.0, double hi = 1.0);

  /// \brief Identity matrix of order n.
  static DenseMatrix Identity(int64_t n);

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

}  // namespace distme
