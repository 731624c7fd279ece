// Block: the fixed-size tile that distributed matrices are partitioned into
// (Section 2.1 of the paper; typically 1000×1000 elements). A block may be
// stored dense or sparse (CSR).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <variant>

#include "matrix/dense_matrix.h"
#include "matrix/sparse_matrix.h"

namespace distme {

/// \brief (row, column) index of a block within a blocked matrix.
struct BlockIndex {
  int64_t i = 0;
  int64_t j = 0;

  bool operator==(const BlockIndex& other) const {
    return i == other.i && j == other.j;
  }
  bool operator<(const BlockIndex& other) const {
    return i != other.i ? i < other.i : j < other.j;
  }
};

struct BlockIndexHash {
  size_t operator()(const BlockIndex& idx) const {
    // 64-bit mix of the two coordinates.
    uint64_t h = static_cast<uint64_t>(idx.i) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(idx.j) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// \brief Storage format of a block.
enum class BlockFormat { kDense, kSparseCsr };

/// \brief A matrix tile stored dense or sparse.
///
/// Blocks are value types but hold their payload in a shared_ptr so that
/// replication during shuffle (RMM replicates each A block J times!) does not
/// deep-copy the data, matching Spark's immutable-RDD-record semantics.
class Block {
 public:
  Block() : rows_(0), cols_(0) {}

  /// \brief Wraps a dense matrix.
  static Block Dense(DenseMatrix m);

  /// \brief Wraps a CSR matrix.
  static Block Sparse(CsrMatrix m);

  /// \brief A rows×cols all-zero block stored sparse (zero payload bytes).
  static Block Zero(int64_t rows, int64_t cols);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  BlockFormat format() const {
    return std::holds_alternative<std::shared_ptr<DenseMatrix>>(payload_)
               ? BlockFormat::kDense
               : BlockFormat::kSparseCsr;
  }
  bool IsDense() const { return format() == BlockFormat::kDense; }
  bool IsSparse() const { return format() == BlockFormat::kSparseCsr; }

  /// \brief Underlying dense payload; requires IsDense().
  const DenseMatrix& dense() const {
    return *std::get<std::shared_ptr<DenseMatrix>>(payload_);
  }
  /// \brief Underlying sparse payload; requires IsSparse().
  const CsrMatrix& sparse() const {
    return *std::get<std::shared_ptr<CsrMatrix>>(payload_);
  }

  /// \brief Dense payload for writing; requires IsDense(). A payload shared
  /// with another Block is cloned first (copy-on-write), so a write through
  /// it is never seen by a copy of this block.
  DenseMatrix& MutableDense();

  /// \brief Number of stored non-zeros (dense blocks count actual non-zeros).
  int64_t nnz() const;

  /// \brief Same as nnz() == 0, but a dense block stops scanning at its
  /// first non-zero.
  bool IsZero() const;

  /// \brief Serialized/in-memory footprint in bytes.
  int64_t SizeBytes() const;

  /// \brief Value at (r, c) regardless of format.
  double At(int64_t r, int64_t c) const;

  /// \brief Materializes to a dense matrix (copy).
  DenseMatrix ToDense() const;

  /// \brief Returns a dense version of this block (no-op if already dense).
  Block Densified() const;

  /// \brief Converts to sparse if sparsity is below `threshold` (default the
  /// conventional 0.4 density cutoff used by SystemML).
  Block Compacted(double threshold = 0.4) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::variant<std::shared_ptr<DenseMatrix>, std::shared_ptr<CsrMatrix>>
      payload_;
};

}  // namespace distme
