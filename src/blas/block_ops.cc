#include "blas/block_ops.h"

#include "blas/gemm.h"
#include "blas/spmm.h"

namespace distme::blas {

namespace {

// The elements of `block` as a row-major array: a dense block's own
// payload, or a sparse block densified into `*storage`.
const double* DenseData(const Block& block, DenseMatrix* storage) {
  if (block.IsDense()) return block.dense().data();
  *storage = block.sparse().ToDense();
  return storage->data();
}

}  // namespace

Status MultiplyAccumulate(const Block& a, const Block& b, DenseMatrix* acc) {
  if (a.cols() != b.rows()) {
    return Status::Invalid("inner dimensions do not match");
  }
  if (acc->rows() != a.rows() || acc->cols() != b.cols()) {
    return Status::Invalid("accumulator has wrong shape");
  }
  if (a.IsDense() && b.IsDense()) {
    Dgemm(1.0, a.dense(), b.dense(), 1.0, acc);
  } else if (a.IsSparse() && b.IsDense()) {
    DcsrMm(a.sparse(), b.dense(), acc);
  } else if (a.IsDense() && b.IsSparse()) {
    DgeCsrMm(a.dense(), b.sparse(), acc);
  } else {
    DcsrCsrMm(a.sparse(), b.sparse(), acc);
  }
  return Status::OK();
}

Result<Block> MultiplyBlocks(const Block& a, const Block& b) {
  DenseMatrix acc(a.rows(), b.cols());
  DISTME_RETURN_NOT_OK(MultiplyAccumulate(a, b, &acc));
  return Block::Dense(std::move(acc));
}

Result<Block> ElementWise(ElementWiseOp op, const Block& a, const Block& b,
                          double epsilon) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::Invalid("element-wise operands have different shapes");
  }
  // Sparse fast path for multiply: iterate only A's non-zeros.
  if (op == ElementWiseOp::kMul && a.IsSparse()) {
    const CsrMatrix& s = a.sparse();
    std::vector<Triplet> out;
    out.reserve(static_cast<size_t>(s.nnz()));
    for (int64_t r = 0; r < s.rows(); ++r) {
      for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
        const int64_t c = s.col_idx()[k];
        const double v = s.values()[k] * b.At(r, c);
        if (v != 0.0) out.push_back({r, c, v});
      }
    }
    DISTME_ASSIGN_OR_RETURN(CsrMatrix csr,
                            CsrMatrix::FromTriplets(a.rows(), a.cols(),
                                                    std::move(out)));
    return Block::Sparse(std::move(csr));
  }

  DenseMatrix da;
  DenseMatrix db;
  const double* pa = DenseData(a, &da);
  const double* pb = DenseData(b, &db);
  DenseMatrix out(a.rows(), a.cols());
  double* po = out.mutable_data();
  const int64_t n = out.num_elements();
  switch (op) {
    case ElementWiseOp::kAdd:
      for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
      break;
    case ElementWiseOp::kSub:
      for (int64_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
      break;
    case ElementWiseOp::kMul:
      for (int64_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
      break;
    case ElementWiseOp::kDiv:
      for (int64_t i = 0; i < n; ++i) po[i] = pa[i] / (pb[i] + epsilon);
      break;
  }
  return Block::Dense(std::move(out));
}

Result<Block> AddBlocks(const Block& a, const Block& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::Invalid("cannot add blocks of different shapes");
  }
  // Zero blocks are common during aggregation; skip the work.
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  if (a.IsSparse() && b.IsSparse()) {
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
    for (const CsrMatrix* m : {&a.sparse(), &b.sparse()}) {
      for (int64_t r = 0; r < m->rows(); ++r) {
        for (int64_t k = m->row_ptr()[r]; k < m->row_ptr()[r + 1]; ++k) {
          triplets.push_back({r, m->col_idx()[k], m->values()[k]});
        }
      }
    }
    DISTME_ASSIGN_OR_RETURN(CsrMatrix csr,
                            CsrMatrix::FromTriplets(a.rows(), a.cols(),
                                                    std::move(triplets)));
    return Block::Sparse(std::move(csr));
  }
  return ElementWise(ElementWiseOp::kAdd, a, b);
}

Status AddInto(Block* acc, Block partial) {
  if (acc->rows() != partial.rows() || acc->cols() != partial.cols()) {
    return Status::Invalid("cannot add blocks of different shapes");
  }
  // AddBlocks' zero-operand shortcut: the result is the other operand.
  if (acc->IsZero()) {
    *acc = std::move(partial);
    return Status::OK();
  }
  if (partial.IsZero()) return Status::OK();
  if (acc->IsDense() && partial.IsDense()) {
    double* po = acc->MutableDense().mutable_data();
    const double* pb = partial.dense().data();
    const int64_t n = partial.dense().num_elements();
    for (int64_t i = 0; i < n; ++i) po[i] += pb[i];
    return Status::OK();
  }
  DISTME_ASSIGN_OR_RETURN(*acc, AddBlocks(*acc, partial));
  return Status::OK();
}

Block TransposeBlock(const Block& block) {
  if (block.IsDense()) return Block::Dense(block.dense().Transpose());
  return Block::Sparse(block.sparse().Transpose());
}

Block ScaleBlock(const Block& block, double factor) {
  if (block.IsSparse()) {
    const CsrMatrix& s = block.sparse();
    std::vector<Triplet> out;
    out.reserve(static_cast<size_t>(s.nnz()));
    for (int64_t r = 0; r < s.rows(); ++r) {
      for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
        out.push_back({r, s.col_idx()[k], s.values()[k] * factor});
      }
    }
    return Block::Sparse(*CsrMatrix::FromTriplets(s.rows(), s.cols(),
                                                  std::move(out)));
  }
  DenseMatrix d = block.dense();
  double* p = d.mutable_data();
  for (int64_t i = 0; i < d.num_elements(); ++i) p[i] *= factor;
  return Block::Dense(std::move(d));
}

int64_t MultiplyFlops(int64_t a_rows, int64_t a_cols, int64_t b_cols) {
  return 2 * a_rows * a_cols * b_cols;
}

}  // namespace distme::blas
