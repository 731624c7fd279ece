#include "matrix/block.h"

namespace distme {

Block Block::Dense(DenseMatrix m) {
  Block b;
  b.rows_ = m.rows();
  b.cols_ = m.cols();
  b.payload_ = std::make_shared<DenseMatrix>(std::move(m));
  return b;
}

Block Block::Sparse(CsrMatrix m) {
  Block b;
  b.rows_ = m.rows();
  b.cols_ = m.cols();
  b.payload_ = std::make_shared<CsrMatrix>(std::move(m));
  return b;
}

Block Block::Zero(int64_t rows, int64_t cols) {
  CsrMatrix empty = *CsrMatrix::FromTriplets(rows, cols, {});
  return Sparse(std::move(empty));
}

DenseMatrix& Block::MutableDense() {
  auto& payload = std::get<std::shared_ptr<DenseMatrix>>(payload_);
  if (payload.use_count() > 1) {
    payload = std::make_shared<DenseMatrix>(*payload);
  }
  return *payload;
}

int64_t Block::nnz() const {
  if (empty()) return 0;
  return IsDense() ? dense().CountNonZeros() : sparse().nnz();
}

bool Block::IsZero() const {
  if (empty()) return true;
  return IsDense() ? !dense().AnyNonZero() : sparse().nnz() == 0;
}

int64_t Block::SizeBytes() const {
  if (empty()) return 0;
  return IsDense() ? dense().SizeBytes() : sparse().SizeBytes();
}

double Block::At(int64_t r, int64_t c) const {
  return IsDense() ? dense().At(r, c) : sparse().At(r, c);
}

DenseMatrix Block::ToDense() const {
  return IsDense() ? dense() : sparse().ToDense();
}

Block Block::Densified() const {
  if (IsDense()) return *this;
  return Dense(sparse().ToDense());
}

Block Block::Compacted(double threshold) const {
  if (IsSparse()) return *this;
  if (dense().Sparsity() < threshold) {
    return Sparse(CsrMatrix::FromDense(dense()));
  }
  return *this;
}

}  // namespace distme
