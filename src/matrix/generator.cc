#include "matrix/generator.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace distme {

namespace {

uint64_t BlockSeed(uint64_t seed, int64_t i, int64_t j) {
  uint64_t h = seed;
  h ^= static_cast<uint64_t>(i) * 0xff51afd7ed558ccdULL + (h << 13);
  h ^= static_cast<uint64_t>(j) * 0xc4ceb9fe1a85ec53ULL + (h >> 7);
  h *= 0x2545f4914f6cdd1dULL;
  return h ^ (h >> 33);
}

}  // namespace

namespace {

// Effective density of block row `i` under the Zipf-like row skew,
// normalized so the matrix-wide expected density equals options.sparsity.
double RowDensity(const GeneratorOptions& options, int64_t block_i) {
  if (options.row_skew <= 0.0) return options.sparsity;
  const BlockedShape shape{options.rows, options.cols, options.block_size};
  const int64_t big_i = shape.block_rows();
  double norm = 0.0;
  for (int64_t r = 0; r < big_i; ++r) {
    norm += std::pow(static_cast<double>(r + 1), -options.row_skew);
  }
  const double weight =
      std::pow(static_cast<double>(block_i + 1), -options.row_skew);
  return std::min(1.0, options.sparsity * weight *
                           static_cast<double>(big_i) / norm);
}

}  // namespace

Block GenerateUniformBlock(const GeneratorOptions& options, int64_t block_i,
                           int64_t block_j) {
  GeneratorOptions effective = options;
  effective.sparsity = RowDensity(options, block_i);
  const GeneratorOptions& opts = effective;

  const BlockedShape shape{opts.rows, opts.cols, opts.block_size};
  const int64_t rows = shape.BlockRowsAt(block_i);
  const int64_t cols = shape.BlockColsAt(block_j);
  Rng rng(BlockSeed(opts.seed, block_i, block_j));

  if (opts.sparsity >= opts.dense_threshold) {
    DenseMatrix m(rows, cols);
    double* p = m.mutable_data();
    if (opts.sparsity >= 1.0) {
      for (int64_t n = 0; n < rows * cols; ++n) p[n] = rng.NextDouble();
    } else {
      for (int64_t n = 0; n < rows * cols; ++n) {
        p[n] = rng.NextDouble() < opts.sparsity ? rng.NextDouble() : 0.0;
      }
    }
    return Block::Dense(std::move(m));
  }

  // Sparse path: draw entries at uniform positions. Collisions merge, so we
  // oversample by the coupon-collector correction m = n·ln(1/(1−s)), making
  // the expected number of *distinct* positions equal s·n.
  const double n = static_cast<double>(rows * cols);
  const int64_t target = static_cast<int64_t>(
      std::llround(-std::log1p(-opts.sparsity) * n));
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(target));
  for (int64_t n = 0; n < target; ++n) {
    const int64_t r = static_cast<int64_t>(rng.NextBounded(rows));
    const int64_t c = static_cast<int64_t>(rng.NextBounded(cols));
    triplets.push_back({r, c, rng.NextDouble()});
  }
  auto csr = CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
  DISTME_CHECK_OK(csr.status());
  return Block::Sparse(std::move(*csr));
}

BlockGrid GenerateUniform(const GeneratorOptions& options) {
  BlockGrid grid(BlockedShape{options.rows, options.cols, options.block_size});
  if (options.sparsity <= 0.0) return grid;
  for (int64_t i = 0; i < grid.block_rows(); ++i) {
    for (int64_t j = 0; j < grid.block_cols(); ++j) {
      Block b = GenerateUniformBlock(options, i, j);
      if (!b.IsZero()) {
        DISTME_CHECK_OK(grid.Put({i, j}, std::move(b)));
      }
    }
  }
  return grid;
}

RatingDataset MovieLens() {
  return {"MovieLens", 283228, 58098, 27753444};
}

RatingDataset Netflix() {
  return {"Netflix", 480189, 17770, 100480507};
}

RatingDataset YahooMusic() {
  return {"YahooMusic", 1823179, 136736, 717872016};
}

GeneratorOptions RatingMatrixOptions(const RatingDataset& dataset,
                                     int64_t block_size, double scale) {
  GeneratorOptions options;
  options.rows = std::max<int64_t>(
      1, static_cast<int64_t>(dataset.users * scale));
  options.cols = std::max<int64_t>(
      1, static_cast<int64_t>(dataset.items * scale));
  // Sparsity (nnz fraction) is scale-invariant: the paper's datasets keep
  // their density when scaled for real-execution validation.
  options.sparsity = static_cast<double>(dataset.ratings) /
                     (static_cast<double>(dataset.users) * dataset.items);
  options.block_size = block_size;
  options.seed = 0xD157ABCDULL;
  return options;
}

}  // namespace distme
