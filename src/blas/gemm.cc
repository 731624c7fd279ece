#include "blas/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "blas/gemm_internal.h"

// Built with -ffp-contract=off (src/blas/CMakeLists.txt): every product and
// every sum below rounds on its own, in every ISA variant, so the packed
// kernel gives the same bits as the i-k-j loop on finite inputs.

namespace distme::blas {

namespace {

// GotoBLAS/BLIS blocking. A KC-deep panel of B (KC x NC) and of A (MC x KC)
// are packed per thread; kMc and kNc are multiples of every variant's MR and
// NR, so only the matrix edges leave partial strips.
constexpr int64_t kKc = internal::kDgemmKc;
constexpr int64_t kMc = 96;
constexpr int64_t kNc = 768;

using KernelFn = void (*)(double alpha, const double* a, const double* b,
                          double* c, int64_t m, int64_t k, int64_t n);

int64_t RoundUp(int64_t x, int64_t multiple) {
  return (x + multiple - 1) / multiple * multiple;
}

// `n` doubles of a per-thread buffer, 64-byte aligned.
double* ThreadScratch(std::vector<double>* buf, int64_t n) {
  const size_t need = static_cast<size_t>(n) + 8;
  if (buf->size() < need) buf->resize(need);
  void* p = buf->data();
  size_t space = buf->size() * sizeof(double);
  return static_cast<double*>(
      std::align(64, static_cast<size_t>(n) * sizeof(double), p, space));
}

// C[0:MR, 0:NR] (row stride ldc) += A strip * B strip over kc steps. The
// tile lives in registers; each element adds its products in ascending k,
// one rounded multiply and one rounded add per step.
template <class V, int kMr, int kNv>
[[gnu::always_inline]] inline void MicroKernel(int64_t kc, const double* a,
                                               const double* b, double* c,
                                               int64_t ldc) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  constexpr int kNr = kNv * kLanes;
  V acc[kMr][kNv];
#pragma GCC unroll 32
  for (int i = 0; i < kMr; ++i) {
#pragma GCC unroll 32
    for (int v = 0; v < kNv; ++v) {
      __builtin_memcpy(&acc[i][v], c + i * ldc + v * kLanes, sizeof(V));
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    V bv[kNv];
#pragma GCC unroll 32
    for (int v = 0; v < kNv; ++v) {
      __builtin_memcpy(&bv[v], b + p * kNr + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 32
    for (int i = 0; i < kMr; ++i) {
      const V av = a[p * kMr + i] - V{};  // broadcast; x - 0 keeps -0
#pragma GCC unroll 32
      for (int v = 0; v < kNv; ++v) acc[i][v] += av * bv[v];
    }
  }
#pragma GCC unroll 32
  for (int i = 0; i < kMr; ++i) {
#pragma GCC unroll 32
    for (int v = 0; v < kNv; ++v) {
      __builtin_memcpy(c + i * ldc + v * kLanes, &acc[i][v], sizeof(V));
    }
  }
}

// Packs alpha * A[0:mc, 0:kc] (row stride lda) into MR-row strips, each
// stored k-major; rows past mc are zero.
template <int kMr>
[[gnu::always_inline]] inline void PackA(double alpha, const double* a,
                                         int64_t lda, int64_t mc, int64_t kc,
                                         double* out) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMr, out += kMr * kc) {
    const int64_t rows = std::min<int64_t>(kMr, mc - i0);
    for (int64_t i = 0; i < rows; ++i) {
      const double* arow = a + (i0 + i) * lda;
      for (int64_t p = 0; p < kc; ++p) out[p * kMr + i] = alpha * arow[p];
    }
    for (int64_t i = rows; i < kMr; ++i) {
      for (int64_t p = 0; p < kc; ++p) out[p * kMr + i] = 0.0;
    }
  }
}

// Packs B[0:kc, 0:nc] (row stride ldb) into NR-column strips, each stored
// k-major; columns past nc are zero.
template <int kNr>
[[gnu::always_inline]] inline void PackB(const double* b, int64_t ldb,
                                         int64_t kc, int64_t nc, double* out) {
  for (int64_t j0 = 0; j0 < nc; j0 += kNr, out += kNr * kc) {
    const int64_t cols = std::min<int64_t>(kNr, nc - j0);
    for (int64_t p = 0; p < kc; ++p) {
      const double* brow = b + p * ldb + j0;
      double* dst = out + p * kNr;
      for (int64_t j = 0; j < cols; ++j) dst[j] = brow[j];
      for (int64_t j = cols; j < kNr; ++j) dst[j] = 0.0;
    }
  }
}

// C += alpha * A * B over packed panels, with an MR x (kNv * lanes of V)
// register tile. Partial tiles at the matrix edges (and shapes thinner than
// one tile) run through a zeroed MR x NR staging tile.
template <int kLanes, int kMr, int kNv>
[[gnu::always_inline]] inline void PackedGemm(double alpha, const double* pa,
                                              const double* pb, double* pc,
                                              int64_t m, int64_t k,
                                              int64_t n) {
  typedef double V __attribute__((vector_size(kLanes * sizeof(double))));
  constexpr int kNr = kNv * kLanes;
  thread_local std::vector<double> a_buf;
  thread_local std::vector<double> b_buf;
  // Sized to this call's panels: at most (KC x NC + MC x KC) doubles.
  const int64_t kc_max = std::min(k, kKc);
  double* pack_a =
      ThreadScratch(&a_buf, RoundUp(std::min(m, kMc), kMr) * kc_max);
  double* pack_b =
      ThreadScratch(&b_buf, RoundUp(std::min(n, kNc), kNr) * kc_max);
  alignas(64) double edge[kMr * kNr] = {};

  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc0 = 0; pc0 < k; pc0 += kKc) {
      const int64_t kc = std::min(kKc, k - pc0);
      PackB<kNr>(pb + pc0 * n + jc, n, kc, nc, pack_b);
      for (int64_t ic = 0; ic < m; ic += kMc) {
        const int64_t mc = std::min(kMc, m - ic);
        PackA<kMr>(alpha, pa + ic * k + pc0, k, mc, kc, pack_a);
        for (int64_t jr = 0; jr < nc; jr += kNr) {
          const int64_t cols = std::min<int64_t>(kNr, nc - jr);
          const double* b_strip = pack_b + jr * kc;
          for (int64_t ir = 0; ir < mc; ir += kMr) {
            const int64_t rows = std::min<int64_t>(kMr, mc - ir);
            const double* a_strip = pack_a + ir * kc;
            double* ctile = pc + (ic + ir) * n + jc + jr;
            if (rows == kMr && cols == kNr) {
              MicroKernel<V, kMr, kNv>(kc, a_strip, b_strip, ctile, n);
              continue;
            }
            for (int64_t i = 0; i < rows; ++i) {
              std::copy_n(ctile + i * n, cols, edge + i * kNr);
            }
            MicroKernel<V, kMr, kNv>(kc, a_strip, b_strip, edge, kNr);
            for (int64_t i = 0; i < rows; ++i) {
              std::copy_n(edge + i * kNr, cols, ctile + i * n);
            }
          }
        }
      }
    }
  }
}

// One instantiation per ISA. Register budgets (accumulators + B vectors +
// A broadcast + product temporary): 8x24 uses 29 of 32 zmm; 6x8 and 6x4 use
// 16 of 16 ymm/xmm.
[[gnu::target("avx512f")]] void KernelAvx512(double alpha, const double* a,
                                             const double* b, double* c,
                                             int64_t m, int64_t k, int64_t n) {
  PackedGemm<8, 8, 3>(alpha, a, b, c, m, k, n);
}

[[gnu::target("avx2")]] void KernelAvx2(double alpha, const double* a,
                                        const double* b, double* c, int64_t m,
                                        int64_t k, int64_t n) {
  PackedGemm<4, 6, 2>(alpha, a, b, c, m, k, n);
}

void KernelBaseline(double alpha, const double* a, const double* b, double* c,
                    int64_t m, int64_t k, int64_t n) {
  PackedGemm<2, 6, 2>(alpha, a, b, c, m, k, n);
}

// Dgemm over one ISA's kernel; the beta pass is the seed loop's.
template <KernelFn kKernel>
void DgemmVariant(double alpha, const DenseMatrix& a, const DenseMatrix& b,
                  double beta, DenseMatrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();

  if (beta != 1.0) {
    double* pc = c->mutable_data();
    if (beta == 0.0) {
      std::fill(pc, pc + m * n, 0.0);
    } else {
      for (int64_t idx = 0; idx < m * n; ++idx) pc[idx] *= beta;
    }
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  kKernel(alpha, a.data(), b.data(), c->mutable_data(), m, k, n);
}

}  // namespace

namespace internal {

std::vector<DgemmVariantInfo> SupportedDgemmVariants() {
  __builtin_cpu_init();  // callers may run before libgcc's own constructor
  std::vector<DgemmVariantInfo> variants;
  if (__builtin_cpu_supports("avx512f")) {
    variants.push_back({"avx512f", 8, 24, &DgemmVariant<KernelAvx512>});
  }
  if (__builtin_cpu_supports("avx2")) {
    variants.push_back({"avx2", 6, 8, &DgemmVariant<KernelAvx2>});
  }
  variants.push_back({"baseline", 6, 4, &DgemmVariant<KernelBaseline>});
  return variants;
}

}  // namespace internal

void Dgemm(double alpha, const DenseMatrix& a, const DenseMatrix& b,
           double beta, DenseMatrix* c) {
  static const internal::DgemmFn best =
      internal::SupportedDgemmVariants().front().fn;
  best(alpha, a, b, beta, c);
}

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  Dgemm(1.0, a, b, 0.0, &c);
  return c;
}

void DgemmReference(double alpha, const DenseMatrix& a, const DenseMatrix& b,
                    double beta, DenseMatrix* c) {
  assert(a.cols() == b.rows());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        sum += a.At(i, kk) * b.At(kk, j);
      }
      c->Set(i, j, alpha * sum + beta * c->At(i, j));
    }
  }
}

}  // namespace distme::blas
