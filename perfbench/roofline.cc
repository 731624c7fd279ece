#include "roofline.h"

#include <immintrin.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Twelve independent accumulator chains hide the FMA latency, so the loop
// is bound by FMA issue rate. The inner loops are fully unrolled so the
// chains live in registers. Returns flops performed (2 per lane per FMA).
// The result feeds `*sink` so the chains cannot be optimised away.
constexpr int kChains = 12;

__attribute__((target("avx512f"))) double FmaAvx512(int64_t iters,
                                                    double* sink) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(1.0 + c * 1e-3);
  const __m512d x = _mm512_set1_pd(0.999999);
  const __m512d y = _mm512_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], x, y);
  }
  double lanes[8];
  __m512d sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm512_add_pd(sum, acc[c]);
  _mm512_storeu_pd(lanes, sum);
  for (double lane : lanes) *sink += lane;
  return 2.0 * 8 * kChains * static_cast<double>(iters);
}

__attribute__((target("avx2,fma"))) double FmaAvx2(int64_t iters,
                                                   double* sink) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(1.0 + c * 1e-3);
  const __m256d x = _mm256_set1_pd(0.999999);
  const __m256d y = _mm256_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], x, y);
  }
  double lanes[4];
  __m256d sum = acc[0];
  for (int c = 1; c < kChains; ++c) sum = _mm256_add_pd(sum, acc[c]);
  _mm256_storeu_pd(lanes, sum);
  *sink += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return 2.0 * 4 * kChains * static_cast<double>(iters);
}

double FmaScalar(int64_t iters, double* sink) {
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 1.0 + c * 1e-3;
  for (int64_t i = 0; i < iters; ++i) {
#pragma GCC unroll 12
    for (int c = 0; c < kChains; ++c) acc[c] = std::fma(acc[c], 0.999999, 1e-7);
  }
  for (int c = 0; c < kChains; ++c) *sink += acc[c];
  return 2.0 * kChains * static_cast<double>(iters);
}

double PeakGflops() {
  __builtin_cpu_init();
  auto kernel = FmaScalar;
  if (__builtin_cpu_supports("avx512f")) {
    kernel = FmaAvx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    kernel = FmaAvx2;
  }
  double sink = 0;
  double best = 0;
  // Best of several ~50 ms bursts: the peak is what the core can do, so the
  // fastest burst is the least disturbed one.
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    const double flops = kernel(8'000'000, &sink);
    best = std::max(best, flops / Seconds(t0, Clock::now()) * 1e-9);
  }
  volatile double keep = sink;  // the chains' result must be computed
  (void)keep;
  return best;
}

void Triad(double* a, const double* b, const double* c, int64_t n) {
  const double s = 3.0;
  for (int64_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
}

}  // namespace

Roofline MeasureRoofline(int threads) {
  Roofline r;
  r.threads = std::max(1, threads);
  r.peak_gflops = PeakGflops();

  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  r.llc_bytes = llc > 0 ? llc : 0;
  const int64_t target =
      std::max<int64_t>(4 * r.llc_bytes, int64_t{64} << 20);  // all arrays
  const int64_t n = target / 3 / static_cast<int64_t>(sizeof(double)) + 1;
  r.triad_bytes = 3 * n * static_cast<int64_t>(sizeof(double));

  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    const int64_t chunk = (n + r.threads - 1) / r.threads;
    for (int t = 0; t < r.threads; ++t) {
      const int64_t lo = std::min(n, t * chunk);
      const int64_t hi = std::min(n, lo + chunk);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };
  // First touch on the thread that will stream the slice.
  parallel([&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  for (int pass = 0; pass < 4; ++pass) {
    const auto t0 = Clock::now();
    parallel([&](int64_t lo, int64_t hi) {
      Triad(a.get() + lo, b.get() + lo, c.get() + lo, hi - lo);
    });
    const double s = Seconds(t0, Clock::now());
    r.stream_gbps =
        std::max(r.stream_gbps, static_cast<double>(r.triad_bytes) / s * 1e-9);
  }
  if (a[n / 2] != 7.0) r.stream_gbps = 0;  // the passes computed garbage
  return r;
}

}  // namespace perfbench
