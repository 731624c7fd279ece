// google-benchmark microbenchmarks for the local kernels: packed DGEMM vs the
// naive reference, the sparse kernels, and block-level dispatch.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "blas/block_ops.h"
#include "blas/gemm.h"
#include "blas/spmm.h"
#include "common/random.h"

namespace distme::blas {
namespace {

DenseMatrix RandomDense(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::Random(n, n, &rng);
}

CsrMatrix RandomCsr(int64_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  const int64_t target = static_cast<int64_t>(density * n * n);
  for (int64_t i = 0; i < target; ++i) {
    t.push_back({static_cast<int64_t>(rng.NextBounded(n)),
                 static_cast<int64_t>(rng.NextBounded(n)), rng.NextDouble()});
  }
  return *CsrMatrix::FromTriplets(n, n, t);
}

void BM_Dgemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  DenseMatrix a = RandomDense(n, 1);
  DenseMatrix b = RandomDense(n, 2);
  DenseMatrix c(n, n);
  for (auto _ : state) {
    Dgemm(1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.mutable_data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Dgemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// C += A * B at the shapes perfbench's workloads multiply: dense_general's
// 256-blocks, GNMF's W^T W / H H^T (512x128x128, 128x512x128) and a
// matrix-vector block, which takes the unpacked loop.
void BM_DgemmShape(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  Rng rng(10);
  DenseMatrix a = DenseMatrix::Random(m, k, &rng);
  DenseMatrix b = DenseMatrix::Random(k, n, &rng);
  DenseMatrix c(m, n);
  for (auto _ : state) {
    Dgemm(1.0, a, b, 1.0, &c);
    benchmark::DoNotOptimize(c.mutable_data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_DgemmShape)
    ->ArgNames({"m", "k", "n"})
    ->Args({256, 256, 256})
    ->Args({512, 128, 128})
    ->Args({128, 512, 128})
    ->Args({256, 256, 1});

void BM_DgemmReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  DenseMatrix a = RandomDense(n, 1);
  DenseMatrix b = RandomDense(n, 2);
  DenseMatrix c(n, n);
  for (auto _ : state) {
    DgemmReference(1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.mutable_data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_DgemmReference)->Arg(64)->Arg(128)->Arg(256);

void BM_DcsrMm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const double density = 1.0 / static_cast<double>(state.range(1));
  CsrMatrix a = RandomCsr(n, density, 3);
  DenseMatrix b = RandomDense(n, 4);
  DenseMatrix c(n, n);
  for (auto _ : state) {
    c.Fill(0.0);
    DcsrMm(a, b, &c);
    benchmark::DoNotOptimize(c.mutable_data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.nnz() * n);
}
BENCHMARK(BM_DcsrMm)->Args({256, 10})->Args({256, 100})->Args({512, 100});

void BM_BlockMultiplyAccumulate(benchmark::State& state) {
  const int64_t n = state.range(0);
  Block a = Block::Dense(RandomDense(n, 5));
  Block b = Block::Dense(RandomDense(n, 6));
  DenseMatrix acc(n, n);
  for (auto _ : state) {
    Status st = MultiplyAccumulate(a, b, &acc);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_BlockMultiplyAccumulate)->Arg(128)->Arg(256);

void BM_TransposeBlock(benchmark::State& state) {
  const int64_t n = state.range(0);
  Block a = Block::Dense(RandomDense(n, 7));
  for (auto _ : state) {
    Block t = TransposeBlock(a);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_TransposeBlock)->Arg(256)->Arg(512);

void BM_ElementWiseMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Block a = Block::Dense(RandomDense(n, 8));
  Block b = Block::Dense(RandomDense(n, 9));
  for (auto _ : state) {
    auto r = ElementWise(ElementWiseOp::kMul, a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8 * 3);
}
BENCHMARK(BM_ElementWiseMul)->Arg(256)->Arg(512);

}  // namespace
}  // namespace distme::blas

// BENCHMARK_MAIN with the shared --trace-out= flag stripped out before
// benchmark::Initialize (which rejects flags it does not recognize).
int main(int argc, char** argv) {
  distme::bench::BenchObs obs(argc, argv);
  std::vector<char*> args = distme::bench::BenchObs::StripFlags(argc, argv);
  int rest = static_cast<int>(args.size());
  benchmark::Initialize(&rest, args.data());
  if (benchmark::ReportUnrecognizedArguments(rest, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
