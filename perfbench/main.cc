// perfbench: the repository's wall-clock benchmark (see README.md beside
// this file). One process runs one workload through the public
// core::Session API on ClusterConfig::Local(2, 2) in a closed loop with one
// client: the next op is issued only after the previous one returned. Every
// op's output is checked. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it times traced and untraced ops alternately and prints the
// per-layer metrics, taken from benchmark-owned spans, the MMReport fields
// the API returns, and replays of the workload's own block-level calls. The
// last line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blas/block_ops.h"
#include "blas/gemm.h"
#include "core/gnmf.h"
#include "core/session.h"
#include "gpu/device.h"
#include "gpumm/streaming.h"
#include "matrix/generator.h"
#include "matrix/serialize.h"
#include "mm/methods.h"
#include "roofline.h"

namespace perfbench {
namespace {

using namespace distme;  // NOLINT: the benchmark drives the whole engine

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// Spans: benchmark-owned, kept in memory, written once as Chrome trace JSON.

struct Span {
  const char* name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int op = -1;  ///< op id, or -1 for replays outside the op loop
};

class SpanLog {
 public:
  bool enabled = false;
  int op = -1;

  int Begin(const char* name) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, Now(), 0, stack_.empty() ? -1 : stack_.back(),
                          op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name, s.start * 1e6,
                    (s.end - s.start) * 1e6, s.op, s.parent);
      out << line << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;  // used from the op-loop thread only

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(g_spans.Begin(name)) {}
  ~ScopedSpan() { g_spans.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// The DistME planner with a span and a clock around each Choose, so the
// planner's share of a Multiply is measured where Session calls it.
class TimedPlanner : public core::Planner {
 public:
  std::string name() const override { return inner_.name(); }
  [[nodiscard]] Result<std::unique_ptr<mm::Method>> Choose(
      const mm::MMProblem& problem,
      const ClusterConfig& cluster) const override {
    ScopedSpan span("mm.plan");
    const double t0 = Now();
    auto method = inner_.Choose(problem, cluster);
    seconds_ += Now() - t0;
    return method;
  }
  const core::Planner& inner() const { return inner_; }
  double TakeSeconds() const {
    const double s = seconds_;
    seconds_ = 0;
    return s;
  }

 private:
  core::DistmePlanner inner_;
  mutable double seconds_ = 0;  // op-loop thread only
};

// ---------------------------------------------------------------------------
// Workloads. Every generator seed derives from --seed.

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Workload {
  std::string name;
  bool gnmf = false;
  GeneratorOptions a;  ///< gnmf: the rating matrix V
  GeneratorOptions b;
  int prefetch_depth = 0;
  int64_t cpmm_tasks = 0;  ///< > 0: pinned MultiplyWith(CpmmMethod(n))
  core::GnmfOptions gnmf_options;
};

GeneratorOptions Uniform(int64_t rows, int64_t cols, int64_t bs,
                         double sparsity, uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = bs;
  g.sparsity = sparsity;
  g.seed = seed;
  return g;
}

// Sizes are chosen so that one op takes roughly 0.05-0.2 s on a 4-core
// x86 box, which puts well over 100 timed ops into a 20 s run (the 90th
// percentile then has more than 10 samples beyond it). --tiny shrinks every
// workload to a few milliseconds per op for the benchmark's own tests.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  Workload* w) {
  w->name = name;
  const uint64_t sa = DeriveSeed(seed, 1);
  const uint64_t sb = DeriveSeed(seed, 2);
  if (name == "dense_general") {
    const int64_t n = tiny ? 96 : 512;
    const int64_t bs = tiny ? 32 : 256;
    w->a = Uniform(n, n, bs, 1.0, sa);
    w->b = Uniform(n, n, bs, 1.0, sb);
    return true;
  }
  if (name == "sparse_common_dim") {
    const int64_t m = tiny ? 64 : 1024;
    const int64_t k = tiny ? 2048 : 65536;
    const int64_t bs = tiny ? 32 : 512;
    const double density = tiny ? 0.01 : 0.001;
    w->a = Uniform(m, k, bs, density, sa);
    w->b = Uniform(k, m, bs, density, sb);
    w->cpmm_tasks = 8;
    return true;
  }
  if (name == "gnmf_netflix") {
    w->gnmf = true;
    w->a = tiny ? RatingMatrixOptions(Netflix(), 32, 0.002)
                : RatingMatrixOptions(Netflix(), 512, 0.025);
    w->a.seed = sa;
    w->prefetch_depth = 2;
    w->gnmf_options.factor_dim = tiny ? 8 : 128;
    w->gnmf_options.iterations = 1;
    w->gnmf_options.seed = sb;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Set-up: Session construction plus Generate of every input.

struct Setup {
  std::unique_ptr<core::Session> session;
  core::Matrix a;
  core::Matrix b;
};

Result<Setup> MakeSetup(const Workload& w,
                        const std::shared_ptr<TimedPlanner>& planner) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  options.planner = planner;
  options.real.prefetch_depth = w.prefetch_depth;
  // θt is enforced as in the paper's system, which is also what makes
  // MMReport.peak_task_memory_bytes a measurement.
  options.real.enforce_task_memory = true;
  Setup s;
  s.session = std::make_unique<core::Session>(options);
  DISTME_ASSIGN_OR_RETURN(s.a, s.session->Generate(w.a));
  if (!w.gnmf) {
    DISTME_ASSIGN_OR_RETURN(s.b, s.session->Generate(w.b));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output checks.

// Visits every stored element of a block as (r0 + row, c0 + col, value).
template <typename Fn>
void ForEachElement(const Block& block, int64_t r0, int64_t c0, Fn&& fn) {
  if (block.IsDense()) {
    const DenseMatrix& d = block.dense();
    for (int64_t r = 0; r < d.rows(); ++r) {
      const double* row = d.row(r);
      for (int64_t c = 0; c < d.cols(); ++c) fn(r0 + r, c0 + c, row[c]);
    }
    return;
  }
  const CsrMatrix& s = block.sparse();
  for (int64_t r = 0; r < s.rows(); ++r) {
    for (int64_t p = s.row_ptr()[r]; p < s.row_ptr()[r + 1]; ++p) {
      fn(r0 + r, c0 + s.col_idx()[p], s.values()[p]);
    }
  }
}

// Visits every stored element of a grid with global coordinates.
template <typename Fn>
void ForEachElement(const BlockGrid& g, Fn&& fn) {
  const int64_t bs = g.shape().block_size;
  for (const auto& [idx, block] : g.blocks()) {
    ForEachElement(block, idx.i * bs, idx.j * bs, fn);
  }
}

// Order-independent over blocks (block hashes are combined by addition), so
// it does not depend on the grid's hash-map iteration order; bitwise within
// a block.
uint64_t HashGrid(const BlockGrid& g) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h * 0xFF51AFD7ED558CCDULL;
  };
  auto words = [&](uint64_t h, const void* p, size_t bytes) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i + 8 <= bytes; i += 8) {
      uint64_t v;
      std::memcpy(&v, c + i, 8);
      h = mix(h, v);
    }
    return h;
  };
  uint64_t total = 0;
  for (const auto& [idx, block] : g.blocks()) {
    uint64_t h = mix(mix(static_cast<uint64_t>(idx.i),
                         static_cast<uint64_t>(idx.j)),
                     block.IsDense() ? 1 : 2);
    if (block.IsDense()) {
      const DenseMatrix& d = block.dense();
      h = words(h, d.data(), static_cast<size_t>(d.SizeBytes()));
    } else {
      const CsrMatrix& s = block.sparse();
      h = words(h, s.values().data(), s.values().size() * 8);
      h = words(h, s.col_idx().data(), s.col_idx().size() * 8);
      h = words(h, s.row_ptr().data(), s.row_ptr().size() * 8);
    }
    total += h;
  }
  return total;
}

std::vector<double> MatVec(const BlockGrid& g, const std::vector<double>& x,
                           bool absolute) {
  std::vector<double> y(static_cast<size_t>(g.shape().rows), 0.0);
  ForEachElement(g, [&](int64_t r, int64_t c, double v) {
    y[static_cast<size_t>(r)] +=
        (absolute ? std::fabs(v) : v) * x[static_cast<size_t>(c)];
  });
  return y;
}

// Freivalds: C·x must equal A·(B·x) for a seeded x with entries in [1, 2),
// within a rounding bound scaled by |A|·(|B|·x).
bool FreivaldsOk(const BlockGrid& a, const BlockGrid& b, const BlockGrid& c,
                 uint64_t seed) {
  std::vector<double> x(static_cast<size_t>(b.shape().cols));
  uint64_t s = seed;
  for (double& v : x) {
    s = DeriveSeed(s, 3);
    v = 1.0 + static_cast<double>(s >> 11) * 0x1.0p-53;
  }
  const std::vector<double> cx = MatVec(c, x, false);
  const std::vector<double> abx = MatVec(a, MatVec(b, x, false), false);
  const std::vector<double> bound = MatVec(a, MatVec(b, x, true), true);
  for (size_t i = 0; i < cx.size(); ++i) {
    if (!std::isfinite(cx[i]) ||
        std::fabs(cx[i] - abx[i]) > 1e-9 * bound[i] + 1e-300) {
      return false;
    }
  }
  return true;
}

DenseMatrix Gram(const DenseMatrix& m, bool rows_are_samples) {
  // rows_are_samples: MᵀM (f×f for a users×f matrix); otherwise M·Mᵀ.
  const DenseMatrix t = rows_are_samples ? m : m.Transpose();
  const int64_t f = t.cols();
  DenseMatrix g(f, f);
  for (int64_t r = 0; r < t.rows(); ++r) {
    const double* row = t.row(r);
    for (int64_t p = 0; p < f; ++p) {
      double* out = g.mutable_row(p);
      for (int64_t q = 0; q < f; ++q) out[q] += row[p] * row[q];
    }
  }
  return g;
}

// ‖V − W·H‖²_F = ‖V‖² − 2⟨V, WH⟩ + Σ (WᵀW ∘ HHᵀ), without forming W·H.
double LossSquared(const BlockGrid& v, const DenseMatrix& w,
                   const DenseMatrix& h) {
  const DenseMatrix ht = h.Transpose();
  const int64_t f = w.cols();
  double vv = 0;
  double vwh = 0;
  ForEachElement(v, [&](int64_t r, int64_t c, double x) {
    if (x == 0.0) return;
    const double* wr = w.row(r);
    const double* hc = ht.row(c);
    double dot = 0;
    for (int64_t p = 0; p < f; ++p) dot += wr[p] * hc[p];
    vv += x * x;
    vwh += x * dot;
  });
  const DenseMatrix wtw = Gram(w, true);
  const DenseMatrix hht = Gram(h, false);
  double cross = 0;
  for (int64_t i = 0; i < wtw.num_elements(); ++i) {
    cross += wtw.data()[i] * hht.data()[i];
  }
  return vv - 2 * vwh + cross;
}

bool FiniteNonNegative(const DenseMatrix& m) {
  for (int64_t i = 0; i < m.num_elements(); ++i) {
    const double x = m.data()[i];
    if (!std::isfinite(x) || x < 0) return false;
  }
  return true;
}

// Flips one stored value of the grid; the tests use it to prove the checks
// catch a wrong product.
void Corrupt(BlockGrid* g) {
  BlockGrid out(g->shape());
  bool done = false;
  for (const auto& [idx, block] : g->blocks()) {
    DenseMatrix d = block.ToDense();
    if (!done && d.num_elements() > 0) {
      d.Set(0, 0, -d.At(0, 0) - 1.0);
      done = true;
    }
    (void)out.Put(idx, Block::Dense(std::move(d)));
  }
  *g = std::move(out);
}

// Useful flops of A·B: 2·Σₖ nnz(A:,k)·nnz(Bk,:). `visit_a(fn)` and
// `visit_b(fn)` enumerate the operands' elements; `inner` is the common
// dimension.
template <typename VisitA, typename VisitB>
double UsefulFlops(int64_t inner, VisitA&& visit_a, VisitB&& visit_b) {
  std::vector<double> col_a(static_cast<size_t>(inner), 0.0);
  std::vector<double> row_b(static_cast<size_t>(inner), 0.0);
  visit_a([&](int64_t, int64_t c, double v) {
    if (v != 0.0) col_a[static_cast<size_t>(c)] += 1;
  });
  visit_b([&](int64_t r, int64_t, double v) {
    if (v != 0.0) row_b[static_cast<size_t>(r)] += 1;
  });
  double flops = 0;
  for (size_t k = 0; k < col_a.size(); ++k) flops += 2 * col_a[k] * row_b[k];
  return flops;
}

double UsefulFlops(const BlockGrid& a, const BlockGrid& b) {
  return UsefulFlops(
      a.shape().cols, [&](auto&& fn) { ForEachElement(a, fn); },
      [&](auto&& fn) { ForEachElement(b, fn); });
}

double UsefulFlops(const Block& a, const Block& b) {
  return UsefulFlops(
      a.cols(), [&](auto&& fn) { ForEachElement(a, 0, 0, fn); },
      [&](auto&& fn) { ForEachElement(b, 0, 0, fn); });
}

// The checker owns the reference state of a run: the first op's output is
// verified in full, every later op must reproduce it bitwise.
class Checker {
 public:
  Checker(const Workload& w, const Setup& s, uint64_t seed)
      : w_(w), s_(s), seed_(seed) {}

  // Returns whether the op's outputs are correct. `outputs` holds C, or
  // (W, H) for GNMF.
  bool Check(std::vector<BlockGrid> outputs, bool corrupt) {
    if (corrupt) Corrupt(&outputs[0]);
    uint64_t hash = 0;
    for (const BlockGrid& g : outputs) hash = hash * 31 + HashGrid(g);
    if (have_first_) return hash == first_hash_;
    have_first_ = true;
    const bool ok = w_.gnmf ? CheckGnmf(outputs[0], outputs[1])
                            : FreivaldsOk(s_.a.Collect(), s_.b.Collect(),
                                          outputs[0], DeriveSeed(seed_, 4));
    // A wrong first output makes every op that reproduces it wrong too.
    first_hash_ = ok ? hash : ~hash;
    return ok;
  }

 private:
  bool CheckGnmf(const BlockGrid& wg, const BlockGrid& hg) {
    const DenseMatrix w = wg.ToDense();
    const DenseMatrix h = hg.ToDense();
    if (!FiniteNonNegative(w) || !FiniteNonNegative(h)) return false;
    // The initial factors exactly as RunGnmf generates them.
    const BlockGrid v = s_.a.Collect();
    const int64_t bs = v.shape().block_size;
    const auto& o = w_.gnmf_options;
    const DenseMatrix w0 =
        GenerateUniform(Uniform(v.shape().rows, o.factor_dim, bs, 1.0, o.seed))
            .ToDense();
    const DenseMatrix h0 = GenerateUniform(Uniform(o.factor_dim,
                                                   v.shape().cols, bs, 1.0,
                                                   o.seed + 1))
                               .ToDense();
    return LossSquared(v, w, h) < LossSquared(v, w0, h0);
  }

  const Workload& w_;
  const Setup& s_;
  uint64_t seed_;
  bool have_first_ = false;
  uint64_t first_hash_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics and output.

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Per-op records and the traced run's replays.

struct OpRecord {
  int op = 0;
  double wall = 0;
  bool traced = false;
  double call_wall = 0;  ///< Multiply/MultiplyWith or RunGnmf call
  double plan_s = 0;
  std::vector<engine::MMReport> reports;
};

// One Multiply of the workload, kept for the block-level replays.
struct Product {
  BlockGrid a;
  BlockGrid b;
  BlockGrid c;
  std::unique_ptr<mm::Method> method;
};

// Operands of one element-wise call of the GNMF update.
struct ElementWiseCall {
  blas::ElementWiseOp op;
  BlockGrid a;
  BlockGrid b;
};

struct SessionReplay {
  double wall = 0;
  double multiply_wall = 0;
  double overhead = 0;  ///< Σ (Multiply call wall − MMReport.elapsed_seconds)
  std::vector<Product> products;
  std::vector<ElementWiseCall> elementwise;
};

// The Session calls core::RunGnmf makes for one iteration, each wrapped in a
// span, so the GNMF op's wall can be split by call. Runs the same inputs
// and seeds as the op.
Result<SessionReplay> ReplayGnmf(core::Session* s, const core::Matrix& v,
                                 const core::GnmfOptions& o,
                                 const TimedPlanner& planner) {
  SessionReplay r;
  // Operands are collected after the timed calls.
  struct Call {
    core::Matrix a, b, c;
    blas::ElementWiseOp op = blas::ElementWiseOp::kAdd;
  };
  std::vector<Call> multiplies, elementwise_calls;
  const double t0 = Now();
  ScopedSpan root("core.gnmf_replay");
  const int64_t bs = v.shape().block_size;
  core::Matrix w;
  core::Matrix h;
  {
    ScopedSpan span("core.Generate");
    DISTME_ASSIGN_OR_RETURN(
        w, s->Generate(Uniform(v.rows(), o.factor_dim, bs, 1.0, o.seed)));
    DISTME_ASSIGN_OR_RETURN(
        h, s->Generate(Uniform(o.factor_dim, v.cols(), bs, 1.0, o.seed + 1)));
  }
  auto multiply = [&](const core::Matrix& a,
                      const core::Matrix& b) -> Result<core::Matrix> {
    const double m0 = Now();
    Result<core::Matrix> c = [&] {
      ScopedSpan span("core.Multiply");
      return s->Multiply(a, b);
    }();
    const double wall = Now() - m0;
    r.multiply_wall += wall;
    DISTME_RETURN_NOT_OK(c.status());
    r.overhead += wall - s->history().back().elapsed_seconds;
    multiplies.push_back(Call{a, b, *c});
    return c;
  };
  auto transpose = [&](const core::Matrix& a) {
    ScopedSpan span("core.Transpose");
    return s->Transpose(a);
  };
  auto elementwise = [&](blas::ElementWiseOp op, const core::Matrix& a,
                         const core::Matrix& b) {
    elementwise_calls.push_back(Call{a, b, {}, op});
    ScopedSpan span("core.ElementWise");
    return s->ElementWise(op, a, b, o.epsilon);
  };
  using Op = blas::ElementWiseOp;
  DISTME_ASSIGN_OR_RETURN(core::Matrix wt, transpose(w));
  DISTME_ASSIGN_OR_RETURN(core::Matrix wtv, multiply(wt, v));
  DISTME_ASSIGN_OR_RETURN(core::Matrix wtw, multiply(wt, w));
  DISTME_ASSIGN_OR_RETURN(core::Matrix wtwh, multiply(wtw, h));
  DISTME_ASSIGN_OR_RETURN(core::Matrix h_num, elementwise(Op::kMul, h, wtv));
  DISTME_ASSIGN_OR_RETURN(h, elementwise(Op::kDiv, h_num, wtwh));
  DISTME_ASSIGN_OR_RETURN(core::Matrix ht, transpose(h));
  DISTME_ASSIGN_OR_RETURN(core::Matrix vht, multiply(v, ht));
  DISTME_ASSIGN_OR_RETURN(core::Matrix hht, multiply(h, ht));
  DISTME_ASSIGN_OR_RETURN(core::Matrix whht, multiply(w, hht));
  DISTME_ASSIGN_OR_RETURN(core::Matrix w_num, elementwise(Op::kMul, w, vht));
  DISTME_ASSIGN_OR_RETURN(w, elementwise(Op::kDiv, w_num, whht));
  r.wall = Now() - t0;
  s->ClearHistory();
  for (const Call& m : multiplies) {
    // The method the op's planner chose; planning is deterministic.
    DISTME_ASSIGN_OR_RETURN(
        std::unique_ptr<mm::Method> method,
        planner.inner().Choose({m.a.Descriptor(), m.b.Descriptor()},
                               s->cluster()));
    r.products.push_back(Product{m.a.Collect(), m.b.Collect(), m.c.Collect(),
                                 std::move(method)});
  }
  for (const Call& e : elementwise_calls) {
    r.elementwise.push_back(ElementWiseCall{e.op, e.a.Collect(), e.b.Collect()});
  }
  return r;
}

// Runs `fn(i)` over items 0, 1, ... (cycling) until at least `min_seconds`
// have passed; `fn` returns the work it did (flops or bytes). Returns work
// per second, or 0 when there are no items.
template <typename Fn>
double Rate(size_t items, double min_seconds, const char* span_name, Fn&& fn) {
  if (items == 0) return 0;
  ScopedSpan span(span_name);
  double work = 0;
  size_t i = 0;
  const double t0 = Now();
  double elapsed = 0;
  do {
    work += fn(i % items);
    ++i;
    elapsed = Now() - t0;
  } while (elapsed < min_seconds);
  return work / elapsed;
}

double DenseBytes(const Block& b) { return 8.0 * b.rows() * b.cols(); }

struct KernelStats {
  double dgemm_calls = 0, dgemm_bytes = 0;
  double spmm_calls = 0, spmm_bytes = 0;
  double add_calls = 0, add_bytes = 0;
  double ew_calls = 0, ew_bytes = 0;
  double dgemm_gflops = 0, spmm_gflops = 0, add_gbps = 0, ew_gbps = 0;
  double ser_dense = 0, ser_csr = 0, deser_dense = 0, deser_csr = 0;
  double gpu_host_ratio = 0;
  double gpu_pcie_bytes = 0;
};

// Computed per-op counts and replayed rates of the blas and matrix layers
// on the workload's own blocks.
Result<KernelStats> ReplayKernels(const std::vector<Product>& products,
                                  const std::vector<ElementWiseCall>& ew,
                                  const ClusterConfig& cluster) {
  constexpr double kMinSeconds = 0.15;
  KernelStats k;

  struct Pair {
    const Block* a;
    const Block* b;
    DenseMatrix* acc;
    double flops;
  };
  std::vector<Pair> dense_pairs, sparse_pairs;
  std::map<std::pair<int64_t, int64_t>, DenseMatrix> accs;  // by shape
  std::vector<const Block*> dense_blocks, csr_blocks, out_blocks;
  for (const Product& g : products) {
    const mm::MMProblem problem{mm::MatrixDescriptor::FromGrid(g.a),
                                mm::MatrixDescriptor::FromGrid(g.b)};
    for (const auto& [idx, block] : g.a.blocks()) {
      (block.IsDense() ? dense_blocks : csr_blocks).push_back(&block);
    }
    for (const auto& [idx, block] : g.b.blocks()) {
      (block.IsDense() ? dense_blocks : csr_blocks).push_back(&block);
    }
    for (const auto& [idx, block] : g.c.blocks()) {
      out_blocks.push_back(&block);
      dense_blocks.push_back(&block);
    }
    // Every method computes each present (i, k, j) block product once.
    for (int64_t i = 0; i < problem.I(); ++i) {
      for (int64_t kk = 0; kk < problem.K(); ++kk) {
        if (!g.a.Has({i, kk})) continue;
        const Block& ab = g.a.blocks().at({i, kk});
        for (int64_t j = 0; j < problem.J(); ++j) {
          if (!g.b.Has({kk, j})) continue;
          const Block& bb = g.b.blocks().at({kk, j});
          DenseMatrix& acc = accs[{ab.rows(), bb.cols()}];
          if (acc.rows() == 0) acc = DenseMatrix(ab.rows(), bb.cols());
          // Computed bytes: both operands as stored, plus the accumulator
          // once for a dense GEMM, or a read and a write of one
          // accumulator element per useful multiply-add for a CSR kernel.
          const double operands =
              static_cast<double>(ab.SizeBytes() + bb.SizeBytes());
          if (ab.IsDense() && bb.IsDense()) {
            k.dgemm_calls += 1;
            k.dgemm_bytes += operands + 8.0 * ab.rows() * bb.cols();
            dense_pairs.push_back(
                {&ab, &bb, &acc, 2.0 * ab.rows() * ab.cols() * bb.cols()});
          } else {
            const double flops = UsefulFlops(ab, bb);
            k.spmm_calls += 1;
            k.spmm_bytes += operands + 8.0 * flops;
            sparse_pairs.push_back({&ab, &bb, &acc, flops});
          }
        }
      }
    }
    // Aggregation merges: partials per output block, from the method's
    // tasks; the finalize adds each output block's partials pairwise.
    if (g.method->NeedsAggregation(problem)) {
      std::map<std::pair<int64_t, int64_t>, int64_t> partials;
      DISTME_RETURN_NOT_OK(g.method->ForEachTask(
          problem, cluster, [&](const mm::LocalTask& t) {
            std::map<std::pair<int64_t, int64_t>, bool> seen;
            t.voxels.ForEach([&](mm::Voxel v) {
              if (!g.a.Has({v.i, v.k}) || !g.b.Has({v.k, v.j})) return;
              if (!t.aggregate_local || !seen[{v.i, v.j}]) {
                ++partials[{v.i, v.j}];
              }
              seen[{v.i, v.j}] = true;
            });
            return Status::OK();
          }));
      for (const auto& [ij, n] : partials) {
        if (n < 2) continue;
        const auto it = g.c.blocks().find({ij.first, ij.second});
        const double block = it == g.c.blocks().end()
                                 ? 0.0
                                 : DenseBytes(it->second);
        k.add_calls += static_cast<double>(n - 1);
        k.add_bytes += 3.0 * block * static_cast<double>(n - 1);
      }
    }
  }

  k.dgemm_gflops =
      Rate(dense_pairs.size(), kMinSeconds, "blas.dgemm", [&](size_t i) {
        const Pair& p = dense_pairs[i];
        blas::Dgemm(1.0, p.a->dense(), p.b->dense(), 1.0, p.acc);
        return p.flops;
      }) * 1e-9;
  k.spmm_gflops =
      Rate(sparse_pairs.size(), kMinSeconds, "blas.spmm", [&](size_t i) {
        const Pair& p = sparse_pairs[i];
        (void)blas::MultiplyAccumulate(*p.a, *p.b, p.acc);
        return p.flops;
      }) * 1e-9;
  if (k.add_calls > 0) {
    k.add_gbps = Rate(out_blocks.size(), kMinSeconds, "blas.add_blocks",
                      [&](size_t i) {
                        const Block& x = *out_blocks[i];
                        (void)blas::AddBlocks(x, x);
                        return 3.0 * DenseBytes(x);
                      }) * 1e-9;
  }

  struct EwPair {
    blas::ElementWiseOp op;
    const Block* a;
    const Block* b;
  };
  std::vector<EwPair> ew_pairs;
  for (const ElementWiseCall& call : ew) {
    for (const auto& [idx, block] : call.a.blocks()) {
      if (!call.b.Has(idx)) continue;
      ew_pairs.push_back({call.op, &block, &call.b.blocks().at(idx)});
      k.ew_calls += 1;
      k.ew_bytes += 3.0 * DenseBytes(block);
    }
  }
  k.ew_gbps = Rate(ew_pairs.size(), kMinSeconds, "blas.elementwise",
                   [&](size_t i) {
                     const EwPair& p = ew_pairs[i];
                     (void)blas::ElementWise(p.op, *p.a, *p.b, 1e-12);
                     return 3.0 * DenseBytes(*p.a);
                   }) * 1e-9;

  // Serialize / deserialize round trip of the blocks that cross the wire.
  auto serde = [&](const std::vector<const Block*>& blocks, const char* ser,
                   const char* deser, double* ser_gbps, double* deser_gbps) {
    std::vector<std::vector<uint8_t>> buffers(blocks.size());
    *ser_gbps = Rate(blocks.size(), kMinSeconds, ser, [&](size_t i) {
                  buffers[i] = SerializeBlock(*blocks[i]);
                  return static_cast<double>(buffers[i].size());
                }) * 1e-9;
    *deser_gbps = Rate(buffers.size(), kMinSeconds, deser, [&](size_t i) {
                    (void)DeserializeBlock(buffers[i]);
                    return static_cast<double>(buffers[i].size());
                  }) * 1e-9;
  };
  serde(dense_blocks, "matrix.serialize.dense", "matrix.deserialize.dense",
        &k.ser_dense, &k.deser_dense);
  serde(csr_blocks, "matrix.serialize.csr", "matrix.deserialize.csr",
        &k.ser_csr, &k.deser_csr);

  // Host side of Algorithm 1: RunCuboidOnGpu over one of the workload's
  // cuboids, against the same voxel products through MultiplyAccumulate,
  // and the modelled device's host<->device bytes for that cuboid.
  std::optional<mm::VoxelSet> box;
  const Product& g = products[0];
  const mm::MMProblem problem{mm::MatrixDescriptor::FromGrid(g.a),
                              mm::MatrixDescriptor::FromGrid(g.b)};
  DISTME_RETURN_NOT_OK(g.method->ForEachTask(
      problem, cluster, [&](const mm::LocalTask& t) {
        if (!box && t.voxels.is_box()) box = t.voxels;
        return Status::OK();
      }));
  if (box) {
    double gpu_s = 1e300, cpu_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      gpu::Device device(cluster.gpu, cluster.hw);
      gpumm::GridBlockSource source(&g.a, &g.b);
      double t0 = Now();
      {
        ScopedSpan span("gpumm.RunCuboidOnGpu");
        DISTME_ASSIGN_OR_RETURN(
            const gpumm::GpuCuboidResult result,
            gpumm::RunCuboidOnGpu(*box, g.a.shape(), g.b.shape(), &source,
                                  &device, cluster.gpu_task_memory_bytes));
        k.gpu_pcie_bytes =
            static_cast<double>(result.stats.h2d_bytes + result.stats.d2h_bytes);
      }
      gpu_s = std::min(gpu_s, Now() - t0);
      t0 = Now();
      {
        ScopedSpan span("blas.cuboid_cpu");
        for (int64_t i = box->i0(); i < box->i1(); ++i) {
          for (int64_t j = box->j0(); j < box->j1(); ++j) {
            DenseMatrix acc(g.a.shape().BlockRowsAt(i),
                            g.b.shape().BlockColsAt(j));
            for (int64_t kk = box->k0(); kk < box->k1(); ++kk) {
              if (!g.a.Has({i, kk}) || !g.b.Has({kk, j})) continue;
              DISTME_RETURN_NOT_OK(blas::MultiplyAccumulate(
                  g.a.blocks().at({i, kk}), g.b.blocks().at({kk, j}), &acc));
            }
          }
        }
      }
      cpu_s = std::min(cpu_s, Now() - t0);
    }
    k.gpu_host_ratio = gpu_s / cpu_s;
  }
  return k;
}

// Per-layer metrics of a traced run: the traced ops' MMReport fields and
// span self times, then the Session- and block-level replays and the
// roofline, all run after the op loop.
Result<std::vector<Metric>> LayerMetrics(const Workload& w, const Setup& setup,
                                         const TimedPlanner& planner,
                                         const std::vector<OpRecord>& records,
                                         BlockGrid first_output,
                                         double flops_per_op) {
  core::Session& session = *setup.session;
  const ClusterConfig& cluster = session.cluster();
  const int slots = cluster.total_slots();
  std::vector<double> walls, traced_walls, untraced_walls;
  for (const OpRecord& r : records) {
    walls.push_back(r.wall);
    (r.traced ? traced_walls : untraced_walls).push_back(r.wall);
  }

  std::vector<double> plan, rep_s, mul_s, agg_s, exec_s, busy, agg_frac,
      rep_mb, agg_mb, tasks, retries, hit, stall, backpressure, task_mb,
      overhead, non_mm;
  std::map<int, double> op_exec;  // executor seconds by op id
  for (const OpRecord& r : records) {
    if (!r.traced) continue;
    engine::MMReport sum;
    double hits = 0, stalls = 0, peak_task = 0;
    for (const engine::MMReport& m : r.reports) {
      sum.elapsed_seconds += m.elapsed_seconds;
      sum.steps.repartition_seconds += m.steps.repartition_seconds;
      sum.steps.multiply_seconds += m.steps.multiply_seconds;
      sum.steps.aggregation_seconds += m.steps.aggregation_seconds;
      sum.repartition_bytes += m.repartition_bytes;
      sum.aggregation_bytes += m.aggregation_bytes;
      sum.num_tasks += m.num_tasks;
      sum.task_retries += m.task_retries;
      sum.pipeline.stall_seconds += m.pipeline.stall_seconds;
      sum.pipeline.backpressure_waits += m.pipeline.backpressure_waits;
      hits += static_cast<double>(m.pipeline.prefetch_hits);
      stalls += static_cast<double>(m.pipeline.prefetch_stalls);
      peak_task = std::max(peak_task, m.peak_task_memory_bytes);
    }
    const double exec = sum.elapsed_seconds;
    plan.push_back(r.plan_s / r.wall);
    rep_s.push_back(sum.steps.repartition_seconds);
    mul_s.push_back(sum.steps.multiply_seconds);
    agg_s.push_back(sum.steps.aggregation_seconds);
    exec_s.push_back(exec);
    op_exec[r.op] = exec;
    busy.push_back(exec > 0 ? (sum.steps.repartition_seconds +
                               sum.steps.multiply_seconds) /
                                  (exec * slots)
                            : 0);
    agg_frac.push_back(exec > 0 ? sum.steps.aggregation_seconds / exec : 0);
    rep_mb.push_back(sum.repartition_bytes * 1e-6);
    agg_mb.push_back(sum.aggregation_bytes * 1e-6);
    tasks.push_back(static_cast<double>(sum.num_tasks));
    retries.push_back(static_cast<double>(sum.task_retries));
    hit.push_back(hits + stalls > 0 ? hits / (hits + stalls) : 0);
    stall.push_back(exec > 0 ? sum.pipeline.stall_seconds / exec : 0);
    backpressure.push_back(
        static_cast<double>(sum.pipeline.backpressure_waits));
    task_mb.push_back(peak_task * 1e-6);
    if (!w.gnmf) {
      overhead.push_back(r.call_wall - exec);
      non_mm.push_back(r.wall - r.call_wall);
    }
  }

  // Self time per layer over the traced ops' spans. The executor's time
  // (MMReport.elapsed_seconds) is a child of the core call whose length is
  // known but whose position is not, so it is subtracted from core's self
  // time rather than drawn as a span.
  std::map<int, double> op_self, core_self, op_wall;
  {
    const auto& spans = g_spans.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.op < 0) continue;
      const double self = s.end - s.start - child[i];
      const std::string name = s.name;
      if (name == "op") {
        op_self[s.op] += self;
        op_wall[s.op] += s.end - s.start;
      } else if (name.rfind("core.", 0) == 0) {
        core_self[s.op] += self;
      }
    }
  }
  std::vector<double> core_self_v;
  double unattributed = 0, wall_sum = 0;
  for (const auto& [op, exec] : op_exec) {  // successful traced ops only
    unattributed += op_self[op];
    wall_sum += op_wall[op];
    core_self_v.push_back(core_self[op] - exec);
  }

  // Session-level and block-level replays, outside the op loop.
  g_spans.enabled = true;
  g_spans.op = -1;
  std::vector<Product> products;
  std::vector<ElementWiseCall> elementwise;
  if (w.gnmf) {
    std::vector<double> replay_overhead, replay_non_mm;
    for (int rep = 0; rep < 3; ++rep) {
      Result<SessionReplay> r =
          ReplayGnmf(&session, setup.a, w.gnmf_options, planner);
      DISTME_RETURN_NOT_OK(r.status());
      replay_overhead.push_back(r->overhead);
      replay_non_mm.push_back(r->wall - r->multiply_wall);
      products = std::move(r->products);
      elementwise = std::move(r->elementwise);
    }
    overhead.push_back(Median(replay_overhead));
    non_mm.push_back(Median(replay_non_mm));
  } else {
    Product p;
    p.a = setup.a.Collect();
    p.b = setup.b.Collect();
    p.c = std::move(first_output);
    if (w.cpmm_tasks > 0) {
      p.method = std::make_unique<mm::CpmmMethod>(w.cpmm_tasks);
    } else {
      DISTME_ASSIGN_OR_RETURN(
          p.method, planner.inner().Choose(
                        {setup.a.Descriptor(), setup.b.Descriptor()}, cluster));
    }
    products.push_back(std::move(p));
  }
  DISTME_ASSIGN_OR_RETURN(const KernelStats k,
                          ReplayKernels(products, elementwise, cluster));
  Roofline roof;
  {
    ScopedSpan span("roofline");
    roof = MeasureRoofline(slots);
  }
  g_spans.enabled = false;
  std::printf("  roofline: triad arrays %.0f MiB in total on %d threads, "
              "last-level cache %.0f MiB\n",
              static_cast<double>(roof.triad_bytes) / (1 << 20), roof.threads,
              static_cast<double>(roof.llc_bytes) / (1 << 20));

  const double untraced_p50 = Median(untraced_walls);
  const double e2e_gflops =
      untraced_p50 > 0 ? flops_per_op / untraced_p50 * 1e-9 : 0;
  const double peak = roof.peak_gflops;
  return std::vector<Metric>{
      {"roofline.peak_gflops", peak, "GFLOP/s"},
      {"roofline.stream_gbps", roof.stream_gbps, "GB/s"},
      {"roofline.e2e_frac_peak", peak > 0 ? e2e_gflops / (slots * peak) : 0,
       "fraction"},
      {"blas.dgemm_gflops", k.dgemm_gflops, "GFLOP/s"},
      {"blas.dgemm_frac_peak", peak > 0 ? k.dgemm_gflops / peak : 0,
       "fraction"},
      {"blas.spmm_gflops", k.spmm_gflops, "GFLOP/s"},
      {"blas.add_blocks_gbps", k.add_gbps, "GB/s"},
      {"blas.elementwise_gbps", k.ew_gbps, "GB/s"},
      {"blas.dgemm_calls", k.dgemm_calls, "count"},
      {"blas.dgemm_mb", k.dgemm_bytes * 1e-6, "MB"},
      {"blas.spmm_calls", k.spmm_calls, "count"},
      {"blas.spmm_mb", k.spmm_bytes * 1e-6, "MB"},
      {"blas.add_blocks_calls", k.add_calls, "count"},
      {"blas.add_blocks_mb", k.add_bytes * 1e-6, "MB"},
      {"blas.elementwise_calls", k.ew_calls, "count"},
      {"blas.elementwise_mb", k.ew_bytes * 1e-6, "MB"},
      {"matrix.serialize_gbps.dense", k.ser_dense, "GB/s"},
      {"matrix.serialize_gbps.csr", k.ser_csr, "GB/s"},
      {"matrix.deserialize_gbps.dense", k.deser_dense, "GB/s"},
      {"matrix.deserialize_gbps.csr", k.deser_csr, "GB/s"},
      {"mm.plan_frac", Median(plan), "fraction"},
      {"engine.repartition_s", Median(rep_s), "s"},
      {"engine.multiply_s", Median(mul_s), "s"},
      {"engine.aggregation_s", Median(agg_s), "s"},
      {"engine.executor_s", Median(exec_s), "s"},
      {"engine.slot_busy_frac", Median(busy), "fraction"},
      {"engine.aggregation_frac", Median(agg_frac), "fraction"},
      {"engine.repartition_mb", Median(rep_mb), "MB"},
      {"engine.aggregation_mb", Median(agg_mb), "MB"},
      {"engine.tasks", Median(tasks), "count"},
      {"engine.retries", Median(retries), "count"},
      {"engine.prefetch_hit_ratio", Median(hit), "fraction"},
      {"engine.stall_frac", Median(stall), "fraction"},
      {"engine.backpressure_waits", Median(backpressure), "count"},
      {"cluster.peak_task_mb", Median(task_mb), "MB"},
      {"gpumm.host_overhead_ratio", k.gpu_host_ratio, "ratio"},
      {"gpu.pcie_mb", k.gpu_pcie_bytes * 1e-6, "MB"},
      {"core.overhead_s", Median(overhead), "s"},
      {"core.non_mm_s", Median(non_mm), "s"},
      {"obs.trace_overhead_frac",
       untraced_p50 > 0 ? Median(traced_walls) / untraced_p50 - 1 : 0,
       "fraction"},
      {"trace.unattributed_frac", wall_sum > 0 ? unattributed / wall_sum : 0,
       "fraction"},
      {"trace.core_self_s", Median(core_self_v), "s"},
      {"op_s_p90", Percentile(walls, 0.9), "s"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  int corrupt_op = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--corrupt-op") {
      args->corrupt_op = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, args.tiny, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  const int slots = cluster.total_slots();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d slots=%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, slots,
              args.tiny ? " (tiny)" : "");

  // The set-up the ops run on. setup_s is not taken from it: a burst of
  // set-ups at start-up samples the host at one moment, so the loop below
  // times one more set-up after every op and setup_s is their median.
  auto planner = std::make_shared<TimedPlanner>();
  std::vector<double> setup_times;
  Result<Setup> made = MakeSetup(w, planner);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  Setup setup = std::move(*made);
  core::Session& session = *setup.session;

  double flops_per_op = 0;
  {
    const BlockGrid a = setup.a.Collect();
    if (w.gnmf) {
      const double f = static_cast<double>(w.gnmf_options.factor_dim);
      const double users = static_cast<double>(a.shape().rows);
      const double items = static_cast<double>(a.shape().cols);
      // W·H-side products are dense; WᵀV and V·Hᵀ touch nnz(V)·f each.
      flops_per_op = 4 * f * static_cast<double>(a.TotalNnz()) +
                     4 * f * f * (users + items);
    } else {
      flops_per_op = UsefulFlops(a, setup.b.Collect());
    }
  }

  Checker checker(w, setup, args.seed);
  const std::unique_ptr<mm::Method> pinned =
      w.cpmm_tasks > 0 ? std::make_unique<mm::CpmmMethod>(w.cpmm_tasks)
                       : nullptr;
  constexpr int kWarmupOps = 2;
  constexpr int kMinTimedOps = 100;
  const double cap_seconds = std::max(3 * args.seconds, args.seconds + 30);
  std::vector<OpRecord> records;
  int64_t attempted = 0, failed = 0;
  double loop_start = 0;
  BlockGrid first_output;
  for (int op = 0;; ++op) {
    if (op == kWarmupOps) loop_start = Now();
    if (op >= kWarmupOps) {
      const double elapsed = Now() - loop_start;
      const int64_t timed = op - kWarmupOps;
      if ((elapsed >= args.seconds && (timed >= kMinTimedOps || args.tiny)) ||
          elapsed >= cap_seconds) {
        break;
      }
    }
    OpRecord rec;
    rec.traced = args.trace && op % 2 == 1;
    g_spans.enabled = rec.traced;
    g_spans.op = op;
    rec.op = op;
    std::vector<core::Matrix> results;
    Status status;
    const double t0 = Now();
    {
      ScopedSpan op_span("op");
      const double c0 = Now();
      if (w.gnmf) {
        ScopedSpan span("core.RunGnmf");
        Result<core::GnmfResult> r =
            core::RunGnmf(&session, setup.a, w.gnmf_options);
        status = r.status();
        if (r.ok()) results = {r->w, r->h};
      } else {
        ScopedSpan span("core.Multiply");
        Result<core::Matrix> r =
            pinned ? session.MultiplyWith(setup.a, setup.b, *pinned)
                   : session.Multiply(setup.a, setup.b);
        status = r.status();
        if (r.ok()) results = {*r};
      }
      rec.call_wall = Now() - c0;
    }
    rec.wall = Now() - t0;
    g_spans.enabled = false;
    std::vector<BlockGrid> outputs;
    for (const core::Matrix& m : results) outputs.push_back(m.Collect());
    rec.plan_s = planner->TakeSeconds();
    rec.reports = session.history();
    session.ClearHistory();

    bool ok = status.ok();
    if (ok) {
      if (args.trace && !w.gnmf && first_output.num_blocks() == 0) {
        first_output = outputs[0];  // for the block-level replays
      }
      ok = checker.Check(std::move(outputs), op == args.corrupt_op);
    } else {
      std::fprintf(stderr, "op %d failed: %s\n", op,
                   status.ToString().c_str());
    }
    // A warm-up op is left out of the timings, but not out of the failures.
    if (op >= kWarmupOps || !ok) ++attempted;
    if (!ok) {
      ++failed;
    } else if (op >= kWarmupOps) {
      records.push_back(std::move(rec));
    }

    // One set-up sample per op, outside the op's timing; its own planner
    // keeps the ops' planning time apart.
    {
      const double s0 = Now();
      Result<Setup> sample =
          MakeSetup(w, std::make_shared<TimedPlanner>());
      const double s1 = Now();
      if (!sample.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     sample.status().ToString().c_str());
        return 1;
      }
      if (op >= kWarmupOps) setup_times.push_back(s1 - s0);
    }
  }

  std::vector<double> walls;
  for (const OpRecord& r : records) walls.push_back(r.wall);
  const bool correct = failed == 0 && !records.empty();
  std::printf("  ops: %lld attempted (%zu timed ok), %d warm-up ops excluded "
              "from timing, fail_frac %.6g\n",
              static_cast<long long>(attempted), records.size(), kWarmupOps,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);

  // The 90th percentile is printed on every run but has no bound: on a
  // shared VM, host steal time moves it far more than any allowed bound.
  std::printf("  op_s_p90 %.6g s over %zu ops (%zu beyond it)\n",
              Percentile(walls, 0.9), walls.size(), walls.size() / 10);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double p50 = Median(walls);
    metrics.push_back({"setup_s", Median(setup_times), "s"});
    metrics.push_back({"op_s_p50", p50, "s"});
    metrics.push_back(
        {"gflops", p50 > 0 ? flops_per_op / p50 * 1e-9 : 0, "GFLOP/s"});
    metrics.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  Result<std::vector<Metric>> layers = LayerMetrics(
      w, setup, *planner, records, std::move(first_output), flops_per_op);
  if (!layers.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 layers.status().ToString().c_str());
    return 1;
  }
  metrics = std::move(*layers);
  if (!args.trace_out.empty() && !g_spans.WriteChrome(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt-op N] [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
