#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm_kernel.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace gmreg {
namespace {

// Flop budget per GEMM shard: at the ~50 GFLOP/s the packed kernel
// delivers a shard is tens of microseconds, comfortably above the pool
// dispatch cost.
constexpr std::int64_t kGemmShardFlops = std::int64_t{1} << 21;

// The 2D tile grid aims for at least this many work-queue items (when the
// per-tile flop floor allows), so budgets up to 8-16 threads stay fed.
constexpr std::int64_t kGemmTargetTiles = 16;

// Hot-path kernel accounting, surfaced through MetricsRegistry snapshots
// (docs/OBSERVABILITY.md). Pointers are cached once; Add is an atomic.
struct KernelCounters {
  Counter* gemm_calls;
  Counter* gemm_flops;
  Counter* pack_bytes;
};

KernelCounters& GlobalKernelCounters() {
  static KernelCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.gauge("gm.kernel.tier")
        ->Set(static_cast<double>(GetKernelOps().tier));
    return KernelCounters{registry.counter("gm.kernel.gemm_calls"),
                          registry.counter("gm.kernel.gemm_flops"),
                          registry.counter("gm.kernel.pack_bytes")};
  }();
  return counters;
}

// Scales (or clears) rows [i0, i1) of C by beta. beta == 0 overwrites —
// BLAS semantics: existing NaN/Inf in C are discarded, not propagated.
void ScaleRows(std::int64_t i0, std::int64_t i1, std::int64_t n, float beta,
               float* c, std::int64_t ldc) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    for (std::int64_t i = i0; i < i1; ++i) {
      std::memset(c + i * ldc, 0, static_cast<std::size_t>(n) * sizeof(float));
    }
    return;
  }
  for (std::int64_t i = i0; i < i1; ++i) {
    float* row = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
  }
}

// Unpacked fallback for GEMMs too small to amortize panel packing. Unlike
// the pre-blocked kernel there is no zero-skip fast path: every A element
// participates, so NaN/Inf in B propagate exactly as the math demands.
void GemmSmall(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float beta, float* c,
               std::int64_t ldc) {
  ScaleRows(0, m, n, beta, c, ldc);
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      c_row[j] += alpha * acc;
    }
  }
}

// The body of Gemm and GemmPackedA: `ap` is op(A) packed by PackGemmA, or
// null for tiles that pack their own A panels.
void GemmDriver(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* ap, const float* b, std::int64_t ldb, float beta,
                float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  KernelCounters& counters = GlobalKernelCounters();
  counters.gemm_calls->Add(1);
  counters.gemm_flops->Add(2 * m * n * k);
  // alpha == 0 (or an empty k) never reads A or B — BLAS semantics.
  if (alpha == 0.0f || k == 0) {
    ScaleRows(0, m, n, beta, c, ldc);
    return;
  }
  // Path choice depends only on the shape, never on the thread budget or on
  // whether A came packed, so a given problem always takes the same
  // arithmetic.
  if (2 * m * n * k <= kGemmSmallFlops) {
    GemmSmall(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  // Pack op(B) once into a caller-local buffer shared read-only by every
  // tile; each tile packs its own A panels unless the caller packed op(A)
  // (docs/KERNELS.md). The buffer is arena-served scratch (grow-only, per
  // thread): models call Gemm from inside pool workers (serving batch
  // workers), and whichever worker packs first must not touch the heap in
  // steady state (docs/MEMORY.md).
  const GemmGeometry geo = GetGemmGeometry();
  thread_local ScratchBuffer<float> bpack;
  std::int64_t b_floats = PackedBFloats(k, n, geo);
  float* bp_mut = bpack.EnsureCapacity(static_cast<std::size_t>(b_floats));
  PackB(trans_b, b, ldb, k, n, bp_mut, geo);
  counters.pack_bytes->Add(b_floats * static_cast<std::int64_t>(sizeof(float)));
  const float* bp = bp_mut;
  // 2D (MC x NC) tile grid over C, drained by a dynamic work queue. Tile
  // boundaries depend only on (m, n, k) and the process-constant geometry —
  // never on the thread budget — and every C element belongs to exactly one
  // tile, inside which it accumulates in fixed slab order. So any dynamic
  // assignment of tiles to threads yields bitwise-identical output; inside
  // another parallel region (e.g. a serving worker's forward pass) the
  // queue degrades to an in-order serial drain.
  std::int64_t tile_n = geo.nc;  // multiple of geo.nr, so packed panels align
  std::int64_t tile_m = geo.mc;  // multiple of geo.mr, so A panels align
  auto grid_tiles = [&] {
    return ((m + tile_m - 1) / tile_m) * ((n + tile_n - 1) / tile_n);
  };
  // Refine a too-coarse grid by halving the row block (kept an MR multiple)
  // while the halved tiles still clear the per-tile flop floor.
  while (grid_tiles() < kGemmTargetTiles) {
    std::int64_t half = (tile_m / 2 + geo.mr - 1) / geo.mr * geo.mr;
    if (half >= tile_m || half < geo.mr) break;
    if (2 * half * std::min(tile_n, n) * k < kGemmShardFlops) break;
    tile_m = half;
  }
  std::int64_t nt = (n + tile_n - 1) / tile_n;
  std::int64_t mt = (m + tile_m - 1) / tile_m;
  ParallelRunDynamic(mt * nt, [&](std::int64_t t) {
    std::int64_t i0 = (t / nt) * tile_m;
    std::int64_t j0 = (t % nt) * tile_n;
    GemmPackedBlock(trans_a, i0, std::min(i0 + tile_m, m), j0,
                    std::min(j0 + tile_n, n), m, n, k, alpha, a, lda, ap, bp,
                    beta, c, ldc, geo);
  });
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  GemmDriver(trans_a, trans_b, m, n, k, alpha, a, lda, nullptr, b, ldb, beta,
             c, ldc);
}

std::int64_t PackedGemmAFloats(std::int64_t m, std::int64_t k) {
  return PackedAFloats(m, k, GetGemmGeometry());
}

void PackGemmA(bool trans_a, std::int64_t m, std::int64_t k, const float* a,
               std::int64_t lda, float* ap) {
  PackAllA(trans_a, a, lda, m, k, ap, GetGemmGeometry());
}

void GemmPackedA(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* ap, const float* b, std::int64_t ldb, float beta,
                 float* c, std::int64_t ldc) {
  GemmDriver(trans_a, trans_b, m, n, k, alpha, a, lda, ap, b, ldb, beta, c,
             ldc);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  GMREG_CHECK_EQ(a.rank(), 2);
  GMREG_CHECK_EQ(b.rank(), 2);
  GMREG_CHECK_EQ(a.dim(1), b.dim(0));
  GMREG_CHECK_EQ(out->rank(), 2);
  GMREG_CHECK_EQ(out->dim(0), a.dim(0));
  GMREG_CHECK_EQ(out->dim(1), b.dim(1));
  Gemm(false, false, a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), a.dim(1),
       b.data(), b.dim(1), 0.0f, out->data(), out->dim(1));
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  GMREG_CHECK_EQ(x.size(), y->size());
  GetKernelOps().axpy(x.size(), alpha, x.data(), y->data());
}

void AddRowBroadcast(std::int64_t rows, std::int64_t cols, const float* row,
                     float* out) {
  GetKernelOps().add_row_broadcast(rows, cols, row, out);
}

void AddColBroadcast(std::int64_t rows, std::int64_t cols, const float* col,
                     float* out) {
  GetKernelOps().add_col_broadcast(rows, cols, col, out);
}

void ColSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                  float* out) {
  GetKernelOps().col_sums_accum(rows, cols, m, out);
}

void RowSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                  float* out) {
  GetKernelOps().row_sums_accum(rows, cols, m, out);
}

void Scale(float alpha, Tensor* x) {
  float* xp = x->data();
  std::int64_t n = x->size();
  for (std::int64_t i = 0; i < n; ++i) xp[i] *= alpha;
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  GMREG_CHECK_EQ(a.size(), b.size());
  GMREG_CHECK_EQ(a.size(), out->size());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  std::int64_t n = a.size();
  for (std::int64_t i = 0; i < n; ++i) op[i] = ap[i] + bp[i];
}

void Sub(const Tensor& a, const Tensor& b, Tensor* out) {
  GMREG_CHECK_EQ(a.size(), b.size());
  GMREG_CHECK_EQ(a.size(), out->size());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  std::int64_t n = a.size();
  for (std::int64_t i = 0; i < n; ++i) op[i] = ap[i] - bp[i];
}

void Mul(const Tensor& a, const Tensor& b, Tensor* out) {
  GMREG_CHECK_EQ(a.size(), b.size());
  GMREG_CHECK_EQ(a.size(), out->size());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  std::int64_t n = a.size();
  for (std::int64_t i = 0; i < n; ++i) op[i] = ap[i] * bp[i];
}

double Sum(const Tensor& x) {
  double acc = 0.0;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.size(); ++i) acc += xp[i];
  return acc;
}

double SumSquares(const Tensor& x) {
  double acc = 0.0;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(xp[i]) * xp[i];
  }
  return acc;
}

double SumAbs(const Tensor& x) {
  double acc = 0.0;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.size(); ++i) acc += std::fabs(xp[i]);
  return acc;
}

double Dot(const Tensor& a, const Tensor& b) {
  GMREG_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  const float* ap = a.data();
  const float* bp = b.data();
  for (std::int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(ap[i]) * bp[i];
  }
  return acc;
}

float MaxAbs(const Tensor& x) {
  float best = 0.0f;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.size(); ++i) {
    best = std::max(best, std::fabs(xp[i]));
  }
  return best;
}

std::int64_t ArgMaxRow(const Tensor& x, std::int64_t row) {
  GMREG_CHECK_EQ(x.rank(), 2);
  GMREG_CHECK_GE(row, 0);
  GMREG_CHECK_LT(row, x.dim(0));
  const float* base = x.data() + row * x.dim(1);
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < x.dim(1); ++j) {
    if (base[j] > base[best]) best = j;
  }
  return best;
}

}  // namespace gmreg
