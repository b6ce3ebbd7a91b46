#include "tensor/gemm_kernel.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/arena.h"

namespace gmreg {
namespace {

// ---------------------------------------------------------------------------
// Scalar kernel tier. The accumulation orders here are the contract: the
// SIMD tiers perform the same per-element operation sequences (modulo FMA
// contraction, see docs/KERNELS.md), so results agree to rounding and the
// blocked driver is free to dispatch any of them.
// ---------------------------------------------------------------------------

// The scalar tier keeps the 6x16 register tile of the original AVX2 kernel:
// a tile shape shared with the AVX2 tier means the two produce identical
// slab groupings, which keeps the scalar-vs-simd cross-check tolerance down
// to FMA contraction alone.
constexpr std::int64_t kScalarMR = 6;
constexpr std::int64_t kScalarNR = 16;

void GemmMicroScalar(std::int64_t kc, float alpha, const float* ap,
                     const float* bp, float* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr, bool overwrite) {
  float acc[kScalarMR][kScalarNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* b_row = bp + p * kScalarNR;
    const float* a_col = ap + p * kScalarMR;
    for (std::int64_t r = 0; r < kScalarMR; ++r) {
      float av = a_col[r];
      for (std::int64_t j = 0; j < kScalarNR; ++j) acc[r][j] += av * b_row[j];
    }
  }
  if (overwrite) {
    for (std::int64_t r = 0; r < mr; ++r) {
      float* c_row = c + r * ldc;
      for (std::int64_t j = 0; j < nr; ++j) c_row[j] = alpha * acc[r][j];
    }
  } else {
    for (std::int64_t r = 0; r < mr; ++r) {
      float* c_row = c + r * ldc;
      for (std::int64_t j = 0; j < nr; ++j) c_row[j] += alpha * acc[r][j];
    }
  }
}

void AxpyScalar(std::int64_t n, float alpha, const float* x, float* y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddRowBroadcastScalar(std::int64_t rows, std::int64_t cols,
                           const float* row, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += row[j];
  }
}

void AddColBroadcastScalar(std::int64_t rows, std::int64_t cols,
                           const float* col, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float v = col[i];
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += v;
  }
}

void ColSumsAccumScalar(std::int64_t rows, std::int64_t cols, const float* m,
                        float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) out[j] += r[j];
  }
}

void RowSumsAccumScalar(std::int64_t rows, std::int64_t cols, const float* m,
                        float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) acc += r[j];
    out[i] += acc;
  }
}

void ReluForwardScalar(std::int64_t n, const float* in, float* out,
                       unsigned char* mask) {
  if (mask != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      bool pos = in[i] > 0.0f;
      mask[i] = pos ? 1 : 0;
      out[i] = pos ? in[i] : 0.0f;
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
}

void ReluBackwardScalar(std::int64_t n, const float* gout,
                        const unsigned char* mask, float* gin) {
  for (std::int64_t i = 0; i < n; ++i) gin[i] = mask[i] ? gout[i] : 0.0f;
}

constexpr KernelOps kScalarOps = {
    "scalar",
    KernelTier::kScalar,
    kScalarMR,
    kScalarNR,
    GemmMicroScalar,
    AxpyScalar,
    AddRowBroadcastScalar,
    AddColBroadcastScalar,
    ColSumsAccumScalar,
    RowSumsAccumScalar,
    ReluForwardScalar,
    ReluBackwardScalar,
    internal::EStepScalarF32,
    internal::EStepScalarF64,
};

// ---------------------------------------------------------------------------
// Tier resolution. The env override names a *ceiling*; the dispatcher walks
// down from it to the best tier that is compiled in and CPU-supported, so
// GMREG_SIMD=avx512 on an AVX2-only machine degrades gracefully.
// ---------------------------------------------------------------------------

const KernelOps* TierTableOrNull(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return &kScalarOps;
    case KernelTier::kAvx2:
      return internal::GetAvx2KernelOpsOrNull();
    case KernelTier::kAvx512:
      return internal::GetAvx512KernelOpsOrNull();
  }
  return nullptr;
}

const KernelOps& BestTierAtOrBelow(KernelTier ceiling) {
  for (int t = static_cast<int>(ceiling); t > 0; --t) {
    const KernelOps* ops = TierTableOrNull(static_cast<KernelTier>(t));
    if (ops != nullptr) return *ops;
  }
  return kScalarOps;
}

KernelTier ParseTierCeiling(const char* env) {
  if (env == nullptr) return KernelTier::kAvx512;
  std::string v(env);
  if (v.empty() || v == "auto" || v == "on" || v == "1") {
    return KernelTier::kAvx512;
  }
  if (v == "scalar" || v == "0" || v == "off" || v == "OFF") {
    return KernelTier::kScalar;
  }
  if (v == "avx2") return KernelTier::kAvx2;
  if (v == "avx512") return KernelTier::kAvx512;
  // Unknown spelling: fail open to full auto-detection rather than silently
  // dropping to scalar.
  return KernelTier::kAvx512;
}

// Env-resolved table, computed once. Test forcing bypasses this cache.
const KernelOps& EnvResolvedOps() {
  static const KernelOps* ops =
      &BestTierAtOrBelow(ParseTierCeiling(std::getenv("GMREG_SIMD")));
  return *ops;
}

// -1 = no forced tier; otherwise the KernelTier value pinned by tests.
std::atomic<int> g_forced_tier{-1};

// ---------------------------------------------------------------------------
// Cache-geometry autotuning (docs/KERNELS.md). The rule is a pure function
// of (register tile, cache sizes): deterministic per machine and tier.
// ---------------------------------------------------------------------------

std::int64_t SysconfCacheBytes(int name, std::int64_t fallback) {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  long v = sysconf(name);
  if (v > 0) return static_cast<std::int64_t>(v);
#else
  (void)name;
#endif
  return fallback;
}

}  // namespace

const KernelOps& GetKernelOps() {
  int forced = g_forced_tier.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const KernelOps* ops = TierTableOrNull(static_cast<KernelTier>(forced));
    if (ops != nullptr) return *ops;
  }
  return EnvResolvedOps();
}

GemmGeometry GetGemmGeometry() {
  const KernelOps& ops = GetKernelOps();
  return internal::AutotuneGeometry(ops.mr, ops.nr,
                                    internal::GetCacheGeometry());
}

namespace internal {

bool ForceKernelTierForTesting(KernelTier tier) {
  if (TierTableOrNull(tier) == nullptr) return false;
  g_forced_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  return true;
}

void ClearKernelTierForTesting() {
  g_forced_tier.store(-1, std::memory_order_relaxed);
}

CacheGeometry GetCacheGeometry() {
  static const CacheGeometry geometry = [] {
    CacheGeometry g;
#if defined(_SC_LEVEL1_DCACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE)
    g.l1d_bytes = SysconfCacheBytes(_SC_LEVEL1_DCACHE_SIZE, 32 * 1024);
    g.l2_bytes = SysconfCacheBytes(_SC_LEVEL2_CACHE_SIZE, 1024 * 1024);
#else
    g.l1d_bytes = 32 * 1024;
    g.l2_bytes = 1024 * 1024;
#endif
    // A bogus topology report (L2 smaller than L1) would produce degenerate
    // blocks; fall back to the fixed table instead.
    if (g.l2_bytes < g.l1d_bytes) {
      g.l1d_bytes = 32 * 1024;
      g.l2_bytes = 1024 * 1024;
    }
    return g;
  }();
  return geometry;
}

GemmGeometry AutotuneGeometry(std::int64_t mr, std::int64_t nr,
                              const CacheGeometry& cache) {
  GemmGeometry geo;
  geo.mr = mr;
  geo.nr = nr;
  // KC: half of L1d holds one KC x NR packed B panel (the other half feeds
  // the streaming A panel and the C tile), rounded down to a multiple of 8
  // and clamped so tiny/huge cache reports stay sane. The 32 KB fallback
  // with NR = 16 reproduces the previous fixed KC = 256.
  std::int64_t kc = cache.l1d_bytes / 2 /
                    (nr * static_cast<std::int64_t>(sizeof(float)));
  kc = std::max<std::int64_t>(64, std::min<std::int64_t>(512, kc / 8 * 8));
  geo.kc = kc;
  // MC: a quarter of L2 holds the MC x KC A pack (leaving room for the B
  // slab passing through), rounded down to a multiple of MR. Capped at 192
  // rows so one work-queue tile never swallows a whole medium matrix —
  // parallelism needs several tiles in flight.
  std::int64_t mc = cache.l2_bytes / 4 /
                    (kc * static_cast<std::int64_t>(sizeof(float)));
  mc = std::min<std::int64_t>(192, mc);
  mc = std::max(mr, mc / mr * mr);
  geo.mc = mc;
  // NC: the column width of one 2D work-queue tile. Eight register panels
  // bound the per-tile A-repack overhead at ~1/(2*NC) of the tile's flops
  // while still splitting wide matrices across the queue.
  geo.nc = std::max(nr, std::min<std::int64_t>(512, 8 * nr));
  return geo;
}

}  // namespace internal

void PackB(bool trans_b, const float* b, std::int64_t ldb, std::int64_t k,
           std::int64_t n, float* bp, const GemmGeometry& geo) {
  const std::int64_t NR = geo.nr;
  std::int64_t n_round = RoundUpN(n, NR);
  for (std::int64_t p0 = 0; p0 < k; p0 += geo.kc) {
    std::int64_t kc = std::min(geo.kc, k - p0);
    float* slab = bp + p0 * n_round;
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
      std::int64_t nr = std::min(NR, n - j0);
      float* tile = slab + (j0 / NR) * kc * NR;
      if (nr < NR) {
        std::memset(tile, 0, static_cast<std::size_t>(kc * NR) * sizeof(float));
      }
      if (!trans_b) {
        // op(B)[p][j] = B[p][j]: contiguous row reads.
        for (std::int64_t p = 0; p < kc; ++p) {
          const float* src = b + (p0 + p) * ldb + j0;
          float* dst = tile + p * NR;
          for (std::int64_t j = 0; j < nr; ++j) dst[j] = src[j];
        }
      } else {
        // op(B)[p][j] = B[j][p]: contiguous reads along p per output column.
        for (std::int64_t j = 0; j < nr; ++j) {
          const float* src = b + (j0 + j) * ldb + p0;
          float* dst = tile + j;
          for (std::int64_t p = 0; p < kc; ++p) dst[p * NR] = src[p];
        }
      }
    }
  }
}

void PackA(bool trans_a, const float* a, std::int64_t lda, std::int64_t i0,
           std::int64_t mc, std::int64_t p0, std::int64_t kc, float* ap,
           std::int64_t MR) {
  for (std::int64_t r0 = 0; r0 < mc; r0 += MR) {
    std::int64_t mr = std::min(MR, mc - r0);
    float* tile = ap + (r0 / MR) * kc * MR;
    if (mr < MR) {
      std::memset(tile, 0, static_cast<std::size_t>(kc * MR) * sizeof(float));
    }
    if (!trans_a) {
      // op(A)[i][p] = A[i][p]: contiguous row reads.
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* src = a + (i0 + r0 + r) * lda + p0;
        float* dst = tile + r;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * MR] = src[p];
      }
    } else {
      // op(A)[i][p] = A[p][i]: contiguous reads along i per p.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + i0 + r0;
        float* dst = tile + p * MR;
        for (std::int64_t r = 0; r < mr; ++r) dst[r] = src[r];
      }
    }
  }
}

void GemmPackedBlock(bool trans_a, std::int64_t i0, std::int64_t i1,
                     std::int64_t j0, std::int64_t j1, std::int64_t n,
                     std::int64_t k, float alpha, const float* a,
                     std::int64_t lda, const float* bp, float beta, float* c,
                     std::int64_t ldc, const GemmGeometry& geo) {
  const std::int64_t MR = geo.mr;
  const std::int64_t NR = geo.nr;
  std::int64_t cols = j1 - j0;
  // Scale this tile's C block first, exactly once. For beta == 0 there is
  // nothing to scale: C is never read, and the first k slab's micro-kernel
  // calls overwrite every element instead (each element belongs to exactly
  // one micro-tile per slab). Clear explicitly only when k <= 0.
  bool overwrite_first = (beta == 0.0f);
  if (beta == 0.0f) {
    if (k <= 0) {
      for (std::int64_t i = i0; i < i1; ++i) {
        std::memset(c + i * ldc + j0, 0,
                    static_cast<std::size_t>(cols) * sizeof(float));
      }
    }
  } else if (beta != 1.0f) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* row = c + i * ldc + j0;
      for (std::int64_t j = 0; j < cols; ++j) row[j] *= beta;
    }
  }
  const KernelOps& ops = GetKernelOps();
  std::int64_t n_round = RoundUpN(n, NR);
  // Per-worker A pack, bounded at MC x KC floats and reused across calls.
  // Arena-served (ScratchBuffer) so a pool worker whose first GEMM lands
  // mid-run sizes it from the slab, not the heap — the zero-alloc contract
  // must hold whichever workers the ticket race picks (docs/MEMORY.md).
  thread_local ScratchBuffer<float> apack_buf;
  float* apack =
      apack_buf.EnsureCapacity(static_cast<std::size_t>(geo.mc * geo.kc));
  for (std::int64_t p0 = 0; p0 < k; p0 += geo.kc) {
    std::int64_t kc = std::min(geo.kc, k - p0);
    const float* slab = bp + p0 * n_round;
    for (std::int64_t ic = i0; ic < i1; ic += geo.mc) {
      std::int64_t mc = std::min(geo.mc, i1 - ic);
      PackA(trans_a, a, lda, ic, mc, p0, kc, apack, MR);
      for (std::int64_t jc = j0; jc < j1; jc += NR) {
        std::int64_t nr = std::min(NR, j1 - jc);
        const float* b_tile = slab + (jc / NR) * kc * NR;
        for (std::int64_t r0 = 0; r0 < mc; r0 += MR) {
          std::int64_t mr = std::min(MR, mc - r0);
          const float* a_tile = apack + (r0 / MR) * kc * MR;
          ops.gemm_micro(kc, alpha, a_tile, b_tile, c + (ic + r0) * ldc + jc,
                         ldc, mr, nr, overwrite_first && p0 == 0);
        }
      }
    }
  }
}

}  // namespace gmreg
