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
// Tier resolution. The env override names a *ceiling*; the dispatcher walks
// down from it to the best tier that is compiled in and CPU-supported, so
// GMREG_SIMD=avx512 on an AVX2-only machine degrades gracefully.
// ---------------------------------------------------------------------------

const KernelOps* TierTableOrNull(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return internal::GetScalarKernelOps();
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
  return *internal::GetScalarKernelOps();
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
                                    internal::GetL2CacheBytes());
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

std::int64_t GetL2CacheBytes() {
  static const std::int64_t l2_bytes = [] {
#if defined(_SC_LEVEL2_CACHE_SIZE)
    long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) return static_cast<std::int64_t>(v);
#endif
    return std::int64_t{1024 * 1024};
  }();
  return l2_bytes;
}

// The cache-geometry autotuning rule (docs/KERNELS.md): a pure function of
// (register tile, L2 size), so deterministic per machine and tier.
GemmGeometry AutotuneGeometry(std::int64_t mr, std::int64_t nr,
                              std::int64_t l2_bytes) {
  GemmGeometry geo;
  geo.mr = mr;
  geo.nr = nr;
  // MC: a quarter of L2 holds the MC x KC A pack (leaving room for the B
  // slab passing through), rounded down to a multiple of MR. Capped at 192
  // rows so one work-queue tile never swallows a whole medium matrix —
  // parallelism needs several tiles in flight.
  std::int64_t mc =
      l2_bytes / 4 / (kGemmKC * static_cast<std::int64_t>(sizeof(float)));
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

namespace {

typedef float V4 __attribute__((vector_size(16)));

inline V4 Load4(const float* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

// dst[r * ldd + c] = src[r * lds + c] for r < rows, c < cols: four floats
// at a time through a register, then a scalar tail per row.
void CopyInto(const float* src, std::int64_t lds, std::int64_t rows,
              std::int64_t cols, float* dst, std::int64_t ldd) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* s = src + r * lds;
    float* d = dst + r * ldd;
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) Store4(d + c, Load4(s + c));
    for (; c < cols; ++c) d[c] = s[c];
  }
}

// dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols. Each 4 x 4
// block moves through registers: four rows of four floats are loaded,
// transposed by shuffles, and stored as four contiguous floats per
// destination row. Scalar loops take only the ragged rows and columns.
// Either way every float is copied bit for bit.
void TransposeInto(const float* src, std::int64_t lds, std::int64_t rows,
                   std::int64_t cols, float* dst, std::int64_t ldd) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* s = src + r * lds;
    float* d = dst + r;
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      V4 r0 = Load4(s + c);
      V4 r1 = Load4(s + lds + c);
      V4 r2 = Load4(s + 2 * lds + c);
      V4 r3 = Load4(s + 3 * lds + c);
      V4 t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
      V4 t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
      V4 t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
      V4 t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
      Store4(d + c * ldd, __builtin_shufflevector(t0, t2, 0, 1, 4, 5));
      Store4(d + (c + 1) * ldd, __builtin_shufflevector(t0, t2, 2, 3, 6, 7));
      Store4(d + (c + 2) * ldd, __builtin_shufflevector(t1, t3, 0, 1, 4, 5));
      Store4(d + (c + 3) * ldd, __builtin_shufflevector(t1, t3, 2, 3, 6, 7));
    }
    for (; c < cols; ++c) {
      for (std::int64_t i = 0; i < 4; ++i) d[c * ldd + i] = s[i * lds + c];
    }
  }
  for (; r < rows; ++r) {
    const float* s = src + r * lds;
    for (std::int64_t c = 0; c < cols; ++c) dst[c * ldd + r] = s[c];
  }
}

}  // namespace

void PackB(bool trans_b, const float* b, std::int64_t ldb, std::int64_t k,
           std::int64_t n, float* bp, const GemmGeometry& geo) {
  const std::int64_t NR = geo.nr;
  std::int64_t n_round = RoundUpN(n, NR);
  for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
    std::int64_t kc = std::min(kGemmKC, k - p0);
    float* slab = bp + p0 * n_round;
    for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
      std::int64_t nr = std::min(NR, n - j0);
      float* tile = slab + (j0 / NR) * kc * NR;
      if (nr < NR) {
        std::memset(tile, 0, static_cast<std::size_t>(kc * NR) * sizeof(float));
      }
      if (!trans_b) {
        // op(B)[p][j] = B[p][j]: rows of B stay rows of the tile.
        CopyInto(b + p0 * ldb + j0, ldb, kc, nr, tile, NR);
      } else {
        // op(B)[p][j] = B[j][p]: rows of B become columns of the tile.
        TransposeInto(b + j0 * ldb + p0, ldb, nr, kc, tile, NR);
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
      // op(A)[i][p] = A[i][p]: rows of A become columns of the tile.
      TransposeInto(a + (i0 + r0) * lda + p0, lda, mr, kc, tile, MR);
    } else {
      // op(A)[i][p] = A[p][i]: rows of A stay rows of the tile.
      CopyInto(a + p0 * lda + i0 + r0, lda, kc, mr, tile, MR);
    }
  }
}

void PackAllA(bool trans_a, const float* a, std::int64_t lda, std::int64_t m,
              std::int64_t k, float* ap, const GemmGeometry& geo) {
  std::int64_t m_round = RoundUpN(m, geo.mr);
  for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
    std::int64_t kc = std::min(kGemmKC, k - p0);
    PackA(trans_a, a, lda, 0, m, p0, kc, ap + p0 * m_round, geo.mr);
  }
}

void GemmPackedBlock(bool trans_a, std::int64_t i0, std::int64_t i1,
                     std::int64_t j0, std::int64_t j1, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* ap,
                     const float* bp, float beta, float* c, std::int64_t ldc,
                     const GemmGeometry& geo) {
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
  std::int64_t m_round = RoundUpN(m, MR);
  std::int64_t n_round = RoundUpN(n, NR);
  // Without a caller's pack, a per-worker A pack, bounded at MC x KC floats
  // and reused across calls. Arena-served (ScratchBuffer) so a pool worker
  // whose first GEMM lands mid-run sizes it from the slab, not the heap —
  // the zero-alloc contract must hold whichever workers the ticket race
  // picks (docs/MEMORY.md).
  float* apack = nullptr;
  if (ap == nullptr) {
    thread_local ScratchBuffer<float> apack_buf;
    apack =
        apack_buf.EnsureCapacity(static_cast<std::size_t>(geo.mc * kGemmKC));
  }
  for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
    std::int64_t kc = std::min(kGemmKC, k - p0);
    const float* slab = bp + p0 * n_round;
    for (std::int64_t ic = i0; ic < i1; ic += geo.mc) {
      std::int64_t mc = std::min(geo.mc, i1 - ic);
      const float* a_block = apack;
      if (ap != nullptr) {
        // ic is a multiple of MR, so the caller's pack holds this block's
        // row panels contiguously, in the order PackA would write them.
        a_block = ap + p0 * m_round + (ic / MR) * kc * MR;
      } else {
        PackA(trans_a, a, lda, ic, mc, p0, kc, apack, MR);
      }
      for (std::int64_t jc = j0; jc < j1; jc += NR) {
        std::int64_t nr = std::min(NR, j1 - jc);
        const float* b_tile = slab + (jc / NR) * kc * NR;
        for (std::int64_t r0 = 0; r0 < mc; r0 += MR) {
          std::int64_t mr = std::min(MR, mc - r0);
          const float* a_tile = a_block + (r0 / MR) * kc * MR;
          ops.gemm_micro(kc, alpha, a_tile, b_tile, c + (ic + r0) * ldc + jc,
                         ldc, mr, nr, overwrite_first && p0 == 0);
        }
      }
    }
  }
}

}  // namespace gmreg
