#ifndef GMREG_TENSOR_GEMM_KERNEL_H_
#define GMREG_TENSOR_GEMM_KERNEL_H_

#include <cstdint>

namespace gmreg {

/// Below this flop count (2*m*n*k) the packing traffic beats the win and
/// Gemm runs a plain unpacked loop instead.
inline constexpr std::int64_t kGemmSmallFlops = 1 << 14;

/// Upper bounds on the register tile across every compiled tier: the scalar
/// micro-kernel's stack accumulator and test scratch size against these.
inline constexpr std::int64_t kGemmMaxMR = 14;
inline constexpr std::int64_t kGemmMaxNR = 32;

/// Most mixture components the E-step kernel takes (KernelOps::estep_f32).
inline constexpr int kEStepMaxComponents = 64;

/// Kernel tier identity, in strictly increasing capability order. The env
/// override GMREG_SIMD=scalar|avx2|avx512 selects a ceiling: the dispatcher
/// uses the best *supported* tier at or below it (docs/KERNELS.md).
enum class KernelTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Blocking geometry of the packed GEMM (docs/KERNELS.md). MR x NR is the
/// register tile of the active tier's micro-kernel; KC/MC/NC are the cache
/// block sizes autotuned once at startup from the machine's L1d/L2 geometry
/// (sysconf, with a fixed fallback table). All five are process-constant
/// for a given tier, so tile boundaries — and therefore accumulation
/// orders — never depend on the thread budget.
struct GemmGeometry {
  std::int64_t mr;  ///< register tile rows (fixed per tier: 6 or 14)
  std::int64_t nr;  ///< register tile cols (fixed per tier: 16 or 32)
  std::int64_t kc;  ///< k slab depth: one KC x NR B panel stays L1-resident
  std::int64_t mc;  ///< A block rows: one MC x KC pack stays L2-resident
  std::int64_t nc;  ///< column block width of one 2D work-queue tile
};

/// The runtime-dispatched kernel tier: the GEMM micro-kernel plus the
/// vectorized elementwise kernels layered on the same GMREG_SIMD gate.
/// Exactly one table is active at a time; all tiers share the per-element
/// accumulation orders documented in docs/KERNELS.md.
struct KernelOps {
  /// Short label for telemetry/benches, e.g. "avx2-fma" or "scalar".
  const char* name;

  /// Tier identity, also exported as the gm.kernel.tier gauge.
  KernelTier tier;

  /// Register tile shape this table's gemm_micro computes.
  std::int64_t mr;
  std::int64_t nr;

  /// C tile (+)= alpha * (packed A panel · packed B panel) over one k slab:
  /// c[r*ldc + j] op= alpha * sum_p ap[p*MR + r] * bp[p*NR + j]
  /// for r < mr, j < nr, where MR/NR are this table's tile shape and op is
  /// `=` when `overwrite` (the beta == 0 first slab — C is never read) and
  /// `+=` otherwise. The full MR x NR accumulator is always computed
  /// (packed panels are zero-padded); only the mr x nr corner is stored.
  void (*gemm_micro)(std::int64_t kc, float alpha, const float* ap,
                     const float* bp, float* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr, bool overwrite);

  /// y[i] += alpha * x[i].
  void (*axpy)(std::int64_t n, float alpha, const float* x, float* y);

  /// out[i*cols + j] += row[j] (dense bias broadcast).
  void (*add_row_broadcast)(std::int64_t rows, std::int64_t cols,
                            const float* row, float* out);

  /// out[i*cols + j] += col[i] (conv bias broadcast over spatial positions).
  void (*add_col_broadcast)(std::int64_t rows, std::int64_t cols,
                            const float* col, float* out);

  /// out[j] += sum_i m[i*cols + j] (dense bias gradient).
  void (*col_sums_accum)(std::int64_t rows, std::int64_t cols, const float* m,
                         float* out);

  /// out[i] += sum_j m[i*cols + j] (conv bias gradient).
  void (*row_sums_accum)(std::int64_t rows, std::int64_t cols, const float* m,
                         float* out);

  /// out[i] = max(in[i], 0); when mask != nullptr also mask[i] = in[i] > 0.
  void (*relu_forward)(std::int64_t n, const float* in, float* out,
                       unsigned char* mask);

  /// gin[i] = mask[i] ? gout[i] : 0.
  void (*relu_backward)(std::int64_t n, const float* gout,
                        const unsigned char* mask, float* gin);

  /// One E-step pass (paper Eqs. 9-10) over w[0..n), in double precision,
  /// for the zero-mean mixture with log_coef[k] = log(pi_k) +
  /// log(lambda_k)/2 and precisions lambda[k], k < kk <=
  /// kEStepMaxComponents. Unless greg is null, writes
  /// greg[m] = sum_k r_k(w_m) lambda_k w_m. Unless resp_sum is null, adds
  /// sum_m r_k(w_m) into resp_sum[k] and sum_m r_k(w_m) w_m^2 into
  /// resp_w2_sum[k]. Unlike the entries above, every tier gives the same
  /// bits (tensor/estep_kernel.h, docs/KERNELS.md).
  void (*estep_f32)(std::int64_t n, const float* w, int kk,
                    const double* log_coef, const double* lambda, float* greg,
                    double* resp_sum, double* resp_w2_sum);

  /// estep_f32 over double weights and greg.
  void (*estep_f64)(std::int64_t n, const double* w, int kk,
                    const double* log_coef, const double* lambda,
                    double* greg, double* resp_sum, double* resp_w2_sum);
};

/// The active kernel table: the best tier that was compiled in (GMREG_SIMD
/// build option), is supported by the running CPU, and is not ruled out by
/// the GMREG_SIMD environment override (scalar|avx2|avx512, plus the legacy
/// 0|off spelling of scalar).
const KernelOps& GetKernelOps();

/// Blocking geometry for the active tier: its fixed MR x NR register tile
/// plus KC/MC/NC autotuned from cache geometry (resolved once per process;
/// deterministic — depends only on the machine and the tier).
GemmGeometry GetGemmGeometry();

namespace internal {

/// The AVX2+FMA table, or nullptr when not compiled in / not supported by
/// this CPU. Defined by gemm_kernel_simd.cc.
const KernelOps* GetAvx2KernelOpsOrNull();

/// The AVX-512 table, or nullptr when not compiled in / not supported by
/// this CPU. Defined by gemm_kernel_avx512.cc.
const KernelOps* GetAvx512KernelOpsOrNull();

/// The E-step kernel's instances for the three tables (KernelOps::estep_f32
/// and estep_f64), one translation unit per tier: estep_kernel_scalar.cc,
/// and estep_kernel_avx2.cc / estep_kernel_avx512.cc, which define theirs
/// only when that tier is compiled in.
void EStepScalarF32(std::int64_t n, const float* w, int kk,
                    const double* log_coef, const double* lambda, float* greg,
                    double* resp_sum, double* resp_w2_sum);
void EStepScalarF64(std::int64_t n, const double* w, int kk,
                    const double* log_coef, const double* lambda,
                    double* greg, double* resp_sum, double* resp_w2_sum);
void EStepAvx2F32(std::int64_t n, const float* w, int kk,
                  const double* log_coef, const double* lambda, float* greg,
                  double* resp_sum, double* resp_w2_sum);
void EStepAvx2F64(std::int64_t n, const double* w, int kk,
                  const double* log_coef, const double* lambda, double* greg,
                  double* resp_sum, double* resp_w2_sum);
void EStepAvx512F32(std::int64_t n, const float* w, int kk,
                    const double* log_coef, const double* lambda, float* greg,
                    double* resp_sum, double* resp_w2_sum);
void EStepAvx512F64(std::int64_t n, const double* w, int kk,
                    const double* log_coef, const double* lambda,
                    double* greg, double* resp_sum, double* resp_w2_sum);

/// Test hook: pins GetKernelOps() to one tier so a single binary can run
/// the conformance battery per tier. Returns false (leaving the pin
/// unchanged) when the requested tier is not compiled in or not supported
/// by this CPU. Pass kScalar to force scalar; use ClearKernelTierForTesting
/// to restore env/probe resolution.
bool ForceKernelTierForTesting(KernelTier tier);
void ClearKernelTierForTesting();

/// Cache sizes feeding the block autotuner, resolved once per process from
/// sysconf with the fixed fallback table (l1d = 32 KB, l2 = 1 MB) when the
/// platform does not report them. Exposed for tests/benches.
struct CacheGeometry {
  std::int64_t l1d_bytes;
  std::int64_t l2_bytes;
};
CacheGeometry GetCacheGeometry();

/// The KC/MC/NC autotuning rule for a given register tile — pure function
/// of (tile, cache sizes) so tests can pin its invariants.
GemmGeometry AutotuneGeometry(std::int64_t mr, std::int64_t nr,
                              const CacheGeometry& cache);

}  // namespace internal

/// n rounded up to a whole number of NR column panels.
inline std::int64_t RoundUpN(std::int64_t n, std::int64_t nr) {
  return (n + nr - 1) / nr * nr;
}

/// Number of floats PackB needs for op(B) of shape k x n under `geo`.
inline std::int64_t PackedBFloats(std::int64_t k, std::int64_t n,
                                  const GemmGeometry& geo) {
  return k * RoundUpN(n, geo.nr);
}

/// Packs op(B)'s full k x n into `bp` for the blocked GEMM. Layout: k slabs
/// of kc = min(geo.kc, k - p0) in order; within a slab, column panels of
/// geo.nr as contiguous kc x NR tiles (zero-padded past n). Slab p0 starts
/// at offset p0 * RoundUpN(n, nr); panel j0 at + (j0/NR) * kc * NR.
void PackB(bool trans_b, const float* b, std::int64_t ldb, std::int64_t k,
           std::int64_t n, float* bp, const GemmGeometry& geo);

/// Packs op(A) rows [i0, i0+mc) for k slab [p0, p0+kc) into `ap`: row
/// micro-panels of `mr` as contiguous kc x MR tiles (zero-padded past mc),
/// panel r0 at offset (r0/MR) * kc * MR.
void PackA(bool trans_a, const float* a, std::int64_t lda, std::int64_t i0,
           std::int64_t mc, std::int64_t p0, std::int64_t kc, float* ap,
           std::int64_t mr);

/// One tile of the 2D-blocked GEMM: output rows [i0, i1) x columns
/// [j0, j1) of C, consuming the shared packed B (`bp`, laid out by PackB
/// over the full n) and packing its own A panels into thread-local
/// arena-backed scratch. j0 must sit on a geo.nr panel boundary so the tile
/// reads whole packed panels. Applies beta to its block first (beta == 0
/// never reads C: the first k slab overwrites). Every C element is owned by
/// exactly one tile and accumulates in the same order — ascending p within
/// ascending k slabs — whatever the tile partition, so the 2D work queue is
/// bitwise-invariant to the thread budget (docs/KERNELS.md).
void GemmPackedBlock(bool trans_a, std::int64_t i0, std::int64_t i1,
                     std::int64_t j0, std::int64_t j1, std::int64_t n,
                     std::int64_t k, float alpha, const float* a,
                     std::int64_t lda, const float* bp, float beta, float* c,
                     std::int64_t ldc, const GemmGeometry& geo);

}  // namespace gmreg

#endif  // GMREG_TENSOR_GEMM_KERNEL_H_
