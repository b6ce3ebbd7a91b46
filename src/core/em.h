#ifndef GMREG_CORE_EM_H_
#define GMREG_CORE_EM_H_

#include <cstdint>
#include <vector>

#include "core/gaussian_mixture.h"
#include "core/hyper.h"

namespace gmreg {

/// Sufficient statistics of one E-step over M parameter dimensions:
///   resp_sum[k]    = sum_m r_k(w_m)            (Eqs. 13/17 numerators)
///   resp_w2_sum[k] = sum_m r_k(w_m) * w_m^2    (Eq. 13 denominator)
struct GmSuffStats {
  std::vector<double> resp_sum;
  std::vector<double> resp_w2_sum;
  std::int64_t count = 0;

  void Reset(int num_components);

  /// Adds `other`'s accumulators into this. Dist folds its ranks'
  /// statistics this way, in rank order.
  void Merge(const GmSuffStats& other);
};

/// Bounds applied to the M-step output to keep the mixture numerically
/// sane on non-stationary data.
struct GmBounds {
  double lambda_min = 1e-6;
  double lambda_max = 1e10;
  double pi_floor = 1e-8;
};

/// One E-step pass over `n` scalars (the paper's calResponsibility +
/// calcRegGrad fused into a single pass): for each element computes the
/// responsibilities r_k (Eq. 9) in log space and
///  * if `greg_out` != nullptr, writes greg_m = sum_k r_k lambda_k w_m
///    (Eq. 10) into greg_out[m];
///  * if `stats` != nullptr, accumulates the sufficient statistics.
///
/// The arithmetic is the active kernel tier's E-step kernel
/// (KernelOps::estep_f32 / estep_f64, tensor/estep_kernel.h): double
/// precision over vectors of weights, with its own exp (within 1 ulp of
/// libm's), and the same bits on every tier. The pass runs on up to
/// `num_threads` threads (<= 0 picks the GMREG_NUM_THREADS / hardware
/// default, see util/parallel.h). greg_out is elementwise, and the
/// statistics are summed per fixed kChunkGrain chunk (8 lane partial sums
/// inside it) and added in chunk order (ParallelChunkedSum), so both
/// outputs are bitwise identical at every budget and tier.
void EStep(const GaussianMixture& gm, const float* w, std::int64_t n,
           float* greg_out, GmSuffStats* stats, int num_threads = 0);

/// Double-precision overload used by the standalone fitting utility.
void EStep(const GaussianMixture& gm, const double* w, std::int64_t n,
           double* greg_out, GmSuffStats* stats, int num_threads = 0);

/// M-step (the paper's uptGMParam): closed-form maximizers
///   lambda_k = (2(a-1) + sum_m r_k) / (2b + sum_m r_k w_m^2)   (Eq. 13)
///   pi_k     = (sum_m r_k + alpha_k - 1) / (M + sum_j(alpha_j - 1)) (Eq. 17)
/// applied to `gm` in place, clamped to `bounds`. O(K) arithmetic on the
/// already-reduced statistics — always serial and exactly reproducible
/// given the same `stats`.
void MStep(const GmSuffStats& stats, const GmHyperParams& hyper,
           const GmBounds& bounds, GaussianMixture* gm);

/// Batch EM on a fixed sample (used by tests and the density example):
/// `iterations` alternations of EStep/MStep starting from `init`.
GaussianMixture FitZeroMeanGm(const std::vector<double>& values,
                              const GaussianMixture& init,
                              const GmHyperParams& hyper,
                              const GmBounds& bounds, int iterations);

}  // namespace gmreg

#endif  // GMREG_CORE_EM_H_
