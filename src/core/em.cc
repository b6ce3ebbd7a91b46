#include "core/em.h"

#include <algorithm>

#include "tensor/gemm_kernel.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gmreg {

void GmSuffStats::Reset(int num_components) {
  resp_sum.assign(static_cast<std::size_t>(num_components), 0.0);
  resp_w2_sum.assign(static_cast<std::size_t>(num_components), 0.0);
  count = 0;
}

void GmSuffStats::Merge(const GmSuffStats& other) {
  GMREG_CHECK_EQ(resp_sum.size(), other.resp_sum.size());
  for (std::size_t k = 0; k < resp_sum.size(); ++k) {
    resp_sum[k] += other.resp_sum[k];
    resp_w2_sum[k] += other.resp_w2_sum[k];
  }
  count += other.count;
}

namespace {

static_assert(kMaxGmComponents <= kEStepMaxComponents);

// The active tier's E-step kernel for each weight type (KernelOps,
// tensor/estep_kernel.h). Every tier gives the same bits.
auto EStepKernelFor(const float*) { return GetKernelOps().estep_f32; }
auto EStepKernelFor(const double*) { return GetKernelOps().estep_f64; }

// greg alone is elementwise, so any split gives the same bits; the
// statistics are summed per fixed chunk (one kernel call each, which folds
// its 8 lane sums into the chunk's partial) and added in chunk order.
template <typename T>
void EStepDispatch(const GaussianMixture& gm, const T* w, std::int64_t n,
                   T* greg_out, GmSuffStats* stats, int num_threads) {
  int kk = gm.num_components();
  GMREG_CHECK_LE(kk, kMaxGmComponents);
  const auto kernel = EStepKernelFor(w);
  const double* log_coef = gm.log_coef().data();
  const double* lambda = gm.lambda().data();
  if (stats == nullptr) {
    if (greg_out == nullptr) return;
    ParallelFor(
        0, n, kChunkGrain,
        [&](std::int64_t b, std::int64_t e) {
          kernel(e - b, w + b, kk, log_coef, lambda, greg_out + b, nullptr,
                 nullptr);
        },
        num_threads);
    return;
  }
  GMREG_CHECK_EQ(static_cast<int>(stats->resp_sum.size()), kk);
  // sums = [resp_sum(K) | resp_w2_sum(K)]; 2K <= kMaxChunkedSumWidth.
  double sums[kMaxChunkedSumWidth] = {};
  ParallelChunkedSum(
      0, n, 2 * kk,
      [&](std::int64_t b, std::int64_t e, double* partial) {
        kernel(e - b, w + b, kk, log_coef, lambda,
               greg_out == nullptr ? nullptr : greg_out + b, partial,
               partial + kk);
      },
      sums, num_threads);
  for (int k = 0; k < kk; ++k) {
    auto ks = static_cast<std::size_t>(k);
    stats->resp_sum[ks] += sums[k];
    stats->resp_w2_sum[ks] += sums[kk + k];
  }
  stats->count += n;
}

}  // namespace

void EStep(const GaussianMixture& gm, const float* w, std::int64_t n,
           float* greg_out, GmSuffStats* stats, int num_threads) {
  EStepDispatch(gm, w, n, greg_out, stats, num_threads);
}

void EStep(const GaussianMixture& gm, const double* w, std::int64_t n,
           double* greg_out, GmSuffStats* stats, int num_threads) {
  EStepDispatch(gm, w, n, greg_out, stats, num_threads);
}

void MStep(const GmSuffStats& stats, const GmHyperParams& hyper,
           const GmBounds& bounds, GaussianMixture* gm) {
  int kk = gm->num_components();
  GMREG_CHECK_EQ(static_cast<int>(stats.resp_sum.size()), kk);
  GMREG_CHECK_EQ(static_cast<int>(hyper.alpha.size()), kk);
  GMREG_CHECK_GT(stats.count, 0);
  // K <= kMaxGmComponents everywhere (EStepDispatch enforces it), so the
  // updated parameters fit on the stack and the per-step M-step stays
  // allocation-free; the arithmetic below is unchanged from the vector
  // version.
  GMREG_CHECK_LE(kk, kMaxGmComponents);
  double pi[kMaxGmComponents];
  double lambda[kMaxGmComponents];
  double m_total = static_cast<double>(stats.count);
  double pi_denom = m_total + hyper.AlphaSumMinusK();
  GMREG_CHECK_GT(pi_denom, 0.0);
  double pi_sum = 0.0;
  for (int k = 0; k < kk; ++k) {
    auto ks = static_cast<std::size_t>(k);
    // Eq. 13: 2(a-1) and 2b act as "pseudo parameter" smoothing terms.
    double num = 2.0 * (hyper.a - 1.0) + stats.resp_sum[ks];
    double den = 2.0 * hyper.b + stats.resp_w2_sum[ks];
    double l = den > 0.0 ? num / den : bounds.lambda_max;
    lambda[ks] = std::clamp(l, bounds.lambda_min, bounds.lambda_max);
    // Eq. 17.
    double p = (stats.resp_sum[ks] + hyper.alpha[ks] - 1.0) / pi_denom;
    pi[ks] = std::max(p, bounds.pi_floor);
    pi_sum += pi[ks];
  }
  for (int k = 0; k < kk; ++k) pi[static_cast<std::size_t>(k)] /= pi_sum;
  gm->SetFromArrays(pi, lambda, kk);
}

GaussianMixture FitZeroMeanGm(const std::vector<double>& values,
                              const GaussianMixture& init,
                              const GmHyperParams& hyper,
                              const GmBounds& bounds, int iterations) {
  GMREG_CHECK(!values.empty());
  GaussianMixture gm = init;
  GmSuffStats stats;
  for (int it = 0; it < iterations; ++it) {
    stats.Reset(gm.num_components());
    EStep(gm, values.data(), static_cast<std::int64_t>(values.size()),
          /*greg_out=*/nullptr, &stats);
    MStep(stats, hyper, bounds, &gm);
  }
  return gm;
}

}  // namespace gmreg
