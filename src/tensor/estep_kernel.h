// The E-step kernel (paper Eqs. 9-10): one source, a template over the
// vector width W in doubles, which each tier's table instantiates
// (tensor/kernel_tier.h): W = 2 on the scalar tier's baseline ISA, 4 under
// AVX2 and 8 under AVX-512. No a*b + c in it is fused into an FMA: the
// kernel writes none, and gmreg_tensor is compiled with -ffp-contract=off.
// Each lane runs the same IEEE double operations in the same order on
// every tier, and the sufficient statistics go through 8 lane partial sums
// per component, folded in one fixed order, whatever W is. The outputs are
// therefore the same bits on every tier (docs/KERNELS.md).
//
// Only what GCC and clang both accept on vector_size types is used: lane
// arithmetic with scalar splats, comparisons as lane masks, mask bit ops,
// casts between vector types of one size (bit reinterpretation) and
// __builtin_convertvector. Every function here is a template over W, and
// each W is instantiated in one translation unit only, so the linker can
// never hand a narrower tier code compiled for a wider ISA.

#ifndef GMREG_TENSOR_ESTEP_KERNEL_H_
#define GMREG_TENSOR_ESTEP_KERNEL_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "tensor/gemm_kernel.h"

namespace gmreg {
namespace internal {

/// Weights per block, and lane partial sums per component: weight m of a
/// call goes to lane m % 8.
inline constexpr int kEStepLanes = 8;

/// The vector types at width W; a block of kEStepLanes weights is kVecs
/// vectors.
template <int W>
struct EStepVec {
  typedef double D __attribute__((vector_size(8 * W)));
  typedef std::uint64_t U __attribute__((vector_size(8 * W)));
  typedef float F __attribute__((vector_size(4 * W)));
  static constexpr int kVecs = kEStepLanes / W;
  static_assert(kVecs * W == kEStepLanes);
};

// exp(a) for a <= 0 or NaN, lane-wise.
//   Cody-Waite: n = round(a * log2(e)) through the 1.5 * 2^52 shift,
//   r = a - n*ln2_hi - n*ln2_lo with |r| <= ln2/2 (ln2_hi ends in 21 zero
//   bits, so n*ln2_hi is exact); exp(r) by its Taylor polynomial of degree
//   13 in Horner form, within 1 ulp of glibc over [-708, 0]; 2^n built in
//   the exponent bits from t's bit pattern, in unsigned lanes. a < -708
//   gives +0 (libm gives at most 2.5e-308 there); NaN stays NaN.
template <int W>
inline typename EStepVec<W>::D ExpNonPositive(typename EStepVec<W>::D a) {
  using D = typename EStepVec<W>::D;
  using U = typename EStepVec<W>::U;
  constexpr double kLog2e = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr std::uint64_t kShiftBits = 0x4338000000000000u;
  constexpr std::uint64_t kExpBias = 1023;
  constexpr double kMinArg = -708.0;
  const D t = a * kLog2e + kShift;
  const D n = t - kShift;
  D r = a - n * kLn2Hi;
  r = r - n * kLn2Lo;
  D p = D{} + 1.0 / 6227020800.0;  // 1/13!
  p = p * r + 1.0 / 479001600.0;
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // bits(t) = kShiftBits + n, so the exponent field of 2^n is
  // bits(t) - kShiftBits + 1023; unsigned lanes wrap instead of overflowing.
  const U scale = ((U)t + (kExpBias - kShiftBits)) << 52;
  const D e = p * (D)scale;
  const U under = (U)(a < (D{} + kMinArg));
  return (D)((U)e & ~under);
}

// The normalized responsibilities r_k (Eq. 9) of one block's weights x[v]
// into r[k][v], computed in log space like
// GaussianMixture::Responsibilities(): r_k = lc_k - (lambda_k / 2) x x,
// best = max_k r_k with std::max's semantics (a NaN r_k never replaces
// best), e_k = exp(r_k - best), then one reciprocal of sum_k e_k.
template <int W>
inline void EStepResponsibilities(
    const typename EStepVec<W>::D* x, int kk, const double* log_coef,
    const double* half_lambda,
    typename EStepVec<W>::D (*r)[EStepVec<W>::kVecs]) {
  using D = typename EStepVec<W>::D;
  using U = typename EStepVec<W>::U;
  constexpr int kVecs = EStepVec<W>::kVecs;
  D best[kVecs];
  for (int v = 0; v < kVecs; ++v) best[v] = D{} - 1e300;
  for (int k = 0; k < kk; ++k) {
    for (int v = 0; v < kVecs; ++v) {
      const D rk = log_coef[k] - half_lambda[k] * x[v] * x[v];
      r[k][v] = rk;
      const U take = (U)(best[v] < rk);
      best[v] = (D)(((U)rk & take) | ((U)best[v] & ~take));
    }
  }
  D denom[kVecs] = {};
  for (int k = 0; k < kk; ++k) {
    for (int v = 0; v < kVecs; ++v) {
      r[k][v] = ExpNonPositive<W>(r[k][v] - best[v]);
      denom[v] = denom[v] + r[k][v];
    }
  }
  D inv[kVecs];
  for (int v = 0; v < kVecs; ++v) inv[v] = 1.0 / denom[v];
  for (int k = 0; k < kk; ++k) {
    for (int v = 0; v < kVecs; ++v) r[k][v] = r[k][v] * inv[v];
  }
}

template <int W, typename T>
inline typename EStepVec<W>::D EStepLoad(const T* p) {
  typename EStepVec<W>::D x;
  if constexpr (std::is_same_v<T, float>) {
    typename EStepVec<W>::F f;
    std::memcpy(&f, p, sizeof(f));
    x = __builtin_convertvector(f, typename EStepVec<W>::D);
  } else {
    std::memcpy(&x, p, sizeof(x));
  }
  return x;
}

template <int W, typename T>
inline void EStepStore(T* p, typename EStepVec<W>::D g) {
  if constexpr (std::is_same_v<T, float>) {
    typename EStepVec<W>::F f =
        __builtin_convertvector(g, typename EStepVec<W>::F);
    std::memcpy(p, &f, sizeof(f));
  } else {
    std::memcpy(p, &g, sizeof(g));
  }
}

/// The KernelOps::estep_f32 / estep_f64 contract (tensor/gemm_kernel.h) at
/// vector width W. greg is elementwise: (sum_k r_k lambda_k) x, summed in k
/// order. Lane j of the statistics adds the weights at offsets = j (mod 8)
/// in ascending order; lanes past n add nothing. At the end the lanes are
/// folded in order 0..7 and added into resp_sum / resp_w2_sum.
template <int W, typename T>
void EStepKernel(std::int64_t n, const T* w, int kk, const double* log_coef,
                 const double* lambda, T* greg, double* resp_sum,
                 double* resp_w2_sum) {
  using D = typename EStepVec<W>::D;
  using U = typename EStepVec<W>::U;
  constexpr int kVecs = EStepVec<W>::kVecs;
  double half_lambda[kEStepMaxComponents];
  for (int k = 0; k < kk; ++k) half_lambda[k] = 0.5 * lambda[k];
  const bool stats = resp_sum != nullptr;
  D sum_r[kEStepMaxComponents][kVecs];
  D sum_rw2[kEStepMaxComponents][kVecs];
  if (stats) {
    for (int k = 0; k < kk; ++k) {
      for (int v = 0; v < kVecs; ++v) sum_r[k][v] = sum_rw2[k][v] = D{};
    }
  }
  D r[kEStepMaxComponents][kVecs];
  // One block of kEStepLanes weights, of which the first `valid` are real.
  auto block = [&](const T* src, T* dst, std::int64_t valid) {
    D x[kVecs];
    for (int v = 0; v < kVecs; ++v) x[v] = EStepLoad<W>(src + v * W);
    EStepResponsibilities<W>(x, kk, log_coef, half_lambda, r);
    if (dst != nullptr) {
      D acc[kVecs] = {};
      for (int k = 0; k < kk; ++k) {
        for (int v = 0; v < kVecs; ++v) {
          acc[v] = acc[v] + r[k][v] * lambda[k];
        }
      }
      for (int v = 0; v < kVecs; ++v) {
        EStepStore<W>(dst + v * W, acc[v] * x[v]);
      }
    }
    if (!stats) return;
    U keep[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      for (int i = 0; i < W; ++i) {
        keep[v][i] = v * W + i < valid ? ~std::uint64_t{0} : 0;
      }
    }
    for (int k = 0; k < kk; ++k) {
      for (int v = 0; v < kVecs; ++v) {
        const D rk = (D)((U)r[k][v] & keep[v]);
        sum_r[k][v] = sum_r[k][v] + rk;
        sum_rw2[k][v] = sum_rw2[k][v] + rk * x[v] * x[v];
      }
    }
  };
  std::int64_t b = 0;
  for (; b + kEStepLanes <= n; b += kEStepLanes) {
    block(w + b, greg == nullptr ? nullptr : greg + b, kEStepLanes);
  }
  if (b < n) {
    // The tail block runs on a zero-padded copy; its extra lanes are
    // masked out of the statistics and never stored.
    const std::int64_t valid = n - b;
    T tail_w[kEStepLanes] = {};
    T tail_g[kEStepLanes] = {};
    for (std::int64_t j = 0; j < valid; ++j) tail_w[j] = w[b + j];
    block(tail_w, greg == nullptr ? nullptr : tail_g, valid);
    if (greg != nullptr) {
      for (std::int64_t j = 0; j < valid; ++j) greg[b + j] = tail_g[j];
    }
  }
  if (!stats) return;
  for (int k = 0; k < kk; ++k) {
    double lanes_r[kEStepLanes];
    double lanes_rw2[kEStepLanes];
    std::memcpy(lanes_r, sum_r[k], sizeof(lanes_r));
    std::memcpy(lanes_rw2, sum_rw2[k], sizeof(lanes_rw2));
    double fold_r = lanes_r[0];
    double fold_rw2 = lanes_rw2[0];
    for (int j = 1; j < kEStepLanes; ++j) {
      fold_r += lanes_r[j];
      fold_rw2 += lanes_rw2[j];
    }
    resp_sum[k] += fold_r;
    resp_w2_sum[k] += fold_rw2;
  }
}

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_TENSOR_ESTEP_KERNEL_H_
