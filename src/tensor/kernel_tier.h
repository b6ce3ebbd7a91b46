// One kernel tier's KernelOps table, written once. Each tier's translation
// unit (kernel_tier_scalar.cc, kernel_tier_avx2.cc, kernel_tier_avx512.cc)
// defines an ISA policy in an anonymous namespace and instantiates
// TierKernelOps<Isa> under its own compile flags. The table holds:
//
//  - the GEMM micro-kernel, tensor/gemm_micro_kernel.h's template over the
//    policy;
//  - the seven elementwise ops below, plain loops that the tier's flags
//    vectorize. Each gives the same bits on every tier: Axpy rounds once
//    per element through a fused multiply-add, RowSumsAccum keeps 16 lane
//    sums whatever the vector width, and the rest add in one fixed order
//    or only select;
//  - the E-step, tensor/estep_kernel.h's template at the policy's double
//    vector width kEStepWidth.
//
// Every function here is a template over the policy, whose type has
// internal linkage, so each tier's instances stay in its translation unit.
// A policy provides kName, kTier, kWidth, kMR, kNR and kEStepWidth plus the
// vector operations gemm_micro_kernel.h lists.

#ifndef GMREG_TENSOR_KERNEL_TIER_H_
#define GMREG_TENSOR_KERNEL_TIER_H_

#include <cstdint>

#include "tensor/estep_kernel.h"
#include "tensor/gemm_kernel.h"
#include "tensor/gemm_micro_kernel.h"

namespace gmreg {
namespace internal {

// __builtin_fmaf rather than std::fma: an out-of-line std::fma (as in an
// unoptimized build) is one weak symbol for every translation unit, and
// the linker could hand the scalar tier the copy compiled for FMA.
template <typename Isa>
void TierAxpy(std::int64_t n, float alpha, const float* x, float* y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = __builtin_fmaf(alpha, x[i], y[i]);
}

template <typename Isa>
void TierAddRowBroadcast(std::int64_t rows, std::int64_t cols,
                         const float* row, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += row[j];
  }
}

template <typename Isa>
void TierAddColBroadcast(std::int64_t rows, std::int64_t cols,
                         const float* col, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float v = col[i];
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += v;
  }
}

template <typename Isa>
void TierColSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                      float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) out[j] += r[j];
  }
}

// Lane l sums the row's elements at j = l (mod 16) over its whole 16-float
// blocks; the lanes fold in order 0..15, then the tail adds in order.
template <typename Isa>
void TierRowSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                      float* out) {
  constexpr int kLanes = 16;
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    float lanes[kLanes] = {};
    std::int64_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      for (int l = 0; l < kLanes; ++l) lanes[l] += r[j + l];
    }
    float acc = 0.0f;
    for (int l = 0; l < kLanes; ++l) acc += lanes[l];
    for (; j < cols; ++j) acc += r[j];
    out[i] += acc;
  }
}

template <typename Isa>
void TierReluForward(std::int64_t n, const float* in, float* out,
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

template <typename Isa>
void TierReluBackward(std::int64_t n, const float* gout,
                      const unsigned char* mask, float* gin) {
  for (std::int64_t i = 0; i < n; ++i) gin[i] = mask[i] ? gout[i] : 0.0f;
}

template <typename Isa>
inline constexpr KernelOps TierKernelOps = {
    Isa::kName,
    Isa::kTier,
    Isa::kMR,
    Isa::kNR,
    GemmMicro<Isa>,
    TierAxpy<Isa>,
    TierAddRowBroadcast<Isa>,
    TierAddColBroadcast<Isa>,
    TierColSumsAccum<Isa>,
    TierRowSumsAccum<Isa>,
    TierReluForward<Isa>,
    TierReluBackward<Isa>,
    EStepKernel<Isa::kEStepWidth, float>,
    EStepKernel<Isa::kEStepWidth, double>,
};

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_TENSOR_KERNEL_TIER_H_
