// Scalar kernel tier, always compiled, on the baseline ISA: a 4 x 4
// register tile of single floats and a 2-double E-step (SSE2 on x86-64).
// Without FMA in the ISA each fused multiply-add is a call to libm's fmaf,
// so this tier is slow; it gives the same bits as the SIMD tiers.

#include "tensor/kernel_tier.h"

namespace gmreg {
namespace internal {
namespace {

struct Scalar {
  static constexpr const char* kName = "scalar";
  static constexpr KernelTier kTier = KernelTier::kScalar;
  static constexpr int kWidth = 1;
  static constexpr int kMR = 4;
  static constexpr int kNR = 4;
  static constexpr int kEStepWidth = 2;
  using V = float;
  static V Zero() { return 0.0f; }
  static V Load(const float* p) { return *p; }
  static void Store(float* p, V v) { *p = v; }
  // A one-float vector is never partial.
  static V LoadPartial(const float* p, int) { return *p; }
  static void StorePartial(float* p, V v, int) { *p = v; }
  static V Broadcast(const float* p) { return *p; }
  static V Mul(V a, V b) { return a * b; }
  static V Fma(V a, V b, V c) { return __builtin_fmaf(a, b, c); }
};

}  // namespace

const KernelOps* GetScalarKernelOps() { return &TierKernelOps<Scalar>; }

}  // namespace internal
}  // namespace gmreg
