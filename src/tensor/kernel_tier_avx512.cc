// AVX-512 kernel tier: a 14 x 32 register tile of 16-float ZMM vectors (28
// accumulators, two B vectors and a broadcast in the 32 registers) and an
// 8-double E-step. This translation unit is the only one compiled with
// -mavx512f (src/tensor/CMakeLists.txt), and its table is reached only
// through GetAvx512KernelOpsOrNull(), which returns nullptr unless the
// running CPU reports AVX-512F.

#include "tensor/kernel_tier.h"

#if defined(GMREG_SIMD_AVX512)

#include <immintrin.h>

namespace gmreg {
namespace internal {
namespace {

struct Avx512 {
  static constexpr const char* kName = "avx512";
  static constexpr KernelTier kTier = KernelTier::kAvx512;
  static constexpr int kWidth = 16;
  static constexpr int kMR = 14;
  static constexpr int kNR = 32;
  static constexpr int kEStepWidth = 8;
  using V = __m512;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static __mmask16 Lanes(int n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static V LoadPartial(const float* p, int n) {
    return _mm512_maskz_loadu_ps(Lanes(n), p);
  }
  static void StorePartial(float* p, V v, int n) {
    _mm512_mask_storeu_ps(p, Lanes(n), v);
  }
  static V Broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static V Mul(V a, V b) { return _mm512_mul_ps(a, b); }
  static V Fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
};

}  // namespace

const KernelOps* GetAvx512KernelOpsOrNull() {
  if (__builtin_cpu_supports("avx512f")) return &TierKernelOps<Avx512>;
  return nullptr;
}

}  // namespace internal
}  // namespace gmreg

#else  // !GMREG_SIMD_AVX512: the tier is compiled out.

namespace gmreg {
namespace internal {

const KernelOps* GetAvx512KernelOpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_SIMD_AVX512
