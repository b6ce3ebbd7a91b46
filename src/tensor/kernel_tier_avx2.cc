// AVX2+FMA kernel tier: a 6 x 16 register tile of 8-float YMM vectors and a
// 4-double E-step. This translation unit is the only one compiled with
// -mavx2 -mfma (src/tensor/CMakeLists.txt), and its table is reached only
// through GetAvx2KernelOpsOrNull(), which returns nullptr unless the
// running CPU reports AVX2 and FMA.

#include "tensor/kernel_tier.h"

#if defined(GMREG_SIMD_AVX2)

#include <immintrin.h>

namespace gmreg {
namespace internal {
namespace {

struct Avx2 {
  static constexpr const char* kName = "avx2-fma";
  static constexpr KernelTier kTier = KernelTier::kAvx2;
  static constexpr int kWidth = 8;
  static constexpr int kMR = 6;
  static constexpr int kNR = 16;
  static constexpr int kEStepWidth = 4;
  using V = __m256;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static __m256i Lanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V LoadPartial(const float* p, int n) {
    return _mm256_maskload_ps(p, Lanes(n));
  }
  static void StorePartial(float* p, V v, int n) {
    _mm256_maskstore_ps(p, Lanes(n), v);
  }
  static V Broadcast(const float* p) { return _mm256_set1_ps(*p); }
  static V Mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
};

}  // namespace

const KernelOps* GetAvx2KernelOpsOrNull() {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &TierKernelOps<Avx2>;
  }
  return nullptr;
}

}  // namespace internal
}  // namespace gmreg

#else  // !GMREG_SIMD_AVX2: the tier is compiled out.

namespace gmreg {
namespace internal {

const KernelOps* GetAvx2KernelOpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_SIMD_AVX2
