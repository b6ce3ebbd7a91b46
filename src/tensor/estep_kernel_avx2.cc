// AVX2-tier E-step: the kernel of tensor/estep_kernel.h at W = 4. Built
// with -mavx2 behind the same compiler probe as gemm_kernel_simd.cc and
// reached only through that tier's KernelOps table, which the CPU probe
// guards. -ffp-contract=off keeps every a*b + c unfused, so the bits match
// the scalar tier's (src/tensor/CMakeLists.txt).

#include "tensor/estep_kernel.h"

#if defined(GMREG_SIMD_AVX2)

namespace gmreg {
namespace internal {

void EStepAvx2F32(std::int64_t n, const float* w, int kk,
                  const double* log_coef, const double* lambda, float* greg,
                  double* resp_sum, double* resp_w2_sum) {
  EStepKernel<4>(n, w, kk, log_coef, lambda, greg, resp_sum, resp_w2_sum);
}

void EStepAvx2F64(std::int64_t n, const double* w, int kk,
                  const double* log_coef, const double* lambda, double* greg,
                  double* resp_sum, double* resp_w2_sum) {
  EStepKernel<4>(n, w, kk, log_coef, lambda, greg, resp_sum, resp_w2_sum);
}

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_SIMD_AVX2
