// Scalar-tier E-step: the kernel of tensor/estep_kernel.h at W = 2 on the
// baseline ISA (SSE2 on x86-64). Like the AVX2 and AVX-512 instances it is
// compiled with -ffp-contract=off (src/tensor/CMakeLists.txt), so all three
// give the same bits.

#include "tensor/estep_kernel.h"

namespace gmreg {
namespace internal {

void EStepScalarF32(std::int64_t n, const float* w, int kk,
                    const double* log_coef, const double* lambda, float* greg,
                    double* resp_sum, double* resp_w2_sum) {
  EStepKernel<2>(n, w, kk, log_coef, lambda, greg, resp_sum, resp_w2_sum);
}

void EStepScalarF64(std::int64_t n, const double* w, int kk,
                    const double* log_coef, const double* lambda,
                    double* greg, double* resp_sum, double* resp_w2_sum) {
  EStepKernel<2>(n, w, kk, log_coef, lambda, greg, resp_sum, resp_w2_sum);
}

}  // namespace internal
}  // namespace gmreg
