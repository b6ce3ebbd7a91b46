// AVX-512 kernel tier. This translation unit is the only one compiled with
// -mavx512f (see src/tensor/CMakeLists.txt): everything here is reached
// strictly through the GetAvx512KernelOpsOrNull() table, which returns
// nullptr unless the running CPU reports AVX-512F support, so no AVX-512
// instruction can execute on hardware that lacks it.
//
// The register tile widens to 14x32: 28 ZMM accumulators plus two B vectors
// and one broadcast fill 31 of the 32 ZMM registers. The micro-kernel is
// tensor/gemm_micro_kernel.h's template at 16 floats per vector. Per-element
// accumulation orders mirror the scalar tier exactly; the only permitted
// numeric divergence is FMA contraction of a*b+c (docs/KERNELS.md
// quantifies the tolerance, tests/gemm_kernel_test.cc pins it).

#include "tensor/gemm_kernel.h"
#include "tensor/gemm_micro_kernel.h"

#if defined(GMREG_SIMD_AVX512)

namespace gmreg {
namespace {

constexpr std::int64_t kAvx512MR = 14;
constexpr std::int64_t kAvx512NR = 32;

typedef float V16 __attribute__((vector_size(64)));

inline V16 Load16(const float* p) {
  V16 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store16(float* p, V16 v) { __builtin_memcpy(p, &v, sizeof(v)); }

// The elementwise tier below is written as plain loops: compiled in this TU
// they auto-vectorize to 512-bit vectors.

void AxpyAvx512(std::int64_t n, float alpha, const float* x, float* y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddRowBroadcastAvx512(std::int64_t rows, std::int64_t cols,
                           const float* row, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += row[j];
  }
}

void AddColBroadcastAvx512(std::int64_t rows, std::int64_t cols,
                           const float* col, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float v = col[i];
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += v;
  }
}

void ColSumsAccumAvx512(std::int64_t rows, std::int64_t cols, const float* m,
                        float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) out[j] += r[j];
  }
}

void RowSumsAccumAvx512(std::int64_t rows, std::int64_t cols, const float* m,
                        float* out) {
  // 16 vector lanes of partial sums folded lane-by-lane at the end: a fixed
  // reassociation of the scalar tier's ordered sum (tolerance documented in
  // docs/KERNELS.md).
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    V16 vacc = {};
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) vacc += Load16(r + j);
    float lanes[16];
    Store16(lanes, vacc);
    float acc = 0.0f;
    for (int l = 0; l < 16; ++l) acc += lanes[l];
    for (; j < cols; ++j) acc += r[j];
    out[i] += acc;
  }
}

void ReluForwardAvx512(std::int64_t n, const float* in, float* out,
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

void ReluBackwardAvx512(std::int64_t n, const float* gout,
                        const unsigned char* mask, float* gin) {
  for (std::int64_t i = 0; i < n; ++i) gin[i] = mask[i] ? gout[i] : 0.0f;
}

constexpr KernelOps kAvx512Ops = {
    "avx512",
    KernelTier::kAvx512,
    kAvx512MR,
    kAvx512NR,
    internal::GemmMicro<16, kAvx512MR, kAvx512NR>,
    AxpyAvx512,
    AddRowBroadcastAvx512,
    AddColBroadcastAvx512,
    ColSumsAccumAvx512,
    RowSumsAccumAvx512,
    ReluForwardAvx512,
    ReluBackwardAvx512,
    internal::EStepAvx512F32,
    internal::EStepAvx512F64,
};

}  // namespace

namespace internal {

const KernelOps* GetAvx512KernelOpsOrNull() {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx512f")) {
    return &kAvx512Ops;
  }
#endif
  return nullptr;
}

}  // namespace internal
}  // namespace gmreg

#else  // !GMREG_SIMD_AVX512: the gate is compiled out, only lower tiers.

namespace gmreg {
namespace internal {

const KernelOps* GetAvx512KernelOpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_SIMD_AVX512
