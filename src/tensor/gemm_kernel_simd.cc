// AVX2+FMA kernel tier. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt): everything here is reached
// strictly through the GetAvx2KernelOpsOrNull() table, which returns nullptr
// unless the running CPU reports AVX2 and FMA support, so no AVX
// instruction can execute on hardware that lacks it.
//
// The micro-kernel is tensor/gemm_micro_kernel.h's template at 8 floats per
// vector. Per-element accumulation orders mirror the scalar tier exactly;
// the only permitted numeric divergence is FMA contraction of a*b+c
// (docs/KERNELS.md quantifies the tolerance, tests/gemm_kernel_test.cc pins
// it).

#include "tensor/gemm_kernel.h"
#include "tensor/gemm_micro_kernel.h"

#if defined(GMREG_SIMD_AVX2)

namespace gmreg {
namespace {

constexpr std::int64_t kAvx2MR = 6;
constexpr std::int64_t kAvx2NR = 16;

typedef float V8 __attribute__((vector_size(32)));

inline V8 Load8(const float* p) {
  V8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store8(float* p, V8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

// The elementwise tier below is written as plain loops: compiled in this TU
// they auto-vectorize to AVX2 (the scalar TU keeps the SSE2 baseline).

void AxpyAvx2(std::int64_t n, float alpha, const float* x, float* y) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void AddRowBroadcastAvx2(std::int64_t rows, std::int64_t cols,
                         const float* row, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += row[j];
  }
}

void AddColBroadcastAvx2(std::int64_t rows, std::int64_t cols,
                         const float* col, float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float v = col[i];
    float* o = out + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) o[j] += v;
  }
}

void ColSumsAccumAvx2(std::int64_t rows, std::int64_t cols, const float* m,
                      float* out) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) out[j] += r[j];
  }
}

void RowSumsAccumAvx2(std::int64_t rows, std::int64_t cols, const float* m,
                      float* out) {
  // 8 vector lanes of partial sums folded lane-by-lane at the end: a fixed
  // reassociation of the scalar tier's ordered sum (tolerance documented in
  // docs/KERNELS.md).
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* r = m + i * cols;
    V8 vacc = {};
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) vacc += Load8(r + j);
    float lanes[8];
    Store8(lanes, vacc);
    float acc = 0.0f;
    for (int l = 0; l < 8; ++l) acc += lanes[l];
    for (; j < cols; ++j) acc += r[j];
    out[i] += acc;
  }
}

void ReluForwardAvx2(std::int64_t n, const float* in, float* out,
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

void ReluBackwardAvx2(std::int64_t n, const float* gout,
                      const unsigned char* mask, float* gin) {
  for (std::int64_t i = 0; i < n; ++i) gin[i] = mask[i] ? gout[i] : 0.0f;
}

constexpr KernelOps kAvx2Ops = {
    "avx2-fma",
    KernelTier::kAvx2,
    kAvx2MR,
    kAvx2NR,
    internal::GemmMicro<8, kAvx2MR, kAvx2NR>,
    AxpyAvx2,
    AddRowBroadcastAvx2,
    AddColBroadcastAvx2,
    ColSumsAccumAvx2,
    RowSumsAccumAvx2,
    ReluForwardAvx2,
    ReluBackwardAvx2,
    internal::EStepAvx2F32,
    internal::EStepAvx2F64,
};

}  // namespace

namespace internal {

const KernelOps* GetAvx2KernelOpsOrNull() {
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Ops;
  }
#endif
  return nullptr;
}

}  // namespace internal
}  // namespace gmreg

#else  // !GMREG_SIMD_AVX2: the gate is compiled out, only scalar exists.

namespace gmreg {
namespace internal {

const KernelOps* GetAvx2KernelOpsOrNull() { return nullptr; }

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_SIMD_AVX2
