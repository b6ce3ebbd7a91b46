#ifndef GMREG_TENSOR_TENSOR_OPS_H_
#define GMREG_TENSOR_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace gmreg {

/// C[m,n] (+)= alpha * op(A) * op(B): single-precision GEMM with optional
/// transposes, row-major. Backed by the packed register-tiled kernel of
/// tensor/gemm_kernel.h (micro-kernel + B/A panel packing, SIMD behind the
/// GMREG_SIMD gate); all four transpose variants route through the same
/// packed kernel. `beta` scales the existing C first (0 overwrites,
/// discarding NaN/Inf per BLAS convention; alpha == 0 never reads A or B).
/// NaN/Inf in A and B propagate — there is no zero-skip fast path. Results
/// are bitwise identical at every thread budget (docs/KERNELS.md).
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

/// Floats that PackGemmA writes for an m x k op(A) on the active kernel tier.
std::int64_t PackedGemmAFloats(std::int64_t m, std::int64_t k);

/// Packs all of op(A) (m x k) once, into `ap` (PackedGemmAFloats(m, k)
/// floats), for any number of GemmPackedA calls that share it: a conv
/// layer's weight across its sample groups. The layout follows the active
/// tier's blocking geometry, so a pack is good only until the tier changes.
void PackGemmA(bool trans_a, std::int64_t m, std::int64_t k, const float* a,
               std::int64_t lda, float* ap);

/// Gemm with op(A) also given as `ap`, packed by PackGemmA from the same
/// trans_a, m, k, a and lda: the same tile grid and counters, the same
/// bits, and no A packing per tile. A product at or under kGemmSmallFlops
/// (tensor/gemm_kernel.h) runs on the raw `a`, as Gemm does, so the path
/// stays a function of the shape. Pool workers only read `ap`.
void GemmPackedA(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* ap, const float* b, std::int64_t ldb, float beta,
                 float* c, std::int64_t ldc);

/// out = a * b for rank-2 tensors; out is resized/allocated by the caller
/// with shape [a.dim(0), b.dim(1)].
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);

/// y += alpha * x (same shape). Dispatches to the vectorized elementwise
/// tier (tensor/gemm_kernel.h).
void Axpy(float alpha, const Tensor& x, Tensor* y);

/// out[i*cols + j] += row[j] — bias broadcast across `rows` rows.
void AddRowBroadcast(std::int64_t rows, std::int64_t cols, const float* row,
                     float* out);

/// out[i*cols + j] += col[i] — per-row constant broadcast (conv bias over
/// spatial positions).
void AddColBroadcast(std::int64_t rows, std::int64_t cols, const float* col,
                     float* out);

/// out[j] += sum_i m[i*cols + j] — column sums (dense bias gradient).
void ColSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                  float* out);

/// out[i] += sum_j m[i*cols + j] — row sums (conv bias gradient).
void RowSumsAccum(std::int64_t rows, std::int64_t cols, const float* m,
                  float* out);

/// x *= alpha.
void Scale(float alpha, Tensor* x);

/// out = a + b elementwise (same shape).
void Add(const Tensor& a, const Tensor& b, Tensor* out);

/// out = a - b elementwise (same shape).
void Sub(const Tensor& a, const Tensor& b, Tensor* out);

/// out = a * b elementwise (same shape).
void Mul(const Tensor& a, const Tensor& b, Tensor* out);

/// Sum of all elements (double accumulator).
double Sum(const Tensor& x);

/// Sum of squares (double accumulator).
double SumSquares(const Tensor& x);

/// Sum of absolute values (double accumulator).
double SumAbs(const Tensor& x);

/// Dot product (double accumulator); same shape required.
double Dot(const Tensor& a, const Tensor& b);

/// Largest absolute element; 0 for empty tensors.
float MaxAbs(const Tensor& x);

/// Index of the maximum element in row `row` of a rank-2 tensor.
std::int64_t ArgMaxRow(const Tensor& x, std::int64_t row);

}  // namespace gmreg

#endif  // GMREG_TENSOR_TENSOR_OPS_H_
