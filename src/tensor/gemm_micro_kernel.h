// The GEMM micro-kernel of the SIMD tiers: one source, a template over the
// vector width W in floats, instantiated by gemm_kernel_simd.cc (W = 8,
// 6 x 16 tile, AVX2+FMA) and gemm_kernel_avx512.cc (W = 16, 14 x 32 tile).
// Both translation units keep FMA contraction, so `acc += av * b` and the
// writeback `c + alpha * acc` each become one fused multiply-add.
//
// Every (R, NV) — R rows of 1..MR and NV vectors of 1..NR/W — is its own
// instance, picked by a table on (mr, nv): an edge tile computes only the
// rows and vectors of C that it stores. Each stored element runs the same
// operations in every instance, in the same order, and goes through the
// same writeback expression, so its bits do not depend on where its tile
// sits. Every function here is a template over W, and each W is
// instantiated in one translation unit only, so the linker can never hand
// a narrower tier code compiled for a wider ISA.

#ifndef GMREG_TENSOR_GEMM_MICRO_KERNEL_H_
#define GMREG_TENSOR_GEMM_MICRO_KERNEL_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

namespace gmreg {
namespace internal {

template <int W>
struct GemmVec {
  typedef float V __attribute__((vector_size(4 * W)));
};

template <int W>
inline typename GemmVec<W>::V GemmLoad(const float* p) {
  typename GemmVec<W>::V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
inline void GemmStore(float* p, typename GemmVec<W>::V v) {
  std::memcpy(p, &v, sizeof(v));
}

// The one writeback of W floats of C: alpha * acc, or c + alpha * acc.
// `overwrite` is a template parameter so that no instance holds both forms:
// where one function held both, the compiler could share alpha * acc
// between them and then no longer fuse it into c + alpha * acc.
template <int W, bool Overwrite>
inline void GemmWriteBack(float* c, float alpha, typename GemmVec<W>::V acc) {
  if constexpr (Overwrite) {
    GemmStore<W>(c, alpha * acc);
  } else {
    GemmStore<W>(c, GemmLoad<W>(c) + alpha * acc);  // contracts
  }
}

// Rows [0, R) and vectors [0, NV) of an MR x NR register tile (see
// KernelOps::gemm_micro). nr > (NV - 1) * W columns are stored; a last
// vector with fewer than W of them is written back through a W-float
// staging row, with the same expression as a whole vector.
template <int W, int MR, int NR, int R, int NV, bool Overwrite>
void GemmMicroFitted(std::int64_t kc, float alpha, const float* ap,
                     const float* bp, float* c, std::int64_t ldc,
                     std::int64_t nr) {
  using V = typename GemmVec<W>::V;
  V acc[R][NV] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    V b[NV];
    for (int v = 0; v < NV; ++v) b[v] = GemmLoad<W>(bp + v * W);
    bp += NR;
    for (int r = 0; r < R; ++r) {
      V av = V{} + ap[r];  // broadcast
      for (int v = 0; v < NV; ++v) acc[r][v] += av * b[v];  // contracts
    }
    ap += MR;
  }
  const std::int64_t tail = nr - (NV - 1) * W;
  if (tail == W) {
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < NV; ++v) {
        GemmWriteBack<W, Overwrite>(c + r * ldc + v * W, alpha, acc[r][v]);
      }
    }
    return;
  }
  // The stage is filled and emptied in loops of their own, so the
  // writeback loop holds no call and unrolls like the full-tile one.
  float stage[R][W] = {};
  const std::size_t bytes = static_cast<std::size_t>(tail) * sizeof(float);
  float* last = c + (NV - 1) * W;
  if constexpr (!Overwrite) {
    for (int r = 0; r < R; ++r) std::memcpy(stage[r], last + r * ldc, bytes);
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v + 1 < NV; ++v) {
      GemmWriteBack<W, Overwrite>(c + r * ldc + v * W, alpha, acc[r][v]);
    }
    GemmWriteBack<W, Overwrite>(stage[r], alpha, acc[r][NV - 1]);
  }
  for (int r = 0; r < R; ++r) std::memcpy(last + r * ldc, stage[r], bytes);
}

// KernelOps::gemm_micro for an MR x NR tile of W-float vectors: dispatches
// to the instance fitted to (overwrite, mr, ceil(nr / W)).
template <int W, int MR, int NR>
void GemmMicro(std::int64_t kc, float alpha, const float* ap, const float* bp,
               float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
               bool overwrite) {
  constexpr int kNV = NR / W;
  constexpr int kTiles = MR * kNV;
  static_assert(kNV * W == NR);
  using Fitted = void (*)(std::int64_t, float, const float*, const float*,
                          float*, std::int64_t, std::int64_t);
  // Entry (o, r, v) at (o * MR + r) * kNV + v runs R = r + 1, NV = v + 1.
  static constexpr std::array<Fitted, 2 * kTiles> kFitted =
      []<int... I>(std::integer_sequence<int, I...>) {
        return std::array<Fitted, 2 * kTiles>{
            &GemmMicroFitted<W, MR, NR, (I % kTiles) / kNV + 1, I % kNV + 1,
                             (I >= kTiles)>...};
      }(std::make_integer_sequence<int, 2 * kTiles>{});
  std::int64_t nv = (nr + W - 1) / W;
  std::int64_t entry = ((overwrite ? MR : 0) + mr - 1) * kNV + (nv - 1);
  kFitted[static_cast<std::size_t>(entry)](kc, alpha, ap, bp, c, ldc, nr);
}

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_TENSOR_GEMM_MICRO_KERNEL_H_
