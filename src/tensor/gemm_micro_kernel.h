// The GEMM micro-kernel of every tier: one source, a template over an ISA
// policy that each tier's translation unit supplies (tensor/kernel_tier.h).
// The policy gives the vector width kWidth in floats, the register tile
// kMR x kNR, a vector type V, and V's Zero, Load, Store, LoadPartial and
// StorePartial (the first n lanes; a partial load zeroes the rest),
// Broadcast (from memory), Mul and a written-out fused multiply-add
// Fma(a, b, c) = a*b + c rounded once: _mm512_fmadd_ps, _mm256_fmadd_ps, or
// __builtin_fmaf on one float. Nothing relies on compiler contraction,
// which gmreg_tensor turns off (src/tensor/CMakeLists.txt).
//
// Per stored element c[i][j] every tier runs the same operations in the
// same order: acc = 0; acc = fma(a[i][p], b[p][j], acc) for ascending p in
// the KC slab; then c = alpha * acc on the first slab of a beta == 0
// product, c = fma(alpha, acc, c) otherwise. KC is one constant
// (kGemmKC), so the vector width, the register tile and the cache sizes
// only decide which instance computes an element, never its bits.
//
// Every (R, NV) — R rows of 1..MR and NV vectors of 1..NR/W — is its own
// instance, picked by a table on (mr, nv): an edge tile computes only the
// rows and vectors of C that it stores. The accumulators are locals indexed
// by constants once the loops over R and NV unroll, so they stay in
// registers. Each tier's policy type has internal linkage, so every
// instance belongs to one translation unit, and the linker can never hand
// a narrower tier code compiled for a wider ISA.

#ifndef GMREG_TENSOR_GEMM_MICRO_KERNEL_H_
#define GMREG_TENSOR_GEMM_MICRO_KERNEL_H_

#include <array>
#include <cstdint>
#include <utility>

namespace gmreg {
namespace internal {

// Full unrolling of the loops over a tile's rows and vectors, so every
// accumulator index is a constant and the accumulators stay in registers.
#if defined(__clang__)
#define GMREG_UNROLL_TILE _Pragma("unroll")
#else
#define GMREG_UNROLL_TILE _Pragma("GCC unroll 32")
#endif

// Rows [0, R) and vectors [0, NV) of an MR x NR register tile (see
// KernelOps::gemm_micro). nr > (NV - 1) * W columns are stored; a last
// vector with fewer than W of them is read and written through the
// policy's partial load and store, with the same operations as a whole
// vector.
template <typename Isa, int R, int NV, bool Overwrite>
void GemmMicroFitted(std::int64_t kc, float alpha, const float* ap,
                     const float* bp, float* c, std::int64_t ldc,
                     std::int64_t nr) {
  using V = typename Isa::V;
  constexpr int W = Isa::kWidth;
  V acc[R][NV];
  GMREG_UNROLL_TILE
  for (int r = 0; r < R; ++r) {
    GMREG_UNROLL_TILE
    for (int v = 0; v < NV; ++v) acc[r][v] = Isa::Zero();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    V b[NV];
    GMREG_UNROLL_TILE
    for (int v = 0; v < NV; ++v) b[v] = Isa::Load(bp + v * W);
    GMREG_UNROLL_TILE
    for (int r = 0; r < R; ++r) {
      const V a = Isa::Broadcast(ap + r);
      GMREG_UNROLL_TILE
      for (int v = 0; v < NV; ++v) acc[r][v] = Isa::Fma(a, b[v], acc[r][v]);
    }
    bp += Isa::kNR;
    ap += Isa::kMR;
  }
  const V va = Isa::Broadcast(&alpha);
  // Writes the first n <= W floats of alpha * x (+ dst) to dst.
  auto write_back = [&va](float* dst, V x, int n) {
    if (n == W) {
      if constexpr (Overwrite) {
        Isa::Store(dst, Isa::Mul(va, x));
      } else {
        Isa::Store(dst, Isa::Fma(va, x, Isa::Load(dst)));
      }
    } else if constexpr (Overwrite) {
      Isa::StorePartial(dst, Isa::Mul(va, x), n);
    } else {
      Isa::StorePartial(dst, Isa::Fma(va, x, Isa::LoadPartial(dst, n)), n);
    }
  };
  const int tail = static_cast<int>(nr - (NV - 1) * W);
  GMREG_UNROLL_TILE
  for (int r = 0; r < R; ++r) {
    float* row = c + r * ldc;
    GMREG_UNROLL_TILE
    for (int v = 0; v + 1 < NV; ++v) write_back(row + v * W, acc[r][v], W);
    write_back(row + (NV - 1) * W, acc[r][NV - 1], tail);
  }
}

#undef GMREG_UNROLL_TILE

// KernelOps::gemm_micro for the policy's MR x NR tile: dispatches to the
// instance fitted to (overwrite, mr, ceil(nr / W)).
template <typename Isa>
void GemmMicro(std::int64_t kc, float alpha, const float* ap, const float* bp,
               float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
               bool overwrite) {
  constexpr int W = Isa::kWidth;
  constexpr int MR = Isa::kMR;
  constexpr int kNV = Isa::kNR / W;
  constexpr int kTiles = MR * kNV;
  static_assert(kNV * W == Isa::kNR);
  using Fitted = void (*)(std::int64_t, float, const float*, const float*,
                          float*, std::int64_t, std::int64_t);
  // Entry (o, r, v) at (o * MR + r) * kNV + v runs R = r + 1, NV = v + 1.
  static constexpr std::array<Fitted, 2 * kTiles> kFitted =
      []<int... I>(std::integer_sequence<int, I...>) {
        return std::array<Fitted, 2 * kTiles>{
            &GemmMicroFitted<Isa, (I % kTiles) / kNV + 1, I % kNV + 1,
                             (I >= kTiles)>...};
      }(std::make_integer_sequence<int, 2 * kTiles>{});
  std::int64_t nv = (nr + W - 1) / W;
  std::int64_t entry = ((overwrite ? MR : 0) + mr - 1) * kNV + (nv - 1);
  kFitted[static_cast<std::size_t>(entry)](kc, alpha, ap, bp, c, ldc, nr);
}

}  // namespace internal
}  // namespace gmreg

#endif  // GMREG_TENSOR_GEMM_MICRO_KERNEL_H_
