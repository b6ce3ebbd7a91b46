// Conformance, determinism and NaN-semantics tests for the blocked GEMM
// (tensor/gemm_kernel.h) and the elementwise kernel tier, plus the golden
// digest that every tier must reproduce and a short training run compared
// across tiers. The packed-kernel battery runs once per compiled tier
// (scalar / AVX2 / AVX-512) via internal::ForceKernelTierForTesting,
// skipping tiers the running CPU does not support. docs/KERNELS.md states
// the contracts pinned here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/em.h"
#include "core/gm_regularizer.h"
#include "gtest/gtest.h"
#include "models/alex_cifar10.h"
#include "nn/conv.h"
#include "optim/trainer.h"
#include "tensor/gemm_kernel.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gmreg {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

// Restores the global thread budget and kernel tier on scope exit so a
// failing test cannot poison its neighbours.
struct KernelEnvGuard {
  ~KernelEnvGuard() {
    SetDefaultNumThreads(0);
    internal::ClearKernelTierForTesting();
  }
};

const char* TierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::vector<float> RandomVec(Rng* rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->NextUniform(-1.0, 1.0));
  return v;
}

// Double-accumulator reference GEMM, the conformance oracle.
void NaiveGemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float beta, float* c,
               std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      float& out = c[i * ldc + j];
      out = (beta == 0.0f ? 0.0f : beta * out) +
            alpha * static_cast<float>(acc);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-kernel conformance: PackB + GemmPackedBlock directly, so every
// (m, n, k) corner exercises the micro-kernel and the packing layouts
// regardless of the small-GEMM dispatch threshold in Gemm(). Parameterized
// over (trans_a, trans_b, tier); unsupported tiers skip at runtime.
// ---------------------------------------------------------------------------

class PackedKernelTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, KernelTier>> {
 protected:
  void TearDown() override { internal::ClearKernelTierForTesting(); }
};

TEST_P(PackedKernelTest, MatchesNaiveReferenceAtTileCorners) {
  auto [trans_a, trans_b, tier] = GetParam();
  if (!internal::ForceKernelTierForTesting(tier)) {
    GTEST_SKIP() << "tier " << TierName(tier)
                 << " not compiled in or not supported by this CPU";
  }
  ASSERT_EQ(GetKernelOps().tier, tier);
  const GemmGeometry geo = GetGemmGeometry();
  Rng rng(0xC0FFEE);
  // Sides straddling every register-tile boundary across all tiers:
  // 1, 4 +- 1 (scalar MR and NR), 6 +- 1 (AVX2 MR), 14 +- 1 (AVX-512 MR),
  // 16 +- 1 (AVX2 NR), 32 +- 1 (AVX-512 NR), and a prime beyond one panel.
  const std::int64_t sides[] = {1,  3,  4,  5,  6,  7,  13,
                                14, 15, 16, 17, 31, 32, 37};
  const std::pair<float, float> coeffs[] = {
      {1.0f, 0.0f}, {0.5f, 0.5f}, {1.0f, 1.0f}, {0.0f, 1.0f}};
  for (std::int64_t m : sides) {
    for (std::int64_t n : sides) {
      for (std::int64_t k : sides) {
        std::int64_t lda = trans_a ? m : k;
        std::int64_t ldb = trans_b ? k : n;
        std::vector<float> a = RandomVec(&rng, m * k);
        std::vector<float> b = RandomVec(&rng, k * n);
        std::vector<float> c0 = RandomVec(&rng, m * n);
        for (auto [alpha, beta] : coeffs) {
          std::vector<float> got = c0;
          std::vector<float> want = c0;
          std::vector<float> bp(
              static_cast<std::size_t>(PackedBFloats(k, n, geo)));
          PackB(trans_b, b.data(), ldb, k, n, bp.data(), geo);
          GemmPackedBlock(trans_a, 0, m, 0, n, m, n, k, alpha, a.data(), lda,
                          nullptr, bp.data(), beta, got.data(), n, geo);
          NaiveGemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(),
                    ldb, beta, want.data(), n);
          double tol = 1e-5 * static_cast<double>(k) + 1e-6;
          for (std::int64_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(got[static_cast<std::size_t>(i)],
                        want[static_cast<std::size_t>(i)], tol)
                << "m=" << m << " n=" << n << " k=" << k
                << " alpha=" << alpha << " beta=" << beta << " i=" << i;
          }
        }
      }
    }
  }
}

// Tiles that start mid-matrix must read the right packed panels and leave
// the rest of C untouched: an interior (i0, j0) corner on the NR panel
// boundary with ragged i1/j1 edges, per tier.
TEST_P(PackedKernelTest, InteriorTileTouchesOnlyItsBlock) {
  auto [trans_a, trans_b, tier] = GetParam();
  if (!internal::ForceKernelTierForTesting(tier)) {
    GTEST_SKIP() << "tier " << TierName(tier)
                 << " not compiled in or not supported by this CPU";
  }
  const GemmGeometry geo = GetGemmGeometry();
  Rng rng(0xFACADE);
  const std::int64_t m = 2 * geo.mr + 3;
  const std::int64_t n = 2 * geo.nr + 5;
  const std::int64_t k = 19;
  std::int64_t lda = trans_a ? m : k;
  std::int64_t ldb = trans_b ? k : n;
  std::vector<float> a = RandomVec(&rng, m * k);
  std::vector<float> b = RandomVec(&rng, k * n);
  std::vector<float> c0 = RandomVec(&rng, m * n);
  std::vector<float> bp(static_cast<std::size_t>(PackedBFloats(k, n, geo)));
  PackB(trans_b, b.data(), ldb, k, n, bp.data(), geo);
  std::vector<float> want = c0;
  NaiveGemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), lda, b.data(), ldb,
            0.0f, want.data(), n);
  // The block [i0, i1) x [j0, j1): an interior corner with ragged edges.
  const std::int64_t i0 = geo.mr, i1 = m;
  const std::int64_t j0 = geo.nr, j1 = n;
  std::vector<float> got = c0;
  GemmPackedBlock(trans_a, i0, i1, j0, j1, m, n, k, 1.0f, a.data(), lda,
                  nullptr, bp.data(), 0.0f, got.data(), n, geo);
  double tol = 1e-5 * static_cast<double>(k) + 1e-6;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      auto idx = static_cast<std::size_t>(i * n + j);
      bool inside = i >= i0 && i < i1 && j >= j0 && j < j1;
      if (inside) {
        ASSERT_NEAR(got[idx], want[idx], tol) << "i=" << i << " j=" << j;
      } else {
        ASSERT_EQ(got[idx], c0[idx]) << "i=" << i << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposesAllTiers, PackedKernelTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(KernelTier::kScalar, KernelTier::kAvx2,
                                         KernelTier::kAvx512)),
    [](const ::testing::TestParamInfo<PackedKernelTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "Ta" : "Na") +
             (std::get<1>(info.param) ? "Tb" : "Nb") + "_" +
             TierName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Edge tiles at their true size: an element's bits do not depend on whether
// its micro-tile is full. Per tier, every m in 1..2MR+1 and n in 1..NR+1
// (so every fitted (rows, vectors) instance runs) against the same rows and
// columns of a 3MR x 2NR product, where every element sits in a full tile.
// Both sides go through PackB + GemmPackedBlock, so small shapes reach the
// micro-kernel rather than the small-GEMM loop.
// ---------------------------------------------------------------------------

TEST(GemmEdgeTileTest, SameBitsAsFullTiles) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    const GemmGeometry geo = GetGemmGeometry();
    const std::int64_t big_m = 3 * geo.mr;
    const std::int64_t big_n = 2 * geo.nr;
    Rng rng(0xED6E);
    for (std::int64_t k : {std::int64_t{1}, kGemmKC, kGemmKC + 1}) {
      std::vector<float> a = RandomVec(&rng, big_m * k);
      std::vector<float> b = RandomVec(&rng, k * big_n);
      std::vector<float> c0 = RandomVec(&rng, big_m * big_n);
      std::vector<float> big_bp(
          static_cast<std::size_t>(PackedBFloats(k, big_n, geo)));
      PackB(false, b.data(), big_n, k, big_n, big_bp.data(), geo);
      std::vector<float> bp(big_bp.size());
      for (float alpha : {1.0f, 0.3f}) {
        for (float beta : {0.0f, 1.0f, 0.7f}) {
          std::vector<float> full = c0;
          GemmPackedBlock(false, 0, big_m, 0, big_n, big_m, big_n, k, alpha,
                          a.data(), k, nullptr, big_bp.data(), beta,
                          full.data(), big_n, geo);
          for (std::int64_t n = 1; n <= geo.nr + 1; ++n) {
            PackB(false, b.data(), big_n, k, n, bp.data(), geo);
            for (std::int64_t m = 1; m <= 2 * geo.mr + 1; ++m) {
              std::vector<float> got(static_cast<std::size_t>(m * n));
              for (std::int64_t i = 0; i < m; ++i) {
                std::memcpy(got.data() + i * n, c0.data() + i * big_n,
                            static_cast<std::size_t>(n) * sizeof(float));
              }
              GemmPackedBlock(false, 0, m, 0, n, m, n, k, alpha, a.data(), k,
                              nullptr, bp.data(), beta, got.data(), n, geo);
              for (std::int64_t i = 0; i < m; ++i) {
                ASSERT_EQ(0, std::memcmp(got.data() + i * n,
                                         full.data() + i * big_n,
                                         static_cast<std::size_t>(n) *
                                             sizeof(float)))
                    << "tier=" << TierName(tier) << " m=" << m << " n=" << n
                    << " k=" << k << " alpha=" << alpha << " beta=" << beta
                    << " row=" << i;
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packing: PackB, PackA and PackAllA are bit copies into the documented
// layouts. Each is compared by memcmp with an element-by-element reference
// layout, for both transposes, on every tier's geometry, at sizes straddling
// the 4x4 register transpose, MR, NR, KC and 2KC+3, from sources with odd
// leading dimensions that hold NaN payloads, -0.0 and denormals.
// ---------------------------------------------------------------------------

// Random floats with every fifth replaced by a special bit pattern: NaNs
// with set mantissa bits (quiet, negative, signaling), -0.0 and denormals.
std::vector<float> PackSource(Rng* rng, std::int64_t n) {
  const std::uint32_t specials[] = {0x7fc12345u, 0xffc54321u, 0x7f812345u,
                                    0x80000000u, 0x00000001u, 0x807fffffu};
  std::vector<float> v = RandomVec(rng, n);
  for (std::int64_t i = 0; i < n; i += 5) {
    std::uint32_t bits = specials[(i / 5) % 6];
    std::memcpy(&v[static_cast<std::size_t>(i)], &bits, sizeof(bits));
  }
  return v;
}

// An odd leading dimension past `cols`.
std::int64_t OddLd(std::int64_t cols) { return cols + (cols % 2 == 0 ? 1 : 2); }

// Sizes straddling 4, MR, NR, KC and 2KC+3 for one geometry.
std::vector<std::int64_t> PackSides(const GemmGeometry& geo) {
  return {1,          3,          4,          5,
          geo.mr - 1, geo.mr,     geo.mr + 1, geo.nr - 1,
          geo.nr,     geo.nr + 1, kGemmKC - 1, kGemmKC,
          kGemmKC + 1, 2 * kGemmKC + 3};
}

// The packed buffer, prefilled with a pattern no pack writes, so a skipped
// element shows.
std::vector<float> PackTarget(std::int64_t floats) {
  std::vector<float> v(static_cast<std::size_t>(floats));
  const std::uint32_t unwritten = 0x7fbadbadu;
  for (float& x : v) std::memcpy(&x, &unwritten, sizeof(unwritten));
  return v;
}

bool SameFloatBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(GemmPackTest, PackBMatchesReferenceLayout) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    const GemmGeometry geo = GetGemmGeometry();
    const std::int64_t NR = geo.nr;
    Rng rng(0xBAC4);
    for (bool trans_b : {false, true}) {
      for (std::int64_t k : PackSides(geo)) {
        for (std::int64_t n : PackSides(geo)) {
          std::int64_t ldb = OddLd(trans_b ? k : n);
          std::vector<float> b = PackSource(&rng, (trans_b ? n : k) * ldb);
          std::vector<float> got = PackTarget(PackedBFloats(k, n, geo));
          PackB(trans_b, b.data(), ldb, k, n, got.data(), geo);
          std::vector<float> want(got.size());
          std::int64_t n_round = RoundUpN(n, NR);
          for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
            std::int64_t kc = std::min(kGemmKC, k - p0);
            for (std::int64_t j0 = 0; j0 < n; j0 += NR) {
              for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < NR; ++j) {
                  std::int64_t col = j0 + j;
                  std::int64_t row = p0 + p;
                  float v = 0.0f;
                  if (col < n) {
                    v = trans_b ? b[static_cast<std::size_t>(col * ldb + row)]
                                : b[static_cast<std::size_t>(row * ldb + col)];
                  }
                  want[static_cast<std::size_t>(p0 * n_round +
                                                (j0 / NR) * kc * NR + p * NR +
                                                j)] = v;
                }
              }
            }
          }
          ASSERT_TRUE(SameFloatBits(got, want))
              << "tier=" << TierName(tier) << " trans_b=" << trans_b
              << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

// PackAllA (every slab over all m rows) and one PackA block at an interior
// row and slab offset.
TEST(GemmPackTest, PackAMatchesReferenceLayout) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    const GemmGeometry geo = GetGemmGeometry();
    const std::int64_t MR = geo.mr;
    Rng rng(0xA4C4);
    for (bool trans_a : {false, true}) {
      for (std::int64_t m : PackSides(geo)) {
        for (std::int64_t k : PackSides(geo)) {
          std::int64_t lda = OddLd(trans_a ? m : k);
          std::vector<float> a = PackSource(&rng, (trans_a ? k : m) * lda);
          auto op_a = [&](std::int64_t i, std::int64_t p) {
            return trans_a ? a[static_cast<std::size_t>(p * lda + i)]
                           : a[static_cast<std::size_t>(i * lda + p)];
          };
          // Rows [i0, i0 + mc) of slab [p0, p0 + kc), as PackA lays them
          // out at `offset` in `want`.
          auto ref_block = [&](std::int64_t i0, std::int64_t mc,
                               std::int64_t p0, std::int64_t kc,
                               std::int64_t offset, std::vector<float>* want) {
            for (std::int64_t r0 = 0; r0 < mc; r0 += MR) {
              for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t r = 0; r < MR; ++r) {
                  float v = r0 + r < mc ? op_a(i0 + r0 + r, p0 + p) : 0.0f;
                  (*want)[static_cast<std::size_t>(
                      offset + (r0 / MR) * kc * MR + p * MR + r)] = v;
                }
              }
            }
          };
          std::vector<float> got = PackTarget(PackedAFloats(m, k, geo));
          PackAllA(trans_a, a.data(), lda, m, k, got.data(), geo);
          std::vector<float> want(got.size());
          for (std::int64_t p0 = 0; p0 < k; p0 += kGemmKC) {
            ref_block(0, m, p0, std::min(kGemmKC, k - p0),
                      p0 * RoundUpN(m, MR), &want);
          }
          ASSERT_TRUE(SameFloatBits(got, want))
              << "PackAllA tier=" << TierName(tier) << " trans_a=" << trans_a
              << " m=" << m << " k=" << k;
          // A block past the first row panel and the first 3 columns.
          if (m <= MR || k <= 3) continue;
          std::int64_t i0 = MR, mc = m - MR, p0 = 3, kc = k - 3;
          got = PackTarget(RoundUpN(mc, MR) * kc);
          PackA(trans_a, a.data(), lda, i0, mc, p0, kc, got.data(), MR);
          want.assign(got.size(), 0.0f);
          ref_block(i0, mc, p0, kc, 0, &want);
          ASSERT_TRUE(SameFloatBits(got, want))
              << "PackA tier=" << TierName(tier) << " trans_a=" << trans_a
              << " m=" << m << " k=" << k;
        }
      }
    }
  }
}

// GemmPackedA with a PackGemmA pack gives Gemm's bits on every tier, for
// both transposes, at budgets 1/2/4/8, on shapes at, below and above the
// small-GEMM threshold (where it runs on the raw A) and on alex's conv
// group shapes.
TEST(GemmPackedATest, SameBitsAsGemm) {
  KernelEnvGuard guard;
  struct Shape {
    std::int64_t m, n, k;
  };
  const Shape shapes[] = {
      {4, 4, 4},      // 128 flops: small path
      {8, 16, 64},    // exactly kGemmSmallFlops: small path
      {8, 16, 65},    // just above: packed path
      {33, 47, 400},  // several slabs, ragged tiles
      {32, 768, 75},  // conv1 forward
      {800, 64, 32},  // conv2 column gradient
      {64, 64, 800},  // conv3 forward
  };
  static_assert(2 * 8 * 16 * 64 == kGemmSmallFlops);
  Rng rng(0x9ACA);
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    for (const Shape& s : shapes) {
      for (bool trans_a : {false, true}) {
        for (bool trans_b : {false, true}) {
          std::int64_t lda = trans_a ? s.m : s.k;
          std::int64_t ldb = trans_b ? s.k : s.n;
          std::vector<float> a = RandomVec(&rng, s.m * s.k);
          std::vector<float> b = RandomVec(&rng, s.k * s.n);
          std::vector<float> c0 = RandomVec(&rng, s.m * s.n);
          std::vector<float> ap(
              static_cast<std::size_t>(PackedGemmAFloats(s.m, s.k)));
          PackGemmA(trans_a, s.m, s.k, a.data(), lda, ap.data());
          for (auto [alpha, beta] : {std::pair{1.0f, 0.0f},
                                     std::pair{1.0f, 1.0f},
                                     std::pair{0.3f, 0.7f}}) {
            SetDefaultNumThreads(1);
            std::vector<float> want = c0;
            Gemm(trans_a, trans_b, s.m, s.n, s.k, alpha, a.data(), lda,
                 b.data(), ldb, beta, want.data(), s.n);
            for (int budget : {1, 2, 4, 8}) {
              SetDefaultNumThreads(budget);
              std::vector<float> got = c0;
              GemmPackedA(trans_a, trans_b, s.m, s.n, s.k, alpha, a.data(),
                          lda, ap.data(), b.data(), ldb, beta, got.data(),
                          s.n);
              ASSERT_TRUE(SameFloatBits(got, want))
                  << "tier=" << TierName(tier) << " m=" << s.m
                  << " n=" << s.n << " k=" << s.k << " trans_a=" << trans_a
                  << " trans_b=" << trans_b << " alpha=" << alpha
                  << " beta=" << beta << " budget=" << budget;
            }
          }
        }
      }
    }
  }
}

// Public Gemm at shapes large enough for the blocked path (several KC slabs
// and MC blocks), all four transpose variants, per available tier.
TEST(GemmConformanceTest, BlockedPathLargeShapes) {
  KernelEnvGuard guard;
  Rng rng(7);
  const std::int64_t m = 73, n = 65, k = 300;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        std::int64_t lda = trans_a ? m : k;
        std::int64_t ldb = trans_b ? k : n;
        std::vector<float> a = RandomVec(&rng, m * k);
        std::vector<float> b = RandomVec(&rng, k * n);
        std::vector<float> got = RandomVec(&rng, m * n);
        std::vector<float> want = got;
        Gemm(trans_a, trans_b, m, n, k, 0.5f, a.data(), lda, b.data(), ldb,
             0.5f, got.data(), n);
        NaiveGemm(trans_a, trans_b, m, n, k, 0.5f, a.data(), lda, b.data(),
                  ldb, 0.5f, want.data(), n);
        for (std::int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(got[static_cast<std::size_t>(i)],
                      want[static_cast<std::size_t>(i)], 5e-3)
              << "tier=" << TierName(tier) << " trans_a=" << trans_a
              << " trans_b=" << trans_b << " i=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Autotuned blocking geometry: the MC/NC rule must keep its invariants for
// every register tile whatever L2 size the machine reports. KC is not
// autotuned: one constant on every tier and cache.
// ---------------------------------------------------------------------------

// The L2 sizes of the five simulated cache geometries.
constexpr std::int64_t kSimulatedL2Bytes[] = {
    1024 * 1024,       // the fixed fallback
    2 * 1024 * 1024,   // common client parts
    256 * 1024,        // small embedded-ish cache
    4 * 1024,          // absurdly tiny: clamps must hold
    64 * 1024 * 1024,  // absurdly huge: ditto
};

TEST(GemmGeometryTest, AutotuneInvariantsAcrossCacheShapes) {
  const std::pair<std::int64_t, std::int64_t> tiles[] = {{6, 16}, {14, 32}};
  for (auto [mr, nr] : tiles) {
    for (std::int64_t l2 : kSimulatedL2Bytes) {
      GemmGeometry geo = internal::AutotuneGeometry(mr, nr, l2);
      EXPECT_EQ(geo.mr, mr);
      EXPECT_EQ(geo.nr, nr);
      EXPECT_GE(geo.mc, mr) << "mr=" << mr << " l2=" << l2;
      EXPECT_LE(geo.mc, 192);
      EXPECT_EQ(geo.mc % mr, 0);
      EXPECT_GE(geo.nc, nr);
      EXPECT_EQ(geo.nc % nr, 0);
    }
  }
  // KC is one constant, the 192 the AVX-512 tile autotuned to from a
  // 48 KiB L1d: no geometry carries it, so no tier or cache can change it.
  static_assert(kGemmKC == 192);
}

TEST(GemmGeometryTest, ProcessGeometryIsStableAndMatchesActiveTier) {
  GemmGeometry first = GetGemmGeometry();
  GemmGeometry second = GetGemmGeometry();
  EXPECT_EQ(first.mr, GetKernelOps().mr);
  EXPECT_EQ(first.nr, GetKernelOps().nr);
  EXPECT_EQ(first.mc, second.mc);
  EXPECT_EQ(first.nc, second.nc);
  EXPECT_GT(internal::GetL2CacheBytes(), 0);
}

// ---------------------------------------------------------------------------
// Golden output: one digest of GEMM, elementwise and conv bits that every
// tier, thread budget, cache size and compiler must reproduce. Every tier
// runs each element's fused multiply-adds in the same order over the same
// KC slabs (docs/KERNELS.md), and the inputs come from Rng::NextUniform,
// which calls no libm, so nothing machine-specific enters the digest.
// ---------------------------------------------------------------------------

// FNV-1a, 64-bit, over the bytes of float outputs in call order.
class Fnv1a {
 public:
  void Add(const float* p, std::int64_t n) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < static_cast<std::size_t>(n) * sizeof(float);
         ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3u;
    }
  }
  void Add(const std::vector<float>& v) {
    Add(v.data(), static_cast<std::int64_t>(v.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325u;
};

using GemmFn = std::function<void(
    bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
    std::int64_t k, float alpha, const float* a, std::int64_t lda,
    const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc)>;

// The golden sweep. Gemm through `gemm` over all four transposes, alpha 1
// and 0.3, beta 0, 1 and 0.7, and m, n and k across every tier's tile
// edges and the KC edges (both the small and the packed path); Axpy and
// RowSumsAccum across their vector and lane edges; and alex-16's three
// conv layers (5x5, pad 2; 3->32 at 16x16, 32->32 at 8x8, 32->64 at 4x4)
// at batch 5: output, dW, db and the input gradient.
std::uint64_t GoldenDigest(const GemmFn& gemm) {
  Fnv1a digest;
  Rng rng(0x601DE2);
  const std::int64_t sides[] = {1, 5, 6, 7, 14, 15, 33};
  const std::int64_t cols[] = {1, 5, 16, 17, 32, 33, 75};
  const std::int64_t depths[] = {1, kGemmKC - 1, kGemmKC, kGemmKC + 1,
                                 2 * kGemmKC + 1};
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (std::int64_t m : sides) {
        for (std::int64_t n : cols) {
          for (std::int64_t k : depths) {
            std::vector<float> a = RandomVec(&rng, m * k);
            std::vector<float> b = RandomVec(&rng, k * n);
            std::vector<float> c0 = RandomVec(&rng, m * n);
            for (float alpha : {1.0f, 0.3f}) {
              for (float beta : {0.0f, 1.0f, 0.7f}) {
                std::vector<float> c = c0;
                gemm(trans_a, trans_b, m, n, k, alpha, a.data(),
                     trans_a ? m : k, b.data(), trans_b ? k : n, beta,
                     c.data(), n);
                digest.Add(c);
              }
            }
          }
        }
      }
    }
  }
  for (std::int64_t n : {1, 15, 16, 17, 1003}) {
    std::vector<float> x = RandomVec(&rng, n);
    std::vector<float> y = RandomVec(&rng, n);
    GetKernelOps().axpy(n, 0.3f, x.data(), y.data());
    digest.Add(y);
  }
  for (std::int64_t n : {1, 15, 16, 17, 64, 100}) {
    std::vector<float> m = RandomVec(&rng, 3 * n);
    std::vector<float> sums = RandomVec(&rng, 3);
    RowSumsAccum(3, n, m.data(), sums.data());
    digest.Add(sums);
  }
  auto fill = [&rng](Tensor* t) {
    std::vector<float> v = RandomVec(&rng, t->size());
    std::copy(v.begin(), v.end(), t->data());
  };
  struct ConvShape {
    std::int64_t in_c, out_c, hw;
  };
  for (ConvShape s : {ConvShape{3, 32, 16}, ConvShape{32, 32, 8},
                      ConvShape{32, 64, 4}}) {
    // The layer's Gaussian init calls libm; its values are overwritten.
    Rng init_rng(1);
    Conv2d conv("c", s.in_c, s.out_c, /*kernel=*/5, /*stride=*/1,
                /*padding=*/2, InitSpec::Gaussian(0.1), &init_rng);
    std::vector<ParamRef> params;
    conv.CollectParams(&params);
    for (const ParamRef& p : params) fill(p.value);
    Tensor in({5, s.in_c, s.hw, s.hw});
    fill(&in);
    Tensor out;
    conv.Forward(in, &out, /*train=*/true);
    Tensor gout(out.shape());
    fill(&gout);
    Tensor gin;
    conv.Backward(gout, &gin);
    digest.Add(out.data(), out.size());
    for (const ParamRef& p : params) digest.Add(p.grad->data(), p.grad->size());
    digest.Add(gin.data(), gin.size());
  }
  return digest.value();
}

// The digest of GoldenDigest(Gemm): a change to it is a change to the
// kernels' bits on every tier.
constexpr std::uint64_t kGoldenDigest = 0xc193448c4df33d3cu;

TEST(GemmGoldenTest, SameDigestOnEveryTierAndBudget) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    for (int budget : {1, 4}) {
      SetDefaultNumThreads(budget);
      std::uint64_t digest = GoldenDigest(Gemm);
      EXPECT_EQ(digest, kGoldenDigest)
          << "tier=" << TierName(tier) << " budget=" << budget
          << " digest=0x" << std::hex << digest;
    }
  }
}

// The GEMMs on the packed path run as one GemmPackedBlock over all of C
// under each simulated L2 size's geometry: MC and NC move tile
// boundaries, and the digest must not see them. The small path does not
// depend on the geometry and runs through Gemm. This runs on the active
// tier; CI's forced-tier steps run it on the lower ones.
TEST(GemmGoldenTest, SameDigestUnderEveryCacheGeometry) {
  const KernelOps& ops = GetKernelOps();
  for (std::int64_t l2 : kSimulatedL2Bytes) {
    const GemmGeometry geo = internal::AutotuneGeometry(ops.mr, ops.nr, l2);
    std::vector<float> bp;
    auto blocked = [&](bool trans_a, bool trans_b, std::int64_t m,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc) {
      if (2 * m * n * k <= kGemmSmallFlops) {
        Gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
      }
      bp.resize(static_cast<std::size_t>(PackedBFloats(k, n, geo)));
      PackB(trans_b, b, ldb, k, n, bp.data(), geo);
      GemmPackedBlock(trans_a, 0, m, 0, n, m, n, k, alpha, a, lda, nullptr,
                      bp.data(), beta, c, ldc, geo);
    };
    std::uint64_t digest = GoldenDigest(blocked);
    EXPECT_EQ(digest, kGoldenDigest)
        << "tier=" << ops.name << " l2=" << l2 << " mc=" << geo.mc
        << " nc=" << geo.nc << " digest=0x" << std::hex << digest;
  }
}

// ---------------------------------------------------------------------------
// NaN semantics. The old scalar GEMM skipped the inner loop when an A
// element was exactly zero, silently swallowing NaN/Inf from B; the packed
// kernel must propagate. Both dispatch paths (small and blocked) are pinned.
// ---------------------------------------------------------------------------

TEST(GemmNanTest, ZeroTimesNanPropagates) {
  for (std::int64_t side : {8, 64}) {  // 8^3: small path; 64^3: blocked path
    std::vector<float> a(static_cast<std::size_t>(side * side), 0.0f);
    std::vector<float> b(static_cast<std::size_t>(side * side), 1.0f);
    b[3] = kNan;
    std::vector<float> c(static_cast<std::size_t>(side * side), 0.0f);
    Gemm(false, false, side, side, side, 1.0f, a.data(), side, b.data(), side,
         1.0f, c.data(), side);
    // Column 3 of every C row saw 0 * NaN.
    EXPECT_TRUE(std::isnan(c[3])) << "side=" << side;
    EXPECT_TRUE(std::isnan(c[static_cast<std::size_t>(side + 3)]))
        << "side=" << side;
  }
}

TEST(GemmNanTest, BetaZeroOverwritesNanC) {
  for (std::int64_t side : {8, 64}) {
    Rng rng(3);
    std::vector<float> a = RandomVec(&rng, side * side);
    std::vector<float> b = RandomVec(&rng, side * side);
    std::vector<float> c(static_cast<std::size_t>(side * side), kNan);
    Gemm(false, false, side, side, side, 1.0f, a.data(), side, b.data(), side,
         0.0f, c.data(), side);
    for (float v : c) ASSERT_FALSE(std::isnan(v)) << "side=" << side;
  }
}

TEST(GemmNanTest, AlphaZeroNeverReadsAOrB) {
  const std::int64_t side = 16;
  std::vector<float> a(static_cast<std::size_t>(side * side), kNan);
  std::vector<float> b(static_cast<std::size_t>(side * side), kNan);
  std::vector<float> c(static_cast<std::size_t>(side * side), 2.0f);
  Gemm(false, false, side, side, side, 0.0f, a.data(), side, b.data(), side,
       1.0f, c.data(), side);
  for (float v : c) ASSERT_EQ(v, 2.0f);
  Gemm(false, false, side, side, side, 0.0f, a.data(), side, b.data(), side,
       0.0f, c.data(), side);
  for (float v : c) ASSERT_EQ(v, 0.0f);
}

// ---------------------------------------------------------------------------
// Determinism: bitwise-identical C at every thread budget and on every tier.
// ---------------------------------------------------------------------------

std::vector<float> RunGemmAtBudget(int budget) {
  SetDefaultNumThreads(budget);
  Rng rng(0xDECAF);
  const std::int64_t m = 600, n = 160, k = 96;  // several 2D tiles in flight
  std::vector<float> a = RandomVec(&rng, m * k);
  std::vector<float> b = RandomVec(&rng, k * n);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.25f);
  Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.5f, c.data(),
       n);
  return c;
}

TEST(GemmDeterminismTest, BitIdenticalAcrossThreadBudgetsEveryTier) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    std::vector<float> serial = RunGemmAtBudget(1);
    for (int budget : {2, 4, 8}) {
      std::vector<float> parallel = RunGemmAtBudget(budget);
      ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                               serial.size() * sizeof(float)))
          << "tier=" << TierName(tier) << " budget=" << budget;
    }
    SetDefaultNumThreads(0);
  }
}

TEST(GemmDeterminismTest, SimdMatchesScalarBitwise) {
  KernelEnvGuard guard;
  Rng rng(0xBEEF);
  const std::int64_t m = 72, n = 48, k = 256;
  std::vector<float> a = RandomVec(&rng, m * k);
  std::vector<float> b = RandomVec(&rng, k * n);
  std::vector<float> c0 = RandomVec(&rng, m * n);

  ASSERT_TRUE(internal::ForceKernelTierForTesting(KernelTier::kScalar));
  EXPECT_EQ(GetKernelOps().tier, KernelTier::kScalar);
  std::vector<float> scalar = c0;
  Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
       scalar.data(), n);

  for (KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    EXPECT_EQ(GetKernelOps().tier, tier);
    std::vector<float> simd = c0;
    Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f,
         simd.data(), n);
    // Every tier runs each element's fused multiply-adds in the same
    // order over the same KC slabs (docs/KERNELS.md).
    EXPECT_TRUE(SameFloatBits(scalar, simd)) << "tier=" << TierName(tier);
  }
}

// ---------------------------------------------------------------------------
// Elementwise kernel tier: each op against its naive definition, active
// tier vs forced-scalar tier (exact for selection/add ops).
// ---------------------------------------------------------------------------

TEST(ElementwiseKernelTest, BroadcastAndSumOpsMatchNaive) {
  Rng rng(21);
  const std::int64_t rows = 13, cols = 37;
  std::vector<float> m = RandomVec(&rng, rows * cols);
  std::vector<float> row = RandomVec(&rng, cols);
  std::vector<float> col = RandomVec(&rng, rows);

  std::vector<float> got = m;
  AddRowBroadcast(rows, cols, row.data(), got.data());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      auto idx = static_cast<std::size_t>(i * cols + j);
      ASSERT_EQ(got[idx], m[idx] + row[static_cast<std::size_t>(j)]);
    }
  }

  got = m;
  AddColBroadcast(rows, cols, col.data(), got.data());
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      auto idx = static_cast<std::size_t>(i * cols + j);
      ASSERT_EQ(got[idx], m[idx] + col[static_cast<std::size_t>(i)]);
    }
  }

  std::vector<float> csums(static_cast<std::size_t>(cols), 1.0f);
  ColSumsAccum(rows, cols, m.data(), csums.data());
  for (std::int64_t j = 0; j < cols; ++j) {
    double want = 1.0;
    for (std::int64_t i = 0; i < rows; ++i) {
      want += m[static_cast<std::size_t>(i * cols + j)];
    }
    ASSERT_NEAR(csums[static_cast<std::size_t>(j)], want, 1e-5);
  }

  std::vector<float> rsums(static_cast<std::size_t>(rows), 1.0f);
  RowSumsAccum(rows, cols, m.data(), rsums.data());
  for (std::int64_t i = 0; i < rows; ++i) {
    double want = 1.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      want += m[static_cast<std::size_t>(i * cols + j)];
    }
    ASSERT_NEAR(rsums[static_cast<std::size_t>(i)], want, 1e-5);
  }
}

TEST(ElementwiseKernelTest, ReluOpsExactAcrossTiers) {
  KernelEnvGuard guard;
  Rng rng(5);
  const std::int64_t n = 1003;  // odd length: exercises vector tails
  std::vector<float> in = RandomVec(&rng, n);
  in[0] = 0.0f;  // boundary: not positive, masked off
  std::vector<float> gout = RandomVec(&rng, n);

  auto run = [&](KernelTier tier) {
    EXPECT_TRUE(internal::ForceKernelTierForTesting(tier));
    const KernelOps& ops = GetKernelOps();
    std::vector<float> fwd(static_cast<std::size_t>(n));
    std::vector<unsigned char> mask(static_cast<std::size_t>(n));
    std::vector<float> bwd(static_cast<std::size_t>(n));
    ops.relu_forward(n, in.data(), fwd.data(), mask.data());
    ops.relu_backward(n, gout.data(), mask.data(), bwd.data());
    return std::make_pair(fwd, bwd);
  };
  auto [fwd_scalar, bwd_scalar] = run(KernelTier::kScalar);
  internal::ClearKernelTierForTesting();
  auto [fwd_active, bwd_active] = run(GetKernelOps().tier);

  for (std::int64_t i = 0; i < n; ++i) {
    auto idx = static_cast<std::size_t>(i);
    float want_fwd = in[idx] > 0.0f ? in[idx] : 0.0f;
    float want_bwd = in[idx] > 0.0f ? gout[idx] : 0.0f;
    ASSERT_EQ(fwd_scalar[idx], want_fwd);
    ASSERT_EQ(bwd_scalar[idx], want_bwd);
    // Selection ops have no reassociation: tiers agree exactly.
    ASSERT_EQ(fwd_active[idx], want_fwd);
    ASSERT_EQ(bwd_active[idx], want_bwd);
  }
}

TEST(ElementwiseKernelTest, AxpyMatchesNaive) {
  Rng rng(9);
  const std::int64_t n = 517;
  std::vector<float> xs = RandomVec(&rng, n);
  Tensor x({n});
  Tensor y({n});
  std::copy(xs.begin(), xs.end(), x.data());
  std::vector<float> ys = RandomVec(&rng, n);
  std::copy(ys.begin(), ys.end(), y.data());
  Axpy(0.5f, x, &y);
  for (std::int64_t i = 0; i < n; ++i) {
    auto idx = static_cast<std::size_t>(i);
    ASSERT_EQ(y[i], ys[idx] + 0.5f * xs[idx]);
  }
}

// ---------------------------------------------------------------------------
// Conv2d: the batch runs in sample groups fixed by the layer shape and the
// batch size, one GEMM per group and pass, with dW accumulating group after
// group — output and gradients are bitwise identical at every thread budget.
// ---------------------------------------------------------------------------

struct ConvPass {
  std::vector<float> out;
  std::vector<float> weight_grad;
  std::vector<float> bias_grad;
  std::vector<float> grad_in;
};

// Batch 17 splits every layer into several groups: the 3->5 layer into
// groups of 3-4 samples, the wider 16->32 one, with larger GEMMs, into one
// group per sample. The 4->6 layer's 6-float output rows end in an
// overlapping 4-float move.
ConvPass RunConvAtBudget(int budget, int in_c, int out_c, std::int64_t hw) {
  SetDefaultNumThreads(budget);
  Rng rng(0xFEED);
  Conv2d conv("c", in_c, out_c, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
              InitSpec::Gaussian(0.1), &rng);
  Tensor in({17, in_c, hw, hw});
  FillGaussian(&rng, 0.0, 1.0, &in);
  Tensor out;
  conv.Forward(in, &out, /*train=*/true);
  Tensor gout(out.shape());
  FillGaussian(&rng, 0.0, 1.0, &gout);
  Tensor gin;
  conv.Backward(gout, &gin);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  ConvPass pass;
  pass.out.assign(out.data(), out.data() + out.size());
  for (const auto& p : params) {
    const Tensor& g = *p.grad;
    std::vector<float>& dst =
        p.name == "c/weight" ? pass.weight_grad : pass.bias_grad;
    dst.assign(g.data(), g.data() + g.size());
  }
  pass.grad_in.assign(gin.data(), gin.data() + gin.size());
  return pass;
}

TEST(ConvBackwardDeterminismTest, BitIdenticalAcrossThreadBudgets) {
  KernelEnvGuard guard;
  struct Shape {
    int in_c, out_c;
    std::int64_t hw;
  };
  for (const Shape& layer :
       {Shape{3, 5, 24}, Shape{16, 32, 16}, Shape{4, 6, 6}}) {
    SCOPED_TRACE("in_c=" + std::to_string(layer.in_c));
    ConvPass serial = RunConvAtBudget(1, layer.in_c, layer.out_c, layer.hw);
    ASSERT_FALSE(serial.weight_grad.empty());
    for (int budget : {2, 4, 8}) {
      ConvPass parallel =
          RunConvAtBudget(budget, layer.in_c, layer.out_c, layer.hw);
      auto same = [](const std::vector<float>& a,
                     const std::vector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
      };
      EXPECT_TRUE(same(serial.out, parallel.out)) << "out budget=" << budget;
      EXPECT_TRUE(same(serial.weight_grad, parallel.weight_grad))
          << "weight_grad budget=" << budget;
      EXPECT_TRUE(same(serial.bias_grad, parallel.bias_grad))
          << "bias_grad budget=" << budget;
      EXPECT_TRUE(same(serial.grad_in, parallel.grad_in))
          << "grad_in budget=" << budget;
    }
  }
}

// ---------------------------------------------------------------------------
// E-step kernel (KernelOps::estep_f32 / estep_f64): the same bits on every
// tier, NaN for non-finite weights, and within a few ulps of the libm-based
// GaussianMixture::Responsibilities().
// ---------------------------------------------------------------------------

// Zero-mean mixtures with K components: precisions spread over [1, 1e10]
// (the heaviest ones drive the exp underflow path) and uniform pi.
GaussianMixture SpreadMixture(int kk) {
  std::vector<double> pi(static_cast<std::size_t>(kk), 1.0 / kk);
  std::vector<double> lambda;
  for (int k = 0; k < kk; ++k) {
    lambda.push_back(kk == 1 ? 10.0 : std::pow(10.0, 10.0 * k / (kk - 1)));
  }
  return GaussianMixture(pi, lambda);
}

// Gaussian weights at two scales, with every 7th replaced by one of the
// edge values: zeros, +-1e-30, +-the type's smallest denormal, +-1e3.
template <typename T>
std::vector<T> EStepWeights(std::int64_t n) {
  const T denorm = std::numeric_limits<T>::denorm_min();
  const T edges[] = {T(0),  T(-0.0), T(1e-30), T(-1e-30),
                     denorm, -denorm, T(1e3),  T(-1e3)};
  Rng rng(0xE57E9);
  std::vector<T> w(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    double v = rng.NextBernoulli(0.8) ? rng.NextGaussian(0.0, 0.05)
                                      : rng.NextGaussian(0.0, 0.8);
    w[static_cast<std::size_t>(i)] =
        i % 7 == 0 ? edges[(i / 7) % 8] : static_cast<T>(v);
  }
  return w;
}

template <typename T>
struct EStepOut {
  std::vector<T> greg;
  GmSuffStats stats;
};

template <typename T>
EStepOut<T> RunEStep(const GaussianMixture& gm, const std::vector<T>& w,
                     int budget) {
  EStepOut<T> out;
  out.greg.assign(w.size(), T(-1));
  out.stats.Reset(gm.num_components());
  EStep(gm, w.data(), static_cast<std::int64_t>(w.size()), out.greg.data(),
        &out.stats, budget);
  return out;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Both overloads, on every compiled and supported tier, against the scalar
// tier by memcmp: greg and both suffstats. The n cover empty, sub-block,
// block-edge, chunk-edge (kChunkGrain) and alex-16 sizes.
template <typename T>
void ExpectSameBitsOnEveryTier(const GaussianMixture& gm) {
  const int kk = gm.num_components();
  for (std::int64_t n : {0, 1, 7, 8, 9, 4095, 4096, 4097, 81760}) {
    SCOPED_TRACE("K=" + std::to_string(kk) + " n=" + std::to_string(n) +
                 " bytes=" + std::to_string(sizeof(T)));
    std::vector<T> w = EStepWeights<T>(n);
    ASSERT_TRUE(internal::ForceKernelTierForTesting(KernelTier::kScalar));
    EStepOut<T> want = RunEStep(gm, w, 1);
    for (KernelTier tier :
         {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
      if (!internal::ForceKernelTierForTesting(tier)) continue;
      for (int budget : {1, 4}) {
        EStepOut<T> got = RunEStep(gm, w, budget);
        EXPECT_TRUE(SameBits(want.greg, got.greg))
            << "greg tier=" << TierName(tier) << " budget=" << budget;
        EXPECT_TRUE(SameBits(want.stats.resp_sum, got.stats.resp_sum))
            << "resp_sum tier=" << TierName(tier) << " budget=" << budget;
        EXPECT_TRUE(SameBits(want.stats.resp_w2_sum, got.stats.resp_w2_sum))
            << "resp_w2_sum tier=" << TierName(tier)
            << " budget=" << budget;
      }
    }
  }
}

TEST(EStepKernelTest, SameBitsOnEveryTier) {
  KernelEnvGuard guard;
  std::vector<GaussianMixture> mixtures;
  for (int kk : {1, 2, 3, 4, 5, 8, 64}) mixtures.push_back(SpreadMixture(kk));
  // pi = 0 gives a component a log coefficient of about -1e300.
  mixtures.push_back(
      GaussianMixture::FromSerialized({0.5, 0.0, 0.5}, {1.0, 30.0, 900.0}));
  for (const GaussianMixture& gm : mixtures) {
    ExpectSameBitsOnEveryTier<float>(gm);
    ExpectSameBitsOnEveryTier<double>(gm);
  }
  EStepOut<double> dead =
      RunEStep(mixtures.back(), EStepWeights<double>(4097), 1);
  EXPECT_EQ(dead.stats.resp_sum[1], 0.0);
}

template <typename T>
void ExpectNanGregForNonFinite(KernelTier tier) {
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  std::vector<T> w = {T(0.5), nan, inf, T(-0.25), -inf, T(1.5), T(0), T(-2)};
  w.push_back(nan);  // a tail-block lane
  GaussianMixture gm = SpreadMixture(4);
  EStepOut<T> out = RunEStep(gm, w, 1);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (std::isfinite(w[i])) {
      EXPECT_TRUE(std::isfinite(out.greg[i]))
          << "tier=" << TierName(tier) << " i=" << i;
    } else {
      EXPECT_TRUE(std::isnan(out.greg[i]))
          << "tier=" << TierName(tier) << " i=" << i << " w=" << w[i];
    }
  }
}

TEST(EStepKernelTest, NonFiniteWeightsGiveNanGregOnEveryTier) {
  KernelEnvGuard guard;
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    ExpectNanGregForNonFinite<float>(tier);
    ExpectNanGregForNonFinite<double>(tier);
  }
}

// Distance in units in the last place between two finite values of one
// sign (0 when equal).
template <typename T>
std::int64_t UlpDistance(T a, T b) {
  using Bits = std::conditional_t<sizeof(T) == 8, std::int64_t, std::int32_t>;
  Bits ia = 0;
  Bits ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  std::int64_t d = static_cast<std::int64_t>(ia) - ib;
  return d < 0 ? -d : d;
}

// The kernel against the libm reference, GaussianMixture::Responsibilities():
// the kernel's exp is its own (within 1 ulp of libm's) and it multiplies by
// one reciprocal of the softmax denominator, so greg agrees to a few double
// ulps and the suffstats, summed in lanes and chunks, to 1e-14 relative.
TEST(EStepFixedKTest, MatchesResponsibilitiesBitwise) {
  const std::int64_t n = 4097;
  std::vector<double> w = EStepWeights<double>(n);
  std::vector<float> wf = EStepWeights<float>(n);
  for (int kk : {1, 2, 3, 4, 5, 8, 64}) {
    SCOPED_TRACE("K=" + std::to_string(kk));
    GaussianMixture gm = SpreadMixture(kk);
    const std::vector<double>& lambda = gm.lambda();
    EStepOut<double> got = RunEStep(gm, w, 1);
    EStepOut<float> got_f = RunEStep(gm, wf, 1);
    double r[kMaxGmComponents];
    std::vector<long double> want_r(static_cast<std::size_t>(kk), 0.0L);
    std::vector<long double> want_rw2(static_cast<std::size_t>(kk), 0.0L);
    for (std::int64_t m = 0; m < n; ++m) {
      auto ms = static_cast<std::size_t>(m);
      double x = w[ms];
      gm.Responsibilities(x, r);
      double acc = 0.0;
      for (int k = 0; k < kk; ++k) {
        auto ks = static_cast<std::size_t>(k);
        acc += r[k] * lambda[ks];
        want_r[ks] += r[k];
        want_rw2[ks] += static_cast<long double>(r[k]) * x * x;
      }
      ASSERT_LE(UlpDistance(got.greg[ms], acc * x), 8)
          << "m=" << m << " x=" << x << " got=" << got.greg[ms]
          << " want=" << acc * x;
      double xf = static_cast<double>(wf[ms]);
      gm.Responsibilities(xf, r);
      acc = 0.0;
      for (int k = 0; k < kk; ++k) {
        acc += r[k] * lambda[static_cast<std::size_t>(k)];
      }
      ASSERT_LE(UlpDistance(got_f.greg[ms], static_cast<float>(acc * xf)), 1)
          << "float m=" << m;
    }
    for (int k = 0; k < kk; ++k) {
      auto ks = static_cast<std::size_t>(k);
      double tol_r = 1e-14 * static_cast<double>(want_r[ks]) + 1e-300;
      double tol_rw2 = 1e-14 * static_cast<double>(want_rw2[ks]) + 1e-300;
      EXPECT_NEAR(got.stats.resp_sum[ks], static_cast<double>(want_r[ks]),
                  tol_r)
          << "k=" << k;
      EXPECT_NEAR(got.stats.resp_w2_sum[ks],
                  static_cast<double>(want_rw2[ks]), tol_rw2)
          << "k=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Training: a few SGD steps of a small alex under a lazy GM prior give the
// same weights, greg and learned mixture on every tier and at budgets 1
// and 4. Every kernel a step reaches (GEMM, the elementwise ops and the
// E-step) gives the same bits on every tier.
// ---------------------------------------------------------------------------

struct TrainedBits {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> gregs;
  std::vector<std::vector<double>> pis;
  std::vector<std::vector<double>> lambdas;
};

// Six steps of alex-16 on one batch of 4, with a GM prior on every weight
// that refreshes greg every second step and the mixture every third.
TrainedBits TrainAlexWithLazyGm() {
  Rng rng(0xA1E5);
  AlexCifar10Config config;
  std::unique_ptr<Sequential> net = BuildAlexCifar10(config, &rng);
  TrainOptions opts;
  opts.batch_size = 4;
  opts.num_train_samples = 100;
  Trainer trainer(net.get(), opts);
  std::vector<const GmRegularizer*> priors;
  trainer.AttachToAllWeights(
      [&](const ParamRef& p) -> std::unique_ptr<Regularizer> {
        GmOptions gm;
        gm.min_precision = MinPrecisionFromInitStdDev(p.init_stddev);
        gm.lazy.warmup_epochs = 0;
        gm.lazy.greg_interval = 2;
        gm.lazy.gm_interval = 3;
        auto prior =
            std::make_unique<GmRegularizer>(p.name, p.value->size(), gm);
        priors.push_back(prior.get());
        return prior;
      });
  Tensor input({4, 3, config.input_hw, config.input_hw});
  std::vector<float> pixels = RandomVec(&rng, input.size());
  std::copy(pixels.begin(), pixels.end(), input.data());
  const std::vector<int> labels = {3, 1, 4, 1};
  for (int step = 0; step < 6; ++step) trainer.Step(input, labels);
  TrainedBits bits;
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  for (const ParamRef& p : params) {
    const Tensor& value = *p.value;
    bits.params.emplace_back(value.data(), value.data() + value.size());
  }
  for (const GmRegularizer* prior : priors) {
    const Tensor& greg = prior->greg();
    bits.gregs.emplace_back(greg.data(), greg.data() + greg.size());
    bits.pis.push_back(prior->mixture().pi());
    bits.lambdas.push_back(prior->mixture().lambda());
  }
  return bits;
}

TEST(TrainingDeterminismTest, AlexLazyGmSameBitsOnEveryTier) {
  KernelEnvGuard guard;
  ASSERT_TRUE(internal::ForceKernelTierForTesting(KernelTier::kScalar));
  SetDefaultNumThreads(1);
  const TrainedBits want = TrainAlexWithLazyGm();
  ASSERT_EQ(want.gregs.size(), 4u);  // conv1..conv3 and dense
  for (KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!internal::ForceKernelTierForTesting(tier)) continue;
    for (int budget : {1, 4}) {
      SCOPED_TRACE(std::string("tier=") + TierName(tier) +
                   " budget=" + std::to_string(budget));
      SetDefaultNumThreads(budget);
      const TrainedBits got = TrainAlexWithLazyGm();
      ASSERT_EQ(got.params.size(), want.params.size());
      for (std::size_t i = 0; i < want.params.size(); ++i) {
        EXPECT_TRUE(SameBits(want.params[i], got.params[i])) << "param " << i;
      }
      ASSERT_EQ(got.gregs.size(), want.gregs.size());
      for (std::size_t i = 0; i < want.gregs.size(); ++i) {
        EXPECT_TRUE(SameBits(want.gregs[i], got.gregs[i])) << "greg " << i;
        EXPECT_TRUE(SameBits(want.pis[i], got.pis[i])) << "pi " << i;
        EXPECT_TRUE(SameBits(want.lambdas[i], got.lambdas[i]))
            << "lambda " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gmreg
