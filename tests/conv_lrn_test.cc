// Reference checks for the two layers that carry most of an Alex-CIFAR-10
// training step. Conv2d runs each sample group as one im2col panel and one
// GEMM per pass; its output and all three gradients are compared with a
// direct nested-loop convolution at batch 17, which splits every shape
// below into several groups, most of them with a short last one. im2col
// and col2im copy and add output rows through a zero-padded plane, as runs
// of 4-float moves at stride 1; the edge shapes reach rows shorter than one
// move, rows whose last move overlaps, a stride larger than the padding
// and a non-square plane. Lrn takes
// window sums along contiguous rows and calls no pow in Backward; it is
// checked against finite differences and against the per-element pow
// formula it replaced.
// Both layers must be bitwise identical at thread budgets 1, 2, 4 and 8.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/activations.h"
#include "nn/conv.h"
#include "testutil/gmreg_testutil.h"
#include "util/rng.h"

namespace gmreg {
namespace {

using ::gmreg::testing::CheckLayerGradients;
using ::gmreg::testing::ExpectTensorBitwiseEqual;
using ::gmreg::testing::RandomTensor;
using ::gmreg::testing::ScopedThreadBudget;

constexpr std::int64_t kBatch = 17;

struct ConvShape {
  int in_c, out_c, kernel, stride, padding, h, w;
};

// Alex-CIFAR-10's convs at its 16x16 input (models/alex_cifar10.cc).
constexpr ConvShape kAlexConv1{3, 32, 5, 1, 2, 16, 16};
constexpr ConvShape kAlexConv2{32, 32, 5, 1, 2, 8, 8};
constexpr ConvShape kAlexConv3{32, 64, 5, 1, 2, 4, 4};

// Double-precision results of the direct convolution, each with the sum of
// the absolute values of its terms: float accumulation of those terms is
// off by at most a small multiple of that sum.
struct Reference {
  std::vector<double> value;
  std::vector<double> abs_sum;

  explicit Reference(std::int64_t n)
      : value(static_cast<std::size_t>(n), 0.0),
        abs_sum(static_cast<std::size_t>(n), 0.0) {}

  void Add(std::int64_t i, double term) {
    value[static_cast<std::size_t>(i)] += term;
    abs_sum[static_cast<std::size_t>(i)] += std::fabs(term);
  }
};

void ExpectMatches(const Tensor& got, const Reference& want,
                   const std::string& what) {
  ASSERT_EQ(static_cast<std::size_t>(got.size()), want.value.size()) << what;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    double tol = 1e-5 * want.abs_sum[idx] + 1e-7;
    ASSERT_NEAR(got[i], want.value[idx], tol) << what << " element " << i;
  }
}

// Forward and backward of `shape` at kBatch against the nested-loop
// definition of convolution.
void CheckAgainstDirectConvolution(const ConvShape& s, std::uint64_t seed) {
  Rng rng(seed);
  Conv2d conv("conv", s.in_c, s.out_c, s.kernel, s.stride, s.padding,
              InitSpec::Gaussian(0.2), &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  const Tensor& weight = *params[0].value;
  Tensor& bias = *params[1].value;
  bias = RandomTensor(bias.shape(), &rng);
  for (const ParamRef& p : params) p.grad->SetZero();

  Tensor in = RandomTensor({kBatch, s.in_c, s.h, s.w}, &rng);
  Tensor out;
  conv.Forward(in, &out, /*train=*/true);
  std::int64_t oh = conv.OutSize(s.h);
  std::int64_t ow = conv.OutSize(s.w);
  ASSERT_EQ(out.shape(), (std::vector<std::int64_t>{kBatch, s.out_c, oh, ow}));
  Tensor gout = RandomTensor(out.shape(), &rng);
  Tensor gin;
  conv.Backward(gout, &gin);

  std::int64_t k = s.kernel;
  Reference want_out(out.size());
  Reference want_wgrad(weight.size());
  Reference want_bgrad(bias.size());
  Reference want_gin(in.size());
  for (std::int64_t i = 0; i < kBatch; ++i) {
    for (std::int64_t co = 0; co < s.out_c; ++co) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          std::int64_t o = ((i * s.out_c + co) * oh + y) * ow + x;
          double g = gout[o];
          want_out.Add(o, bias[co]);
          want_bgrad.Add(co, g);
          for (std::int64_t ci = 0; ci < s.in_c; ++ci) {
            for (std::int64_t kh = 0; kh < k; ++kh) {
              std::int64_t ih = y * s.stride - s.padding + kh;
              if (ih < 0 || ih >= s.h) continue;
              for (std::int64_t kw = 0; kw < k; ++kw) {
                std::int64_t iw = x * s.stride - s.padding + kw;
                if (iw < 0 || iw >= s.w) continue;
                std::int64_t wi = co * s.in_c * k * k + (ci * k + kh) * k + kw;
                std::int64_t xi = ((i * s.in_c + ci) * s.h + ih) * s.w + iw;
                want_out.Add(o, static_cast<double>(weight[wi]) * in[xi]);
                want_wgrad.Add(wi, g * in[xi]);
                want_gin.Add(xi, g * weight[wi]);
              }
            }
          }
        }
      }
    }
  }
  ExpectMatches(out, want_out, "output");
  ExpectMatches(*params[0].grad, want_wgrad, "weight gradient");
  ExpectMatches(*params[1].grad, want_bgrad, "bias gradient");
  ExpectMatches(gin, want_gin, "input gradient");
}

TEST(ConvReferenceTest, AlexConv1MatchesDirectConvolution) {
  CheckAgainstDirectConvolution(kAlexConv1, 1);
}

TEST(ConvReferenceTest, AlexConv2MatchesDirectConvolution) {
  CheckAgainstDirectConvolution(kAlexConv2, 2);
}

TEST(ConvReferenceTest, AlexConv3MatchesDirectConvolution) {
  CheckAgainstDirectConvolution(kAlexConv3, 3);
}

TEST(ConvReferenceTest, Stride2MatchesDirectConvolution) {
  // Odd extent, so the last window of each row hangs over the padding.
  CheckAgainstDirectConvolution({8, 8, 3, 2, 1, 31, 31}, 4);
}

TEST(ConvReferenceTest, PointwiseMatchesDirectConvolution) {
  // 1x1 with more output than input channels: the [Cout, g*cols] rows, not
  // the panel, bound the group.
  CheckAgainstDirectConvolution({16, 24, 1, 1, 0, 16, 16}, 5);
}

TEST(ConvReferenceTest, OutWidth2MatchesDirectConvolution) {
  // Output rows of 2 floats, shorter than one 4-float move; the input rows
  // copied into the plane are as short.
  CheckAgainstDirectConvolution({4, 5, 3, 1, 1, 5, 2}, 7);
}

TEST(ConvReferenceTest, OutWidth3MatchesDirectConvolution) {
  CheckAgainstDirectConvolution({3, 4, 3, 1, 0, 5, 5}, 8);
}

TEST(ConvReferenceTest, OutWidth6MatchesDirectConvolution) {
  // The second 4-float move of each row overlaps the first by two floats.
  CheckAgainstDirectConvolution({2, 6, 3, 1, 1, 6, 6}, 9);
}

TEST(ConvReferenceTest, OutWidth7MatchesDirectConvolution) {
  CheckAgainstDirectConvolution({3, 5, 5, 1, 2, 7, 7}, 10);
}

TEST(ConvReferenceTest, Stride3Kernel4NoPaddingMatchesDirectConvolution) {
  // Windows skip input columns, and the last column of each row is read
  // by no window.
  CheckAgainstDirectConvolution({4, 6, 4, 3, 0, 13, 13}, 11);
}

TEST(ConvReferenceTest, NonSquareInputMatchesDirectConvolution) {
  // 7x10: swapping the plane's row and column extents reads the wrong
  // pixels.
  CheckAgainstDirectConvolution({3, 4, 3, 1, 1, 7, 10}, 12);
}

TEST(ConvReferenceTest, GradientAccumulatesAcrossBackwardCalls) {
  // Backward adds into the parameter gradients (the trainer zeroes them
  // between steps), so two calls on one batch give about twice one call's.
  Rng rng(6);
  Conv2d conv("conv", 4, 6, 3, 1, 1, InitSpec::Gaussian(0.2), &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  Tensor in = RandomTensor({kBatch, 4, 12, 12}, &rng);
  Tensor out;
  conv.Forward(in, &out, /*train=*/true);
  Tensor gout = RandomTensor(out.shape(), &rng);
  Tensor gin;
  for (const ParamRef& p : params) p.grad->SetZero();
  conv.Backward(gout, &gin);
  std::vector<Tensor> once;
  for (const ParamRef& p : params) once.push_back(*p.grad);
  conv.Backward(gout, &gin);
  for (std::size_t j = 0; j < params.size(); ++j) {
    for (std::int64_t i = 0; i < once[j].size(); ++i) {
      float twice = once[j][i] + once[j][i];
      ASSERT_NEAR((*params[j].grad)[i], twice, 1e-5 * std::fabs(twice) + 1e-6)
          << params[j].name << " element " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Lrn.

TEST(LrnGradTest, LocalSize5) {
  Rng rng(21);
  Lrn lrn("l", 5, 0.3, 0.75, 1.0);
  Tensor in = RandomTensor({2, 7, 3, 3}, &rng);
  CheckLayerGradients(&lrn, in, &rng);
}

TEST(LrnGradTest, OneChannelNarrowerThanWindow) {
  for (int local_size : {3, 5}) {
    SCOPED_TRACE("local_size=" + std::to_string(local_size));
    Rng rng(22);
    Lrn lrn("l", local_size, 0.3, 0.75, 1.0);
    Tensor in = RandomTensor({2, 1, 4, 4}, &rng);
    CheckLayerGradients(&lrn, in, &rng);
  }
}

TEST(LrnGradTest, TwoChannelsNarrowerThanWindow) {
  Rng rng(23);
  Lrn lrn("l", 5, 0.3, 0.75, 2.0);
  Tensor in = RandomTensor({3, 2, 3, 3}, &rng);
  CheckLayerGradients(&lrn, in, &rng);
}

// The formulas Lrn used before it cached denom^-beta: per element, in
// double, with std::pow in the forward and four times in the backward.
struct PowFormula {
  std::vector<double> out;
  std::vector<double> gin;
  std::vector<double> gin_scale;  // |direct term| + |cross term|
};

PowFormula LrnByPowFormula(const Tensor& in, const Tensor& gout,
                           int local_size, double alpha, double beta,
                           double k) {
  std::int64_t b = in.dim(0), c = in.dim(1), hw = in.dim(2) * in.dim(3);
  int half = local_size / 2;
  auto at = [&](std::int64_t i, std::int64_t ch, std::int64_t p) {
    return (i * c + ch) * hw + p;
  };
  std::vector<double> denom(static_cast<std::size_t>(in.size()));
  PowFormula f;
  f.out.resize(denom.size());
  f.gin.resize(denom.size());
  f.gin_scale.resize(denom.size());
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t p = 0; p < hw; ++p) {
        double acc = 0.0;
        for (std::int64_t cc = std::max<std::int64_t>(0, ch - half);
             cc <= std::min<std::int64_t>(c - 1, ch + half); ++cc) {
          double v = in[at(i, cc, p)];
          acc += v * v;
        }
        auto e = static_cast<std::size_t>(at(i, ch, p));
        denom[e] = k + alpha / local_size * acc;
        f.out[e] = in[at(i, ch, p)] * std::pow(denom[e], -beta);
      }
    }
  }
  double scale = 2.0 * alpha * beta / local_size;
  for (std::int64_t i = 0; i < b; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t p = 0; p < hw; ++p) {
        auto e = static_cast<std::size_t>(at(i, ch, p));
        double direct = gout[at(i, ch, p)] * std::pow(denom[e], -beta);
        double cross = 0.0;
        for (std::int64_t cc = std::max<std::int64_t>(0, ch - half);
             cc <= std::min<std::int64_t>(c - 1, ch + half); ++cc) {
          std::int64_t j = at(i, cc, p);
          cross += gout[j] * in[j] *
                   std::pow(denom[static_cast<std::size_t>(j)], -beta - 1.0);
        }
        cross *= scale * in[at(i, ch, p)];
        f.gin[e] = direct - cross;
        f.gin_scale[e] = std::fabs(direct) + std::fabs(cross);
      }
    }
  }
  return f;
}

void CheckAgainstPowFormula(int local_size, double alpha, double beta,
                            double k) {
  // Alex-CIFAR-10's lrn1 input: [16, 32, 8, 8] after conv1 and pool1.
  Rng rng(24);
  Lrn lrn("lrn1", local_size, alpha, beta, k);
  Tensor in = RandomTensor({16, 32, 8, 8}, &rng);
  for (std::int64_t i = 0; i < in.size(); ++i) in[i] *= 4.0f;
  Tensor out;
  lrn.Forward(in, &out, /*train=*/true);
  Tensor gout = RandomTensor(out.shape(), &rng);
  Tensor gin;
  lrn.Backward(gout, &gin);
  PowFormula want = LrnByPowFormula(in, gout, local_size, alpha, beta, k);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    auto e = static_cast<std::size_t>(i);
    ASSERT_NEAR(out[i], want.out[e], 1e-5 * std::fabs(want.out[e]))
        << "output element " << i;
    ASSERT_NEAR(gin[i], want.gin[e], 1e-5 * want.gin_scale[e])
        << "input gradient element " << i;
  }
}

TEST(LrnReferenceTest, BackwardMatchesPowFormulaAtAlexSettings) {
  CheckAgainstPowFormula(3, 5e-5, 0.75, 1.0);
}

TEST(LrnReferenceTest, BackwardMatchesPowFormulaUnderStrongNormalization) {
  // alpha large enough that the cross-channel term is comparable to the
  // direct one.
  CheckAgainstPowFormula(5, 0.5, 0.75, 1.0);
}

// ---------------------------------------------------------------------------
// Thread-budget invariance.

struct LrnPass {
  Tensor out;
  Tensor gin;
};

LrnPass RunLrnAtBudget(int budget) {
  ScopedThreadBudget scoped(budget);
  Rng rng(25);
  Lrn lrn("l", 5, 0.3, 0.75, 1.0);
  Tensor in = RandomTensor({kBatch, 12, 5, 5}, &rng);
  LrnPass pass;
  lrn.Forward(in, &pass.out, /*train=*/true);
  Tensor gout = RandomTensor(pass.out.shape(), &rng);
  lrn.Backward(gout, &pass.gin);
  return pass;
}

TEST(LrnDeterminismTest, BitIdenticalAcrossThreadBudgets) {
  LrnPass serial = RunLrnAtBudget(1);
  for (int budget : {2, 4, 8}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    LrnPass parallel = RunLrnAtBudget(budget);
    ExpectTensorBitwiseEqual(serial.out, parallel.out, "output");
    ExpectTensorBitwiseEqual(serial.gin, parallel.gin, "input gradient");
  }
}

}  // namespace
}  // namespace gmreg
