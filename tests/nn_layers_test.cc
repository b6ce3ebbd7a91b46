#include <cmath>
#include <memory>

#include "testutil/gmreg_testutil.h"
#include "gtest/gtest.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace gmreg {
namespace {

using ::gmreg::testing::CheckLayerGradients;
using ::gmreg::testing::ExpectTensorBitwiseEqual;
using ::gmreg::testing::RandomTensor;

// Random values bounded away from zero (ReLU kink) by `margin`.
Tensor RandomTensorAwayFromZero(const std::vector<std::int64_t>& shape,
                                Rng* rng, double margin) {
  Tensor t = RandomTensor(shape, rng);
  float* p = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (std::fabs(p[i]) < margin) {
      p[i] = p[i] >= 0.0f ? static_cast<float>(margin + rng->NextDouble())
                          : static_cast<float>(-margin - rng->NextDouble());
    }
  }
  return t;
}

TEST(DenseTest, ForwardKnownValues) {
  Rng rng(1);
  Dense dense("fc", 2, 2, InitSpec::Gaussian(0.1), &rng);
  dense.weight().At(0, 0) = 1.0f;
  dense.weight().At(0, 1) = 2.0f;
  dense.weight().At(1, 0) = 3.0f;
  dense.weight().At(1, 1) = 4.0f;
  dense.bias().At(0) = 0.5f;
  dense.bias().At(1) = -0.5f;
  Tensor in = Tensor::FromVector({1.0f, 1.0f});
  in.Reshape({1, 2});
  Tensor out;
  dense.Forward(in, &out, false);
  EXPECT_FLOAT_EQ(out.At(0, 0), 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(out.At(0, 1), 5.5f);   // 2+4-0.5
}

TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense dense("fc", 5, 4, InitSpec::Gaussian(0.3), &rng);
  Tensor in = RandomTensor({3, 5}, &rng);
  CheckLayerGradients(&dense, in, &rng);
}

TEST(DenseTest, ParamNamesAndInitStdDev) {
  Rng rng(3);
  Dense dense("dense", 10, 2, InitSpec::Gaussian(0.1), &rng);
  std::vector<ParamRef> params;
  dense.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "dense/weight");
  EXPECT_TRUE(params[0].is_weight);
  EXPECT_DOUBLE_EQ(params[0].init_stddev, 0.1);
  EXPECT_EQ(params[1].name, "dense/bias");
  EXPECT_FALSE(params[1].is_weight);
  Dense he("he", 8, 2, InitSpec::He(), &rng);
  params.clear();
  he.CollectParams(&params);
  EXPECT_NEAR(params[0].init_stddev, std::sqrt(2.0 / 8.0), 1e-12);
}

struct ConvCase {
  int in_c, out_c, kernel, stride, padding, hw, batch;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, GradientCheck) {
  const ConvCase& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.kernel * 100 + c.stride * 10 + c.hw));
  Conv2d conv("conv", c.in_c, c.out_c, c.kernel, c.stride, c.padding,
              InitSpec::Gaussian(0.3), &rng);
  Tensor in = RandomTensor({c.batch, c.in_c, c.hw, c.hw}, &rng);
  CheckLayerGradients(&conv, in, &rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradTest,
    ::testing::Values(ConvCase{1, 2, 3, 1, 1, 5, 2},   // same-pad 3x3
                      ConvCase{2, 3, 3, 2, 1, 6, 1},   // stride-2 downsample
                      ConvCase{3, 2, 5, 1, 2, 6, 1},   // 5x5 like AlexNet
                      ConvCase{2, 2, 1, 1, 0, 4, 2},   // 1x1
                      ConvCase{1, 1, 3, 1, 0, 4, 1})); // valid padding

TEST(ConvTest, OutSize) {
  Rng rng(4);
  Conv2d conv("c", 1, 1, 3, 2, 1, InitSpec::He(), &rng);
  EXPECT_EQ(conv.OutSize(16), 8);
  EXPECT_EQ(conv.OutSize(9), 5);
}

TEST(ConvTest, IdentityKernelPreservesInput) {
  Rng rng(5);
  Conv2d conv("c", 1, 1, 3, 1, 1, InitSpec::Gaussian(0.1), &rng);
  conv.weight().SetZero();
  conv.weight().At(0, 4) = 1.0f;  // center tap of the 3x3 kernel
  Tensor in = RandomTensor({1, 1, 4, 4}, &rng);
  Tensor out;
  conv.Forward(in, &out, false);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(out[i], in[i], 1e-6);
  }
}

TEST(MaxPoolTest, ForwardKnownValues) {
  MaxPool2d pool("p", 2, 2);
  Tensor in = Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                  14, 15, 16});
  in.Reshape({1, 1, 4, 4});
  Tensor out;
  pool.Forward(in, &out, true);
  ASSERT_EQ(out.dim(2), 2);
  EXPECT_FLOAT_EQ(out.At(0, 0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out.At(0, 0, 1, 1), 16.0f);
}

TEST(MaxPoolTest, GradientCheck) {
  Rng rng(6);
  MaxPool2d pool("p", 3, 2);
  Tensor in = RandomTensor({2, 2, 6, 6}, &rng);
  CheckLayerGradients(&pool, in, &rng, /*eps=*/1e-3, /*rel_tol=*/2e-2,
                      /*abs_tol=*/5e-3);
}

TEST(AvgPoolTest, ForwardAveragesClippedWindows) {
  AvgPool2d pool("p", 3, 2);
  Tensor in = Tensor::Full({1, 1, 5, 5}, 2.0f);
  Tensor out;
  pool.Forward(in, &out, true);
  // Constant input stays constant regardless of window clipping.
  for (std::int64_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], 2.0f);
}

TEST(AvgPoolTest, GradientCheck) {
  Rng rng(7);
  AvgPool2d pool("p", 3, 2);
  Tensor in = RandomTensor({2, 2, 5, 5}, &rng);
  CheckLayerGradients(&pool, in, &rng);
}

TEST(GlobalAvgPoolTest, ForwardAndGradient) {
  Rng rng(8);
  GlobalAvgPool gap("g");
  Tensor in = RandomTensor({2, 3, 4, 4}, &rng);
  Tensor out;
  gap.Forward(in, &out, true);
  ASSERT_EQ(out.rank(), 2);
  double expected = 0.0;
  for (int p = 0; p < 16; ++p) expected += in[p];
  EXPECT_NEAR(out.At(0, 0), expected / 16.0, 1e-5);
  CheckLayerGradients(&gap, in, &rng);
}

TEST(FlattenTest, RoundTrip) {
  Rng rng(9);
  Flatten flat("f");
  Tensor in = RandomTensor({2, 3, 2, 2}, &rng);
  Tensor out;
  flat.Forward(in, &out, true);
  EXPECT_EQ(out.rank(), 2);
  EXPECT_EQ(out.dim(1), 12);
  CheckLayerGradients(&flat, in, &rng);
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu("r");
  Tensor in = Tensor::FromVector({-1.0f, 0.5f, -0.25f, 2.0f});
  Tensor out;
  relu.Forward(in, &out, true);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 2.0f);
}

TEST(ReluTest, GradientCheck) {
  Rng rng(10);
  Relu relu("r");
  Tensor in = RandomTensorAwayFromZero({3, 7}, &rng, 0.05);
  CheckLayerGradients(&relu, in, &rng);
}

TEST(LrnTest, GradientCheck) {
  Rng rng(11);
  Lrn lrn("l", 3, 5e-2, 0.75, 1.0);
  Tensor in = RandomTensor({2, 5, 3, 3}, &rng);
  CheckLayerGradients(&lrn, in, &rng);
}

TEST(LrnTest, NormalizesLargeActivity) {
  Lrn lrn("l", 3, 1.0, 0.75, 1.0);
  Tensor small = Tensor::Full({1, 3, 1, 1}, 0.1f);
  Tensor large = Tensor::Full({1, 3, 1, 1}, 10.0f);
  Tensor out_small, out_large;
  lrn.Forward(small, &out_small, false);
  lrn.Forward(large, &out_large, false);
  // The ratio out/in shrinks as activity grows.
  EXPECT_GT(out_small[0] / 0.1f, out_large[0] / 10.0f);
}

TEST(BatchNormTest, NormalizesPerChannel) {
  Rng rng(12);
  BatchNorm2d bn("bn", 2);
  Tensor in = RandomTensor({4, 2, 3, 3}, &rng);
  Tensor out;
  bn.Forward(in, &out, true);
  std::int64_t hw = 9;
  for (int ch = 0; ch < 2; ++ch) {
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < 4; ++i) {
      for (int p = 0; p < hw; ++p) {
        double v = out[(i * 2 + ch) * hw + p];
        sum += v;
        sum_sq += v * v;
      }
    }
    double count = 4.0 * hw;
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, GradientCheck) {
  Rng rng(13);
  BatchNorm2d bn("bn", 3);
  Tensor in = RandomTensor({4, 3, 2, 2}, &rng);
  CheckLayerGradients(&bn, in, &rng, /*eps=*/1e-2, /*rel_tol=*/3e-2,
                      /*abs_tol=*/5e-3);
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  Rng rng(14);
  BatchNorm2d bn("bn", 1);
  Tensor in = RandomTensor({8, 1, 2, 2}, &rng);
  Tensor out;
  for (int i = 0; i < 50; ++i) bn.Forward(in, &out, true);
  Tensor eval_out;
  bn.Forward(in, &eval_out, false);
  // After many identical train batches the running stats converge to the
  // batch stats, so eval output approximates train output.
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(eval_out[i], out[i], 0.1);
  }
}

TEST(SequentialTest, ChainsAndCollectsParams) {
  Rng rng(15);
  Sequential seq("net");
  seq.Emplace<Dense>("fc1", 4, 6, InitSpec::Gaussian(0.3), &rng);
  seq.Emplace<Relu>("relu");
  seq.Emplace<Dense>("fc2", 6, 2, InitSpec::Gaussian(0.3), &rng);
  std::vector<ParamRef> params;
  seq.CollectParams(&params);
  EXPECT_EQ(params.size(), 4u);
  EXPECT_EQ(params[2].name, "fc2/weight");
  Tensor in = RandomTensorAwayFromZero({2, 4}, &rng, 0.05);
  CheckLayerGradients(&seq, in, &rng);
}

TEST(ResidualTest, IdentityShortcutGradient) {
  Rng rng(16);
  auto main = std::make_unique<Sequential>("m");
  main->Emplace<Conv2d>("c1", 2, 2, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  main->Emplace<Relu>("r");
  main->Emplace<Conv2d>("c2", 2, 2, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  Residual block("res", std::move(main), nullptr);
  Tensor in = RandomTensor({2, 2, 4, 4}, &rng);
  // Small eps: the output ReLU(main + shortcut) has kinks near zero that a
  // coarse central difference would straddle.
  CheckLayerGradients(&block, in, &rng, /*eps=*/1e-3, /*rel_tol=*/4e-2,
                      /*abs_tol=*/8e-3);
}

TEST(ResidualTest, ProjectionShortcutGradient) {
  Rng rng(17);
  auto main = std::make_unique<Sequential>("m");
  main->Emplace<Conv2d>("c1", 2, 4, 3, 2, 1, InitSpec::Gaussian(0.3), &rng);
  main->Emplace<Relu>("r");
  main->Emplace<Conv2d>("c2", 4, 4, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  auto shortcut = std::make_unique<Sequential>("s");
  shortcut->Emplace<Conv2d>("cp", 2, 4, 3, 2, 1, InitSpec::Gaussian(0.3),
                            &rng);
  Residual block("res", std::move(main), std::move(shortcut));
  Tensor in = RandomTensor({1, 2, 4, 4}, &rng);
  CheckLayerGradients(&block, in, &rng, /*eps=*/1e-3, /*rel_tol=*/4e-2,
                      /*abs_tol=*/8e-3);
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  std::vector<int> labels = {0, 3};
  Tensor grad;
  double loss = SoftmaxCrossEntropy::ForwardBackward(logits, labels, &grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesNumeric) {
  Rng rng(18);
  Tensor logits = RandomTensor({3, 5}, &rng);
  std::vector<int> labels = {1, 4, 0};
  Tensor grad;
  SoftmaxCrossEntropy::ForwardBackward(logits, labels, &grad);
  double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    float saved = logits[i];
    logits[i] = static_cast<float>(saved + eps);
    double lp = SoftmaxCrossEntropy::Loss(logits, labels);
    logits[i] = static_cast<float>(saved - eps);
    double lm = SoftmaxCrossEntropy::Loss(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR((lp - lm) / (2 * eps), grad[i], 1e-3) << "i=" << i;
  }
}

TEST(SoftmaxCrossEntropyTest, NumericallyStableAtExtremeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000.0f;
  logits[1] = -1000.0f;
  logits[2] = 0.0f;
  std::vector<int> labels = {0};
  Tensor grad;
  double loss = SoftmaxCrossEntropy::ForwardBackward(logits, labels, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Backward(grad_out, nullptr): the caller will not read d(loss)/d(input).
// The layer must still accumulate its parameter gradients bit for bit as
// with a non-null grad_in.

void ExpectNullGradInKeepsParamGrads(Layer* layer, const Tensor& in,
                                     Rng* rng) {
  Tensor out;
  layer->Forward(in, &out, /*train=*/true);
  Tensor gout = RandomTensor(out.shape(), rng);
  std::vector<ParamRef> params;
  layer->CollectParams(&params);
  for (const ParamRef& p : params) p.grad->SetZero();
  Tensor gin;
  layer->Backward(gout, &gin);
  EXPECT_EQ(gin.shape(), in.shape());
  std::vector<Tensor> with_gin;
  for (const ParamRef& p : params) with_gin.push_back(*p.grad);
  for (const ParamRef& p : params) p.grad->SetZero();
  layer->Backward(gout, nullptr);
  for (std::size_t j = 0; j < params.size(); ++j) {
    ExpectTensorBitwiseEqual(with_gin[j], *params[j].grad, params[j].name);
  }
}

TEST(NullGradInTest, Conv2d) {
  Rng rng(31);
  Conv2d conv("conv", 3, 4, 3, 2, 1, InitSpec::Gaussian(0.3), &rng);
  ExpectNullGradInKeepsParamGrads(&conv, RandomTensor({5, 3, 7, 6}, &rng),
                                  &rng);
}

TEST(NullGradInTest, Dense) {
  Rng rng(32);
  Dense dense("fc", 6, 4, InitSpec::Gaussian(0.3), &rng);
  ExpectNullGradInKeepsParamGrads(&dense, RandomTensor({3, 6}, &rng), &rng);
}

TEST(NullGradInTest, BatchNorm2d) {
  Rng rng(33);
  BatchNorm2d bn("bn", 3);
  ExpectNullGradInKeepsParamGrads(&bn, RandomTensor({4, 3, 3, 3}, &rng),
                                  &rng);
}

TEST(NullGradInTest, LayersWithoutParameters) {
  Rng rng(34);
  Relu relu("relu");
  Lrn lrn("lrn", 3, 5e-2, 0.75, 1.0);
  MaxPool2d max_pool("max", 3, 2);
  AvgPool2d avg_pool("avg", 3, 2);
  GlobalAvgPool global_pool("gap");
  Flatten flatten("flat");
  for (Layer* layer : std::initializer_list<Layer*>{
           &relu, &lrn, &max_pool, &avg_pool, &global_pool, &flatten}) {
    SCOPED_TRACE(layer->name());
    ExpectNullGradInKeepsParamGrads(layer, RandomTensor({2, 4, 5, 5}, &rng),
                                    &rng);
  }
}

TEST(NullGradInTest, Sequential) {
  // The first layer, a conv, receives the nullptr.
  Rng rng(35);
  Sequential seq("net");
  seq.Emplace<Conv2d>("c1", 2, 4, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  seq.Emplace<BatchNorm2d>("bn", 4);
  seq.Emplace<Relu>("relu");
  seq.Emplace<MaxPool2d>("pool", 2, 2);
  seq.Emplace<Flatten>("flat");
  seq.Emplace<Dense>("fc", 4 * 3 * 3, 3, InitSpec::Gaussian(0.3), &rng);
  ExpectNullGradInKeepsParamGrads(&seq, RandomTensor({3, 2, 6, 6}, &rng),
                                  &rng);
}

TEST(NullGradInTest, ResidualIdentityShortcut) {
  Rng rng(36);
  auto main = std::make_unique<Sequential>("m");
  main->Emplace<Conv2d>("c1", 2, 2, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  main->Emplace<BatchNorm2d>("bn", 2);
  main->Emplace<Relu>("r");
  main->Emplace<Conv2d>("c2", 2, 2, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  Residual block("res", std::move(main), nullptr);
  ExpectNullGradInKeepsParamGrads(&block, RandomTensor({2, 2, 4, 4}, &rng),
                                  &rng);
}

TEST(NullGradInTest, ResidualProjectionShortcut) {
  Rng rng(37);
  auto main = std::make_unique<Sequential>("m");
  main->Emplace<Conv2d>("c1", 2, 4, 3, 2, 1, InitSpec::Gaussian(0.3), &rng);
  main->Emplace<Relu>("r");
  main->Emplace<Conv2d>("c2", 4, 4, 3, 1, 1, InitSpec::Gaussian(0.3), &rng);
  auto shortcut = std::make_unique<Sequential>("s");
  shortcut->Emplace<Conv2d>("cp", 2, 4, 3, 2, 1, InitSpec::Gaussian(0.3),
                            &rng);
  shortcut->Emplace<BatchNorm2d>("bnp", 4);
  Residual block("res", std::move(main), std::move(shortcut));
  ExpectNullGradInKeepsParamGrads(&block, RandomTensor({2, 2, 4, 4}, &rng),
                                  &rng);
}

TEST(AccuracyTest, CountsArgmaxMatches) {
  Tensor logits = Tensor::FromVector({0.1f, 0.9f, 0.8f, 0.2f});
  logits.Reshape({2, 2});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 0}), 0.5);
}

}  // namespace
}  // namespace gmreg
