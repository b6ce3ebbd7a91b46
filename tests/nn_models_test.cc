#include <cmath>
#include <set>

#include "testutil/gmreg_testutil.h"
#include "tensor/tensor_ops.h"
#include "gtest/gtest.h"
#include "models/alex_cifar10.h"
#include "models/logistic_regression.h"
#include "models/resnet.h"
#include "reg/norms.h"

namespace gmreg {
namespace {

using ::gmreg::testing::RandomTensor;

std::vector<ParamRef> ParamsOf(Layer* net) {
  std::vector<ParamRef> params;
  net->CollectParams(&params);
  return params;
}

TEST(AlexCifar10Test, PaperScaleParameterCount) {
  Rng rng(1);
  AlexCifar10Config cfg;
  cfg.input_hw = 32;  // paper scale
  auto net = BuildAlexCifar10(cfg, &rng);
  auto params = ParamsOf(net.get());
  // Weights: 2400 + 25600 + 51200 + 10240 = 89440 (the paper's "number of
  // dimensions for model parameter"); biases add 138.
  std::int64_t weights = 0;
  for (const ParamRef& p : params) {
    if (p.is_weight) weights += p.value->size();
  }
  EXPECT_EQ(weights, 89440);
}

TEST(AlexCifar10Test, LayerNamesMatchTable4) {
  Rng rng(2);
  auto net = BuildAlexCifar10(AlexCifar10Config{}, &rng);
  std::set<std::string> names;
  for (const ParamRef& p : ParamsOf(net.get())) names.insert(p.name);
  EXPECT_TRUE(names.count("conv1/weight"));
  EXPECT_TRUE(names.count("conv2/weight"));
  EXPECT_TRUE(names.count("conv3/weight"));
  EXPECT_TRUE(names.count("dense/weight"));
}

TEST(AlexCifar10Test, ForwardShape) {
  Rng rng(3);
  AlexCifar10Config cfg;
  cfg.input_hw = 16;
  auto net = BuildAlexCifar10(cfg, &rng);
  Tensor in = RandomTensor({2, 3, 16, 16}, &rng);
  Tensor out;
  net->Forward(in, &out, false);
  ASSERT_EQ(out.rank(), 2);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 10);
}

TEST(ResNetTest, TwentyWeightedLayers) {
  Rng rng(4);
  ResNetConfig cfg;
  auto net = BuildResNet(cfg, &rng);
  int conv_or_dense = 0;
  int projection = 0;
  for (const ParamRef& p : ParamsOf(net.get())) {
    if (!p.is_weight) continue;
    ++conv_or_dense;
    if (p.name.find("br2") != std::string::npos) ++projection;
  }
  // The paper counts 20 stacked weighted layers: 1 stem + 18 block convs +
  // 1 dense. The two projection shortcuts are extra (as in the original
  // ResNet option B).
  EXPECT_EQ(conv_or_dense - projection, 20);
  EXPECT_EQ(projection, 2);
}

TEST(ResNetTest, PaperScaleParameterDimsCloseToPaper) {
  Rng rng(5);
  ResNetConfig cfg;
  cfg.input_hw = 32;
  auto net = BuildResNet(cfg, &rng);
  std::int64_t weights = 0;
  for (const ParamRef& p : ParamsOf(net.get())) {
    if (p.is_weight) weights += p.value->size();
  }
  // Paper: 270896 dims. Exact bookkeeping differs slightly (projection
  // kernel size, BN exclusions); require the same order.
  EXPECT_GT(weights, 200000);
  EXPECT_LT(weights, 340000);
}

TEST(ResNetTest, LayerNamesMatchTable5) {
  Rng rng(6);
  auto net = BuildResNet(ResNetConfig{}, &rng);
  std::set<std::string> names;
  for (const ParamRef& p : ParamsOf(net.get())) names.insert(p.name);
  EXPECT_TRUE(names.count("conv1/weight"));
  EXPECT_TRUE(names.count("2a-br1-conv1/weight"));
  EXPECT_TRUE(names.count("2a-br1-conv2/weight"));
  EXPECT_TRUE(names.count("3a-br2-conv/weight"));
  EXPECT_TRUE(names.count("4a-br2-conv/weight"));
  EXPECT_TRUE(names.count("ip5/weight"));
  EXPECT_FALSE(names.count("2a-br2-conv/weight"));  // stage 2 keeps identity
}

TEST(ResNetTest, ForwardShapeAndFiniteness) {
  Rng rng(7);
  ResNetConfig cfg;
  cfg.input_hw = 16;
  auto net = BuildResNet(cfg, &rng);
  Tensor in = RandomTensor({2, 3, 16, 16}, &rng);
  Tensor out;
  net->Forward(in, &out, true);
  ASSERT_EQ(out.dim(1), 10);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out[i]));
  }
}

TEST(ResNetTest, HeInitStdDevPerLayer) {
  Rng rng(8);
  auto net = BuildResNet(ResNetConfig{}, &rng);
  for (const ParamRef& p : ParamsOf(net.get())) {
    if (!p.is_weight) continue;
    EXPECT_GT(p.init_stddev, 0.0) << p.name;
    // He stddev = sqrt(2/fan_in); the stem has fan_in 27.
    if (p.name == "conv1/weight") {
      EXPECT_NEAR(p.init_stddev, std::sqrt(2.0 / 27.0), 1e-9);
    }
  }
}

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  Rng rng(9);
  Dataset data;
  data.name = "sep";
  data.features = Tensor({200, 2});
  for (int i = 0; i < 200; ++i) {
    double x0 = rng.NextGaussian();
    double x1 = rng.NextGaussian();
    data.features.At(i, 0) = static_cast<float>(x0);
    data.features.At(i, 1) = static_cast<float>(x1);
    data.labels.push_back(x0 + x1 > 0.0 ? 1 : 0);
  }
  LogisticRegression::Options opts;
  opts.epochs = 80;
  LogisticRegression model(2, opts, &rng);
  model.Train(data, nullptr, &rng);
  EXPECT_GT(model.EvaluateAccuracy(data), 0.97);
}

TEST(LogisticRegressionTest, L2ShrinksWeights) {
  Rng rng(10);
  Dataset data;
  data.features = Tensor({100, 4});
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 4; ++j) {
      data.features.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
    data.labels.push_back(data.features.At(i, 0) > 0 ? 1 : 0);
  }
  LogisticRegression::Options opts;
  opts.epochs = 60;
  Rng rng_a(11), rng_b(11);
  LogisticRegression plain(4, opts, &rng_a);
  LogisticRegression ridge(4, opts, &rng_b);
  plain.Train(data, nullptr, &rng_a);
  L2Reg l2(1000.0);
  ridge.Train(data, &l2, &rng_b);
  EXPECT_LT(SumSquares(ridge.weights()), SumSquares(plain.weights()));
}

TEST(LogisticRegressionTest, LossDecreasesWithTraining) {
  Rng rng(12);
  Dataset data;
  data.features = Tensor({150, 3});
  for (int i = 0; i < 150; ++i) {
    for (int j = 0; j < 3; ++j) {
      data.features.At(i, j) = static_cast<float>(rng.NextGaussian());
    }
    data.labels.push_back(data.features.At(i, 1) > 0.2 ? 1 : 0);
  }
  LogisticRegression::Options opts;
  opts.epochs = 1;
  Rng train_rng(13);
  LogisticRegression model(3, opts, &train_rng);
  double before = model.EvaluateLoss(data);
  model.Train(data, nullptr, &train_rng);
  double after_one = model.EvaluateLoss(data);
  EXPECT_LT(after_one, before);
}

}  // namespace
}  // namespace gmreg
