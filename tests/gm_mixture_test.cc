#include <cmath>
#include <vector>

#include "core/gaussian_mixture.h"
#include "core/hyper.h"
#include "core/merge.h"
#include "gtest/gtest.h"

namespace gmreg {
namespace {

TEST(GaussianMixtureTest, SingleComponentIsGaussianDensity) {
  GaussianMixture gm({1.0}, {4.0});  // precision 4 => stddev 0.5
  // N(0 | 0, var=0.25) = 1/sqrt(2*pi*0.25)
  EXPECT_NEAR(gm.Density(0.0), 1.0 / std::sqrt(2.0 * M_PI * 0.25), 1e-9);
  EXPECT_NEAR(gm.Density(0.5),
              std::exp(-0.5) / std::sqrt(2.0 * M_PI * 0.25), 1e-9);
}

TEST(GaussianMixtureTest, DensityIntegratesToOne) {
  GaussianMixture gm({0.3, 0.7}, {0.5, 50.0});
  double integral = 0.0;
  double dx = 1e-3;
  for (double x = -20.0; x <= 20.0; x += dx) {
    integral += gm.Density(x) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(GaussianMixtureTest, PiRenormalizedOnConstruction) {
  GaussianMixture gm({2.0, 6.0}, {1.0, 1.0});
  EXPECT_NEAR(gm.pi()[0], 0.25, 1e-12);
  EXPECT_NEAR(gm.pi()[1], 0.75, 1e-12);
}

class ResponsibilityTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ResponsibilityTest, SumToOneAndNonNegative) {
  auto [x, spread] = GetParam();
  GaussianMixture gm({0.1, 0.2, 0.3, 0.4},
                     {1.0, 1.0 * spread, 2.0 * spread, 10.0 * spread});
  double r[4];
  gm.Responsibilities(x, r);
  double total = 0.0;
  for (double v : r) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResponsibilityTest,
    ::testing::Combine(::testing::Values(-50.0, -1.0, -0.01, 0.0, 0.01, 1.0,
                                         50.0),
                       ::testing::Values(1.0, 10.0, 1000.0)));

TEST(GaussianMixtureTest, ResponsibilityMatchesBayesRule) {
  GaussianMixture gm({0.4, 0.6}, {1.0, 25.0});
  double x = 0.3;
  auto normal = [](double v, double lambda) {
    return std::sqrt(lambda / (2.0 * M_PI)) *
           std::exp(-0.5 * lambda * v * v);
  };
  double p0 = 0.4 * normal(x, 1.0);
  double p1 = 0.6 * normal(x, 25.0);
  double r[2];
  gm.Responsibilities(x, r);
  EXPECT_NEAR(r[0], p0 / (p0 + p1), 1e-12);
  EXPECT_NEAR(r[1], p1 / (p0 + p1), 1e-12);
}

TEST(GaussianMixtureTest, LargePrecisionComponentDominatesNearZero) {
  // Sec. III-C2: near zero the largest-precision component dominates, so
  // small weights get strong regularization; far from zero the
  // small-precision (large-variance) component takes over.
  GaussianMixture gm({0.5, 0.5}, {1.0, 100.0});
  double r[2];
  gm.Responsibilities(0.01, r);
  EXPECT_GT(r[1], 0.9);
  gm.Responsibilities(1.0, r);
  EXPECT_GT(r[0], 0.9);
}

TEST(GaussianMixtureTest, RegGradientMatchesNumericLogDensity) {
  // Two components, and the most a mixture may have (kMaxGmComponents).
  std::vector<double> pi64(kMaxGmComponents, 1.0 / kMaxGmComponents);
  std::vector<double> lambda64;
  for (int k = 0; k < kMaxGmComponents; ++k) {
    lambda64.push_back(0.5 * std::pow(1.15, k));
  }
  for (const GaussianMixture& gm :
       {GaussianMixture({0.3, 0.7}, {0.5, 40.0}),
        GaussianMixture(pi64, lambda64)}) {
    double eps = 1e-6;
    for (double x : {-2.0, -0.3, -0.05, 0.05, 0.7, 3.0}) {
      double numeric =
          -(gm.LogDensity(x + eps) - gm.LogDensity(x - eps)) / (2 * eps);
      EXPECT_NEAR(gm.RegGradient(x), numeric,
                  1e-4 + 1e-4 * std::fabs(numeric))
          << "K=" << gm.num_components() << " x=" << x;
    }
  }
}

TEST(GaussianMixtureTest, RegGradientStrongerForSmallWeights) {
  // The effective per-unit shrinkage greg/x decreases with |x|: noisy
  // (small) weights are regularized harder than useful (large) ones.
  GaussianMixture gm({0.3, 0.7}, {1.0, 200.0});
  double shrink_small = gm.RegGradient(0.02) / 0.02;
  double shrink_large = gm.RegGradient(1.5) / 1.5;
  EXPECT_GT(shrink_small, 50.0 * shrink_large);
}

TEST(GaussianMixtureTest, LogDensityStableAtExtremes) {
  GaussianMixture gm({0.5, 0.5}, {1e-4, 1e6});
  EXPECT_TRUE(std::isfinite(gm.LogDensity(0.0)));
  EXPECT_TRUE(std::isfinite(gm.LogDensity(1e3)));
  EXPECT_TRUE(std::isfinite(gm.LogDensity(-1e3)));
  double r[2];
  gm.Responsibilities(1e3, r);
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-12);
}

TEST(GaussianMixtureTest, EffectiveComponents) {
  GaussianMixture gm({0.005, 0.495, 0.5}, {1.0, 10.0, 100.0});
  EXPECT_EQ(gm.EffectiveComponents(0.01), 2);
  EXPECT_EQ(gm.EffectiveComponents(0.001), 3);
}

TEST(GmInitTest, IdenticalMethod) {
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kIdentical, 10.0);
  for (double l : gm.lambda()) EXPECT_DOUBLE_EQ(l, 10.0);
  for (double p : gm.pi()) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(GmInitTest, LinearMethodSpansMinToKMin) {
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kLinear, 10.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[0], 10.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[3], 40.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[1], 20.0);
}

TEST(GmInitTest, ProportionalMethodDoubles) {
  GaussianMixture gm =
      GaussianMixture::Initialize(4, GmInitMethod::kProportional, 10.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[0], 10.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[1], 20.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[2], 40.0);
  EXPECT_DOUBLE_EQ(gm.lambda()[3], 80.0);
}

TEST(GmInitTest, SingleComponentAllMethodsAgree) {
  for (GmInitMethod m : {GmInitMethod::kIdentical, GmInitMethod::kLinear,
                         GmInitMethod::kProportional}) {
    GaussianMixture gm = GaussianMixture::Initialize(1, m, 5.0);
    EXPECT_DOUBLE_EQ(gm.lambda()[0], 5.0);
  }
}

TEST(GmInitTest, ParseRoundTrips) {
  for (GmInitMethod m : {GmInitMethod::kIdentical, GmInitMethod::kLinear,
                         GmInitMethod::kProportional}) {
    EXPECT_EQ(ParseGmInitMethod(GmInitMethodName(m)), m);
  }
}

TEST(HyperTest, RulesOfSectionVB1) {
  GmHyperParams h = GmHyperParams::FromRules(/*num_dims=*/10000,
                                             /*num_components=*/4,
                                             /*gamma=*/0.005,
                                             /*a_factor=*/0.01,
                                             /*alpha_exponent=*/0.5);
  EXPECT_DOUBLE_EQ(h.b, 50.0);
  EXPECT_DOUBLE_EQ(h.a, 1.5);
  ASSERT_EQ(h.alpha.size(), 4u);
  EXPECT_DOUBLE_EQ(h.alpha[0], 100.0);  // 10000^0.5
  EXPECT_DOUBLE_EQ(h.AlphaSumMinusK(), 4 * 99.0);
}

TEST(HyperTest, GammaGridMatchesPaper) {
  const auto& grid = GammaGrid();
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0002);
  EXPECT_DOUBLE_EQ(grid.back(), 0.05);
}

TEST(MergeTest, IdenticalComponentsCollapse) {
  GaussianMixture gm({0.25, 0.25, 0.25, 0.25}, {10.0, 10.0, 10.0, 10.0});
  GaussianMixture merged = MergeSimilarComponents(gm);
  ASSERT_EQ(merged.num_components(), 1);
  EXPECT_NEAR(merged.pi()[0], 1.0, 1e-12);
  EXPECT_NEAR(merged.lambda()[0], 10.0, 1e-9);
}

TEST(MergeTest, WellSeparatedComponentsSurvive) {
  GaussianMixture gm({0.3, 0.3, 0.4}, {1.0, 100.0, 10000.0});
  GaussianMixture merged = MergeSimilarComponents(gm);
  EXPECT_EQ(merged.num_components(), 3);
}

TEST(MergeTest, NearbyPairMergesWithWeightedVariance) {
  GaussianMixture gm({0.5, 0.5}, {10.0, 12.0});
  GaussianMixture merged = MergeSimilarComponents(gm, /*ratio=*/1.5);
  ASSERT_EQ(merged.num_components(), 1);
  // Merged variance = (0.5/10 + 0.5/12), precision its inverse.
  double var = 0.5 / 10.0 + 0.5 / 12.0;
  EXPECT_NEAR(merged.lambda()[0], 1.0 / var, 1e-9);
}

TEST(MergeTest, TinyComponentFoldedIntoNeighbour) {
  GaussianMixture gm({0.004, 0.496, 0.5}, {1.0, 50.0, 60.0});
  GaussianMixture merged = MergeSimilarComponents(gm, 1.5, 0.01);
  // 50/60 merge by ratio; the 0.004 component disappears into the rest.
  EXPECT_EQ(merged.num_components(), 1);
  EXPECT_NEAR(merged.pi()[0], 1.0, 1e-12);
}

}  // namespace
}  // namespace gmreg
