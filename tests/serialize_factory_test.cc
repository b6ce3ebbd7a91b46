#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "core/factory.h"
#include "core/gm_regularizer.h"
#include "core/serialize.h"
#include "gtest/gtest.h"
#include "reg/norms.h"
#include "util/rng.h"

namespace gmreg {
namespace {

TEST(SerializeTest, RoundTripsExactly) {
  GaussianMixture gm({0.2160001, 0.7839999},
                     {10.72700000001, 835.959000000002});
  GaussianMixture parsed({1.0}, {1.0});
  ASSERT_TRUE(DeserializeMixture(SerializeMixture(gm), &parsed).ok());
  ASSERT_EQ(parsed.num_components(), 2);
  for (int k = 0; k < 2; ++k) {
    auto ks = static_cast<std::size_t>(k);
    EXPECT_DOUBLE_EQ(parsed.pi()[ks], gm.pi()[ks]);
    EXPECT_DOUBLE_EQ(parsed.lambda()[ks], gm.lambda()[ks]);
  }
}

TEST(SerializeTest, RejectsMalformedInput) {
  GaussianMixture out({1.0}, {1.0});
  EXPECT_EQ(DeserializeMixture("", &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeMixture("xx v1 2 0.5 0.5 1 2", &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeMixture("gm v2 2 0.5 0.5 1 2", &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeMixture("gm v1 2 0.5 0.5 1", &out).code(),
            StatusCode::kInvalidArgument);  // truncated lambda
  EXPECT_EQ(DeserializeMixture("gm v1 2 0.5", &out).code(),
            StatusCode::kInvalidArgument);  // truncated pi
}

// A "gm v1" record with `k` equally weighted components.
std::string MixtureRecord(int k) {
  std::ostringstream oss;
  oss << "gm v1 " << k;
  for (int j = 0; j < k; ++j) oss << " 1";
  for (int j = 0; j < k; ++j) oss << " " << j + 1;
  return oss.str();
}

TEST(SerializeTest, BoundsComponentCount) {
  GaussianMixture out({1.0}, {1.0});
  Status st = DeserializeMixture(MixtureRecord(kMaxGmComponents), &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.num_components(), kMaxGmComponents);
  EXPECT_EQ(DeserializeMixture(MixtureRecord(kMaxGmComponents + 1), &out)
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(out.num_components(), kMaxGmComponents);
}

TEST(SerializeTest, RejectsTrailingGarbage) {
  GaussianMixture out({1.0}, {1.0});
  // K mismatch, too many values: K says 2 but three lambdas follow.
  EXPECT_EQ(DeserializeMixture("gm v1 2 0.5 0.5 1 2 3", &out).code(),
            StatusCode::kInvalidArgument);
  // Non-numeric junk glued to an otherwise valid record.
  EXPECT_EQ(DeserializeMixture("gm v1 2 0.5 0.5 1 2 hello", &out).code(),
            StatusCode::kInvalidArgument);
  // A second record on the same line.
  EXPECT_EQ(
      DeserializeMixture("gm v1 1 1.0 2.0 gm v1 1 1.0 2.0", &out).code(),
      StatusCode::kInvalidArgument);
  // The rejects must not have clobbered the output.
  EXPECT_EQ(out.num_components(), 1);
}

TEST(SerializeTest, RejectsNonFiniteValues) {
  // libstdc++'s operator>> refuses the "nan"/"inf" tokens outright (the
  // extraction fails -> kInvalidArgument); the std::isfinite checks in
  // DeserializeMixture are defense-in-depth for implementations that do
  // parse them (-> kOutOfRange). Either way the record must be rejected.
  GaussianMixture out({1.0}, {1.0});
  EXPECT_FALSE(DeserializeMixture("gm v1 2 nan 0.5 1 2", &out).ok());
  EXPECT_FALSE(DeserializeMixture("gm v1 2 inf 0.5 1 2", &out).ok());
  EXPECT_FALSE(DeserializeMixture("gm v1 2 0.5 0.5 nan 2", &out).ok());
  EXPECT_FALSE(DeserializeMixture("gm v1 2 0.5 0.5 1 -inf", &out).ok());
}

TEST(SerializeTest, LoadRejectsTrailingLines) {
  std::string path = ::testing::TempDir() + "/gmreg_trailing.txt";
  {
    std::ofstream f(path);
    f << "gm v1 1 1.0 2.0\n";
    f << "gm v1 1 1.0 3.0\n";  // a second record the format does not allow
  }
  GaussianMixture out({1.0}, {1.0});
  EXPECT_EQ(LoadMixture(path, &out).code(), StatusCode::kInvalidArgument);
  // Trailing blank lines are tolerated (editors add them).
  {
    std::ofstream f(path);
    f << "gm v1 1 1.0 2.0\n\n  \n";
  }
  EXPECT_TRUE(LoadMixture(path, &out).ok());
  EXPECT_DOUBLE_EQ(out.lambda()[0], 2.0);
}

TEST(SerializeTest, RejectsInvalidValues) {
  GaussianMixture out({1.0}, {1.0});
  EXPECT_EQ(DeserializeMixture("gm v1 2 -0.5 1.5 1 2", &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(DeserializeMixture("gm v1 2 0.5 0.5 1 -2", &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(DeserializeMixture("gm v1 0", &out).code(),
            StatusCode::kOutOfRange);
}

TEST(SerializeTest, SaveLoadFile) {
  std::string path = ::testing::TempDir() + "/gmreg_mixture.txt";
  GaussianMixture gm({0.3, 0.7}, {1.5, 300.0});
  ASSERT_TRUE(SaveMixture(gm, path).ok());
  GaussianMixture loaded({1.0}, {1.0});
  ASSERT_TRUE(LoadMixture(path, &loaded).ok());
  EXPECT_DOUBLE_EQ(loaded.lambda()[1], 300.0);
  EXPECT_EQ(LoadMixture("/nonexistent/dir/x.txt", &loaded).code(),
            StatusCode::kNotFound);
}

TEST(SerializeTest, WarmStartRegularizer) {
  GmOptions opts;
  GmRegularizer reg("w", 100, opts);
  EXPECT_EQ(reg.mixture().num_components(), 4);
  GaussianMixture learned({0.2, 0.8}, {1.0, 250.0});
  reg.SetMixture(learned);
  EXPECT_EQ(reg.mixture().num_components(), 2);
  EXPECT_EQ(reg.hyper().alpha.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.mixture().lambda()[1], 250.0);
}

TEST(FactoryTest, BuildsEveryKind) {
  struct Case {
    const char* config;
    const char* name;
  };
  for (const Case& c : {Case{"none", "No Reg"},
                        Case{"l1:beta=2", "L1 Reg"},
                        Case{"l2:beta=3.5", "L2 Reg"},
                        Case{"elastic:beta=1,l1_ratio=0.25", "Elastic-net Reg"},
                        Case{"huber:beta=1,mu=0.2", "Huber Reg"},
                        Case{"gm:gamma=0.001", "GM Reg"}}) {
    std::unique_ptr<Regularizer> reg;
    Status st = MakeRegularizerFromConfig(c.config, 100, &reg);
    ASSERT_TRUE(st.ok()) << c.config << ": " << st.ToString();
    EXPECT_EQ(reg->Name(), c.name) << c.config;
  }
}

TEST(FactoryTest, ParsesParameters) {
  std::unique_ptr<Regularizer> reg;
  ASSERT_TRUE(MakeRegularizerFromConfig("l2:beta=7.25", 0, &reg).ok());
  EXPECT_DOUBLE_EQ(static_cast<L2Reg*>(reg.get())->beta(), 7.25);
  ASSERT_TRUE(
      MakeRegularizerFromConfig("huber:beta=2,mu=0.5", 0, &reg).ok());
  auto* huber = static_cast<HuberReg*>(reg.get());
  EXPECT_DOUBLE_EQ(huber->beta(), 2.0);
  EXPECT_DOUBLE_EQ(huber->mu(), 0.5);
}

TEST(FactoryTest, ParsesGmOptions) {
  std::unique_ptr<Regularizer> reg;
  Status st = MakeRegularizerFromConfig(
      "gm:k=6,gamma=0.0005,alpha_exp=0.7,init=proportional,warmup=3,im=20,"
      "ig=40",
      500, &reg);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto* gm = static_cast<GmRegularizer*>(reg.get());
  EXPECT_EQ(gm->options().num_components, 6);
  EXPECT_DOUBLE_EQ(gm->options().gamma, 0.0005);
  EXPECT_DOUBLE_EQ(gm->options().alpha_exponent, 0.7);
  EXPECT_EQ(gm->options().init_method, GmInitMethod::kProportional);
  EXPECT_EQ(gm->options().lazy.warmup_epochs, 3);
  EXPECT_EQ(gm->options().lazy.greg_interval, 20);
  EXPECT_EQ(gm->options().lazy.gm_interval, 40);
  EXPECT_EQ(gm->num_dims(), 500);
}

TEST(FactoryTest, ParsesGmThreads) {
  std::unique_ptr<Regularizer> reg;
  Status st = MakeRegularizerFromConfig("gm:threads=4", 500, &reg);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(static_cast<GmRegularizer*>(reg.get())->options().num_threads, 4);
  // threads=0 keeps the process default.
  ASSERT_TRUE(MakeRegularizerFromConfig("gm:threads=0", 500, &reg).ok());
  EXPECT_EQ(static_cast<GmRegularizer*>(reg.get())->options().num_threads, 0);
}

TEST(FactoryTest, RejectsBadGmThreadsAndIntervals) {
  std::unique_ptr<Regularizer> reg;
  EXPECT_EQ(MakeRegularizerFromConfig("gm:threads=-1", 10, &reg).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("gm:threads=65", 10, &reg).code(),
            StatusCode::kOutOfRange);
  // Regression: interval 0 must be rejected at parse time (a zero interval
  // would divide by zero inside LazySchedule::ShouldUpdate*).
  EXPECT_EQ(MakeRegularizerFromConfig("gm:im=0", 10, &reg).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("gm:ig=0", 10, &reg).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("gm:warmup=-1", 10, &reg).code(),
            StatusCode::kOutOfRange);
}

TEST(FactoryTest, RejectsBadConfigs) {
  std::unique_ptr<Regularizer> reg;
  EXPECT_EQ(MakeRegularizerFromConfig("ridge:beta=1", 0, &reg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeRegularizerFromConfig("l2", 0, &reg).code(),
            StatusCode::kInvalidArgument);  // missing beta
  EXPECT_EQ(MakeRegularizerFromConfig("l2:beta=abc", 0, &reg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeRegularizerFromConfig("l2:beta=-1", 0, &reg).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("l2:beta=1,typo=2", 0, &reg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      MakeRegularizerFromConfig("elastic:beta=1,l1_ratio=1.5", 0, &reg).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("gm:gamma=0.001", 0, &reg).code(),
            StatusCode::kFailedPrecondition);  // num_dims required
  EXPECT_EQ(MakeRegularizerFromConfig("gm:init=diag", 10, &reg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeRegularizerFromConfig("gm:k=0", 10, &reg).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(MakeRegularizerFromConfig("l2:beta", 0, &reg).code(),
            StatusCode::kInvalidArgument);  // malformed key=value
}

TEST(FactoryTest, EndToEndLearnThenPersistThenWarmStart) {
  // The deployment loop: train with gm config, save the mixture, rebuild a
  // fresh regularizer from config, warm-start it from the file.
  std::unique_ptr<Regularizer> reg;
  ASSERT_TRUE(
      MakeRegularizerFromConfig("gm:gamma=0.0005", 200, &reg).ok());
  auto* gm = static_cast<GmRegularizer*>(reg.get());
  Rng rng(3);
  Tensor w({200});
  for (std::int64_t i = 0; i < 200; ++i) {
    w[i] = static_cast<float>(rng.NextGaussian(0.0, 0.1));
  }
  Tensor grad({200});
  for (int it = 0; it < 20; ++it) {
    grad.SetZero();
    gm->AccumulateGradient(w, it, 0, 1.0, &grad);
  }
  std::string path = ::testing::TempDir() + "/gmreg_warm.txt";
  ASSERT_TRUE(SaveMixture(gm->mixture(), path).ok());

  std::unique_ptr<Regularizer> fresh;
  ASSERT_TRUE(MakeRegularizerFromConfig("gm:gamma=0.0005", 200, &fresh).ok());
  auto* gm2 = static_cast<GmRegularizer*>(fresh.get());
  GaussianMixture loaded({1.0}, {1.0});
  ASSERT_TRUE(LoadMixture(path, &loaded).ok());
  gm2->SetMixture(loaded);
  EXPECT_EQ(gm2->mixture().num_components(),
            gm->mixture().num_components());
  EXPECT_NEAR(gm2->mixture().lambda()[0], gm->mixture().lambda()[0], 1e-12);
}

}  // namespace
}  // namespace gmreg
