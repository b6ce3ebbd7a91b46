// Malformed-config coverage for the regularizer factory. The generic cases
// iterate RegularizerKinds(), so a newly registered prior automatically
// inherits the whole battery: a kind cannot join the grammar without its
// misspellings failing loudly (core/factory.h documents the contract).

#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "gtest/gtest.h"
#include "reg/regularizer.h"
#include "util/status.h"

namespace gmreg {
namespace {

constexpr std::int64_t kDims = 128;

Status TryMake(const std::string& config, std::int64_t num_dims = kDims) {
  std::unique_ptr<Regularizer> reg;
  return MakeRegularizerFromConfig(config, num_dims, &reg);
}

// ---------------------------------------------------------------------------
// Generic battery over every registered kind.

TEST(FactoryNegativeTest, EveryExampleConfigBuilds) {
  for (const std::string& config : RegularizerExampleConfigs()) {
    std::unique_ptr<Regularizer> reg;
    Status s = MakeRegularizerFromConfig(config, kDims, &reg);
    EXPECT_TRUE(s.ok()) << config << ": " << s.ToString();
    ASSERT_NE(reg, nullptr) << config;
  }
}

TEST(FactoryNegativeTest, TrailingColonWithoutKeysIsMalformed) {
  for (const std::string& kind : RegularizerKinds()) {
    Status s = TryMake(kind + ":");
    EXPECT_FALSE(s.ok()) << kind << ": must not parse as all-defaults";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << kind;
  }
}

TEST(FactoryNegativeTest, UnknownKeyRejectedForEveryKind) {
  for (const std::string& kind : RegularizerKinds()) {
    Status s = TryMake(kind + ":bogus_key_xyz=1");
    EXPECT_FALSE(s.ok()) << kind;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << kind;
  }
}

TEST(FactoryNegativeTest, ItemWithoutEqualsIsMalformed) {
  for (const std::string& kind : RegularizerKinds()) {
    EXPECT_FALSE(TryMake(kind + ":novalue").ok()) << kind;
    EXPECT_FALSE(TryMake(kind + ":=1").ok()) << kind;
    EXPECT_FALSE(TryMake(kind + ":beta=1,junk").ok())
        << kind << ": trailing garbage after a valid pair must fail";
  }
}

TEST(FactoryNegativeTest, UnknownKindRejected) {
  for (const char* config :
       {"bogus", "bogus:beta=1", "L1:beta=1", "gm_prior:k=3", ""}) {
    Status s = TryMake(config);
    EXPECT_FALSE(s.ok()) << "'" << config << "'";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << config;
  }
}

// ---------------------------------------------------------------------------
// Per-kind value validation.

TEST(FactoryNegativeTest, NormFamilyBadValues) {
  EXPECT_FALSE(TryMake("l1").ok()) << "beta is required";
  EXPECT_FALSE(TryMake("l2").ok()) << "beta is required";
  EXPECT_EQ(TryMake("l1:beta=abc").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TryMake("l1:beta=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("l2:beta=-0.5").code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(TryMake("elastic:l1_ratio=0.5").ok()) << "beta is required";
  EXPECT_EQ(TryMake("elastic:beta=1,l1_ratio=1.5").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("elastic:beta=1,l1_ratio=-0.1").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("huber:beta=1,mu=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("huber:beta=1,mu=xyz").code(),
            StatusCode::kInvalidArgument);
}

TEST(FactoryNegativeTest, GmBadValues) {
  EXPECT_EQ(TryMake("gm:k=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm:k=65").code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(TryMake("gm:k=64").ok());
  EXPECT_EQ(TryMake("gm:init=banana").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TryMake("gm:gamma=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm:im=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm:ig=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm:warmup=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm:threads=65").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("gm", /*num_dims=*/0).code(),
            StatusCode::kFailedPrecondition)
      << "gm needs the parameter count M";
}

TEST(FactoryNegativeTest, EpGigBadValues) {
  EXPECT_EQ(TryMake("epgig:mode=cauchy").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryMake("epgig:alpha=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("epgig:nu=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("epgig:tau=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("epgig:interval=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("epgig:warmup=-2").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("epgig:alpha=nope").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryMake("epgig", /*num_dims=*/0).code(),
            StatusCode::kFailedPrecondition)
      << "epgig needs the parameter count M";
}

TEST(FactoryNegativeTest, DynPriorBadValues) {
  EXPECT_EQ(TryMake("dynprior:schedule=banana").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TryMake("dynprior:decay=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("dynprior:decay=1.5").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("dynprior:beta=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("dynprior:rate=-1").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("dynprior:beta=1,floor=3").code(),
            StatusCode::kOutOfRange)
      << "floor above beta";
  EXPECT_EQ(TryMake("dynprior:period=0").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(TryMake("dynprior:beta=oops").code(),
            StatusCode::kInvalidArgument);
}

// dynprior and the norms ignore num_dims — they must build even when the
// caller has no parameter count at hand.
TEST(FactoryNegativeTest, DimFreeKindsBuildWithoutDims) {
  for (const char* config : {"none", "l1:beta=1", "dynprior:beta=1"}) {
    EXPECT_TRUE(TryMake(config, /*num_dims=*/0).ok()) << config;
  }
}

}  // namespace
}  // namespace gmreg
