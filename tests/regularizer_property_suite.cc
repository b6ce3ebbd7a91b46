// The property-based invariant harness for the whole regularizer family
// (regularizer_property_suite.h documents the contract). Modeled on
// gm_property_test.cc but generic over the Regularizer interface: every
// factory-registered kind runs the same battery, parameterized by a
// RegContractSpec that declares which optional guarantees the prior makes.

#include "regularizer_property_suite.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/factory.h"
#include "gtest/gtest.h"
#include "reg/regularizer.h"
#include "tensor/tensor.h"
#include "testutil/alloc_count.h"
#include "testutil/gmreg_testutil.h"
#include "util/metrics.h"
#include "util/status.h"

namespace gmreg {
namespace testing {

std::vector<RegContractSpec> AllRegContractSpecs() {
  std::vector<RegContractSpec> specs;
  for (const std::string& config : RegularizerExampleConfigs()) {
    std::string kind = config.substr(0, config.find(':'));
    RegContractSpec spec;
    spec.config = config;
    if (kind == "none" || kind == "l2") {
      // Defaults: non-negative, stateless, smooth.
    } else if (kind == "l1" || kind == "elastic") {
      spec.kinks = {0.0};
    } else if (kind == "huber") {
      // C1 at +-mu but with a curvature jump; keep FD probes away. The
      // magnitude matches the example config's mu.
      spec.kinks = {0.0, 0.1};
    } else if (kind == "gm") {
      // -log p(w) of a density can go negative; MAP-EM with Dirichlet/Gamma
      // hyper-priors ascends the regularized objective, not the bare
      // marginal, so penalty monotonicity is not part of its contract.
      spec.penalty_nonnegative = false;
      spec.adaptive = true;
    } else if (kind == "epgig") {
      spec.penalty_nonnegative = false;  // includes -M log(alpha/2) etc.
      spec.adaptive = true;
      spec.monotone_penalty = true;
      spec.kinks = {0.0};  // |w| term in Laplace mode
    } else if (kind == "dynprior") {
      spec.adaptive = true;
      spec.monotone_penalty = true;  // schedules are non-increasing
    } else {
      // Unknown kind: drop it. The coverage test below then fails with a
      // size mismatch, forcing the author of a new prior to declare its
      // contract here.
      continue;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

namespace {

// 4 uneven chunks at kChunkGrain = 4096, so every parallel code path
// (including the short tail chunk) is exercised at budgets 1/2/4/8.
constexpr std::int64_t kSuiteDims = 3 * 4096 + 17;

std::uint64_t BitsOf(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::unique_ptr<Regularizer> MakeReg(const std::string& config) {
  std::unique_ptr<Regularizer> reg;
  Status s = MakeRegularizerFromConfig(config, kSuiteDims, &reg);
  EXPECT_TRUE(s.ok()) << config << ": " << s.ToString();
  return reg;
}

/// A deterministic mini-SGD trajectory: accumulate the prior gradient at
/// (iteration, epoch = iteration/8, scale = 1/256) and take a serial
/// gradient step on `w`. Serial on purpose — any cross-run or cross-budget
/// difference the tests observe then comes from the regularizer itself.
void RunTrajectory(Regularizer* reg, Tensor* w, int steps, int start_it) {
  Tensor grad(w->shape());
  for (int s = 0; s < steps; ++s) {
    std::int64_t it = start_it + s;
    grad.SetZero();
    reg->AccumulateGradient(*w, it, it / 8, 1.0 / 256.0, &grad);
    float* wp = w->data();
    const float* gp = grad.data();
    for (std::int64_t i = 0; i < w->size(); ++i) wp[i] -= 0.05f * gp[i];
  }
}

class RegContractTest : public ::testing::TestWithParam<RegContractSpec> {};

std::string SpecName(const ::testing::TestParamInfo<RegContractSpec>& info) {
  std::string name;
  for (char c : info.param.config) {
    name.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPriors, RegContractTest,
                         ::testing::ValuesIn(AllRegContractSpecs()),
                         SpecName);

// ---------------------------------------------------------------------------
// Coverage: the factory's three lists and this suite's specs cannot drift.

TEST(RegContractCoverage, EveryKindHasExampleConfigAndSpec) {
  const std::vector<std::string>& kinds = RegularizerKinds();
  const std::vector<std::string>& examples = RegularizerExampleConfigs();
  for (const std::string& kind : kinds) {
    bool found = false;
    for (const std::string& config : examples) {
      found = found || config == kind ||
              config.compare(0, kind.size() + 1, kind + ":") == 0;
    }
    EXPECT_TRUE(found) << "kind '" << kind
                       << "' has no entry in RegularizerExampleConfigs()";
  }
  // Every example config must carry a contract spec (AllRegContractSpecs
  // drops configs whose kind it does not know).
  std::vector<RegContractSpec> specs = AllRegContractSpecs();
  ASSERT_EQ(specs.size(), examples.size())
      << "a factory example config has no RegContractSpec — declare the "
         "new prior's contract in AllRegContractSpecs()";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].config, examples[i]);
  }
}

// ---------------------------------------------------------------------------
// Battery, one TEST_P per contract clause.

TEST_P(RegContractTest, BuildsFromFactoryWithName) {
  std::unique_ptr<Regularizer> reg = MakeReg(GetParam().config);
  ASSERT_NE(reg, nullptr);
  EXPECT_FALSE(reg->Name().empty());
}

TEST_P(RegContractTest, PenaltyFiniteAndNonNegativeWhereDeclared) {
  const RegContractSpec& spec = GetParam();
  std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
  Tensor w = MakeBimodalWeightTensor(kSuiteDims, 7);
  double p0 = reg->Penalty(w);
  EXPECT_TRUE(std::isfinite(p0)) << p0;
  if (spec.penalty_nonnegative) {
    EXPECT_GE(p0, 0.0);
  }
  // Still finite (and signed correctly) after the adaptive state moves.
  RunTrajectory(reg.get(), &w, 10, /*start_it=*/0);
  double p1 = reg->Penalty(w);
  EXPECT_TRUE(std::isfinite(p1)) << p1;
  if (spec.penalty_nonnegative) {
    EXPECT_GE(p1, 0.0);
  }
}

TEST_P(RegContractTest, GradientMatchesFiniteDifferenceOfPenalty) {
  const RegContractSpec& spec = GetParam();
  Tensor w = RandomWeightsAwayFromKinks(kSuiteDims, 31, /*min_abs=*/0.05,
                                        spec.kinks);

  // Analytic gradient from one fresh instance; FD of Penalty on another.
  // Both start from the same config, and every implementation computes the
  // gradient under its pre-update state (E-before-M ordering), so the two
  // fresh instances agree. iteration=1 keeps lazy schedules off the update
  // grid where possible.
  std::unique_ptr<Regularizer> analytic_reg = MakeReg(spec.config);
  std::unique_ptr<Regularizer> fd_reg = MakeReg(spec.config);
  Tensor grad({kSuiteDims});
  grad.SetZero();
  analytic_reg->AccumulateGradient(w, /*iteration=*/1, /*epoch=*/0,
                                   /*scale=*/1.0, &grad);

  const double eps = 1e-3;  // matches GregGradientCheckTest
  std::set<std::int64_t> probes = {0, 4095, 4096, 8191, 8192,
                                   kSuiteDims - 2, kSuiteDims - 1};
  for (std::int64_t i = 0; i < kSuiteDims; i += kSuiteDims / 48) {
    probes.insert(i);
  }
  for (std::int64_t i : probes) {
    float saved = w[i];
    w[i] = static_cast<float>(saved + eps);
    double lp = fd_reg->Penalty(w);
    double w_plus = static_cast<double>(w[i]);
    w[i] = static_cast<float>(saved - eps);
    double lm = fd_reg->Penalty(w);
    double w_minus = static_cast<double>(w[i]);
    w[i] = saved;
    // Divide by the realized float32 delta, not 2*eps — the perturbation
    // itself is quantized.
    double numeric = (lp - lm) / (w_plus - w_minus);
    double analytic = static_cast<double>(grad[i]);
    double tol =
        1e-3 * std::max(std::fabs(numeric), std::fabs(analytic)) + 1e-4;
    EXPECT_NEAR(numeric, analytic, tol)
        << spec.config << " element " << i;
  }
}

TEST_P(RegContractTest, AdaptiveUpdatesNeverIncreasePenaltyOnFixedWeights) {
  const RegContractSpec& spec = GetParam();
  if (!spec.monotone_penalty) {
    GTEST_SKIP() << "penalty monotonicity is not part of this contract";
  }
  std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
  Tensor w = MakeBimodalWeightTensor(kSuiteDims, 13);
  Tensor grad({kSuiteDims});
  double prev = reg->Penalty(w);
  for (int it = 0; it < 40; ++it) {
    grad.SetZero();
    reg->AccumulateGradient(w, it, it / 8, 1.0 / 256.0, &grad);
    double p = reg->Penalty(w);
    EXPECT_LE(p, prev + 1e-7 * (1.0 + std::fabs(prev)))
        << "penalty increased at iteration " << it;
    prev = p;
  }
}

TEST_P(RegContractTest, BitwiseReproducibleRunToRunAtEachBudget) {
  const RegContractSpec& spec = GetParam();
  for (int budget : {1, 2, 4}) {
    ScopedThreadBudget scoped(budget);
    Tensor w1 = MakeBimodalWeightTensor(kSuiteDims, 17);
    Tensor w2 = MakeBimodalWeightTensor(kSuiteDims, 17);
    std::unique_ptr<Regularizer> r1 = MakeReg(spec.config);
    std::unique_ptr<Regularizer> r2 = MakeReg(spec.config);
    RunTrajectory(r1.get(), &w1, 6, 0);
    RunTrajectory(r2.get(), &w2, 6, 0);
    ExpectTensorBitwiseEqual(
        w1, w2, spec.config + " @" + std::to_string(budget) + " threads");
    EXPECT_EQ(BitsOf(r1->Penalty(w1)), BitsOf(r2->Penalty(w2)))
        << spec.config << " penalty @" << budget << " threads";
    std::string s1, s2;
    EXPECT_EQ(r1->SaveState(&s1), r2->SaveState(&s2));
    EXPECT_EQ(s1, s2) << spec.config << " state @" << budget << " threads";
  }
}

TEST_P(RegContractTest, BitwiseIdenticalAcrossThreadBudgets) {
  const RegContractSpec& spec = GetParam();
  Tensor ref = MakeBimodalWeightTensor(kSuiteDims, 19);
  std::unique_ptr<Regularizer> ref_reg = MakeReg(spec.config);
  double ref_penalty;
  std::string ref_state;
  {
    ScopedThreadBudget scoped(1);
    RunTrajectory(ref_reg.get(), &ref, 6, 0);
    ref_penalty = ref_reg->Penalty(ref);
    ref_reg->SaveState(&ref_state);
  }
  for (int budget : {2, 4, 8}) {
    ScopedThreadBudget scoped(budget);
    Tensor w = MakeBimodalWeightTensor(kSuiteDims, 19);
    std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
    RunTrajectory(reg.get(), &w, 6, 0);
    ExpectTensorBitwiseEqual(
        ref, w, spec.config + " 1-thread vs " + std::to_string(budget));
    EXPECT_EQ(BitsOf(ref_penalty), BitsOf(reg->Penalty(w)))
        << spec.config << " penalty, 1 vs " << budget << " threads";
    std::string state;
    reg->SaveState(&state);
    EXPECT_EQ(ref_state, state)
        << spec.config << " state, 1 vs " << budget << " threads";
  }
}

TEST_P(RegContractTest, CheckpointSaveLoadStepBitExact) {
  const RegContractSpec& spec = GetParam();
  Tensor w = MakeBimodalWeightTensor(kSuiteDims, 23);
  std::unique_ptr<Regularizer> original = MakeReg(spec.config);
  RunTrajectory(original.get(), &w, 5, 0);

  std::string state;
  bool has_state = original->SaveState(&state);
  EXPECT_EQ(has_state, spec.adaptive)
      << "adaptive flag and SaveState disagree for " << spec.config;

  std::unique_ptr<Regularizer> resumed = MakeReg(spec.config);
  Status load = resumed->LoadState(has_state ? state : std::string());
  ASSERT_TRUE(load.ok()) << spec.config << ": " << load.ToString();

  // Both continue from the same weights; the resumed instance must track
  // the original bit-for-bit.
  Tensor w_resumed = w;
  RunTrajectory(original.get(), &w, 2, /*start_it=*/5);
  RunTrajectory(resumed.get(), &w_resumed, 2, /*start_it=*/5);
  ExpectTensorBitwiseEqual(w, w_resumed, spec.config + " resumed weights");
  EXPECT_EQ(BitsOf(original->Penalty(w)), BitsOf(resumed->Penalty(w_resumed)))
      << spec.config << " resumed penalty";
  std::string s_orig, s_resumed;
  EXPECT_EQ(original->SaveState(&s_orig), resumed->SaveState(&s_resumed));
  EXPECT_EQ(s_orig, s_resumed) << spec.config << " resumed state";
}

TEST_P(RegContractTest, LoadStateRejectsGarbage) {
  const RegContractSpec& spec = GetParam();
  std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
  EXPECT_FALSE(reg->LoadState("definitely not a state record").ok())
      << spec.config;
  if (spec.adaptive) {
    // Flipping the magic must be enough for rejection, even when the rest
    // of the record is this regularizer's own serialization.
    std::string state;
    ASSERT_TRUE(reg->SaveState(&state));
    EXPECT_FALSE(reg->LoadState("x" + state).ok()) << spec.config;
  }
}

TEST_P(RegContractTest, MetricsAppendIsConstAndPrefixed) {
  const RegContractSpec& spec = GetParam();
  std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
  Tensor w = MakeBimodalWeightTensor(kSuiteDims, 29);
  RunTrajectory(reg.get(), &w, 3, 0);

  std::string before;
  reg->SaveState(&before);
  MetricsRecord record("reg_contract");
  reg->AppendMetrics("reg", &record);
  std::string after;
  reg->SaveState(&after);
  EXPECT_EQ(before, after) << "AppendMetrics mutated " << spec.config;

  for (const auto& field : record.fields) {
    EXPECT_EQ(field.first.compare(0, 4, "reg."), 0)
        << spec.config << " field '" << field.first
        << "' ignores the prefix";
  }
  if (spec.adaptive) {
    EXPECT_FALSE(record.fields.empty())
        << spec.config << " reports no telemetry";
  }
}

TEST_P(RegContractTest, SteadyStateAccumulateIsAllocFree) {
  // The zero-allocation contract of docs/MEMORY.md, per kind: once the
  // trajectory is warm (warmup epochs passed, lazy intervals primed, all
  // grow-only buffers at size), AccumulateGradient must not touch the heap
  // — including the E/M refreshes the example configs schedule inside the
  // measured window. This binary links testutil/alloc_interposer.cc; under
  // sanitizers the assertion is skipped and the test runs as smoke.
  const RegContractSpec& spec = GetParam();
  std::unique_ptr<Regularizer> reg = MakeReg(spec.config);
  Tensor w = MakeBimodalWeightTensor(kSuiteDims, 31);
  // RunTrajectory allocates its grad tensor per call, so the measured loop
  // is inlined here against a pre-sized grad.
  Tensor grad(w.shape());
  auto steps = [&](int n, int start_it) {
    for (int s = 0; s < n; ++s) {
      std::int64_t it = start_it + s;
      grad.SetZero();
      reg->AccumulateGradient(w, it, it / 8, 1.0 / 256.0, &grad);
      float* wp = w.data();
      const float* gp = grad.data();
      for (std::int64_t i = 0; i < w.size(); ++i) wp[i] -= 0.05f * gp[i];
    }
  };
  steps(24, /*start_it=*/0);
  std::int64_t before = HeapAllocCount();
  steps(8, /*start_it=*/24);
  std::int64_t delta = HeapAllocCount() - before;
  if (ZeroAllocAssertsEnabled()) {
    EXPECT_EQ(delta, 0) << spec.config << " allocated in steady state";
  }
}

}  // namespace
}  // namespace testing
}  // namespace gmreg
